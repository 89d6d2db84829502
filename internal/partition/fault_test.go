package partition

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xquery"
)

// faultQuery is scatterable and returns enough items that every shard
// contributes at the counts under test.
const faultQuery = `FOR $p IN document("auction.xml")/site/people/person RETURN $p/name/text()`

func buildSet(t *testing.T, src []byte, shards int) *Set {
	t.Helper()
	set, err := Build(src, shards, storage.LoadOptions{})
	if err != nil {
		t.Fatalf("build %d shards: %v", shards, err)
	}
	return set
}

// compiled is the request a prepared statement would pass: query parsed
// once and compiled on each part's store.
func compiled(t *testing.T, query string) Request {
	t.Helper()
	expr, err := xquery.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Request{ProgramFor: func(st *storage.Store) (*vm.Program, error) {
		return vm.Compile(expr, st, query)
	}}
}

func scatterXML(t *testing.T, workers []Worker, query string) (string, *Cursor) {
	t.Helper()
	cur := FanOut(context.Background(), workers, compiled(t, query), 0)
	var sb strings.Builder
	if _, err := cur.WriteXML(&sb); err != nil {
		cur.Close()
		t.Fatalf("merge: %v", err)
	}
	return sb.String(), cur
}

// --- fault-injection worker wrappers -------------------------------

// jitterWorker delays every stream step by a random few hundred
// microseconds, shuffling the interleaving of shard goroutines so the
// race detector and the ordering assertions see many schedules.
type jitterWorker struct {
	Worker
	seed int64
}

func (w *jitterWorker) Query(ctx context.Context, req Request) (Stream, error) {
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &jitterStream{inner: st, rnd: rand.New(rand.NewSource(w.seed))}, nil
}

type jitterStream struct {
	inner Stream
	rnd   *rand.Rand
}

func (s *jitterStream) Next() (Item, bool, error) {
	time.Sleep(time.Duration(s.rnd.Intn(300)) * time.Microsecond)
	return s.inner.Next()
}

func (s *jitterStream) Close() error { return s.inner.Close() }

// downWorker fails at dispatch — the shard never produces a stream.
type downWorker struct{}

func (w *downWorker) Query(context.Context, Request) (Stream, error) {
	return nil, errors.New("injected: shard store corrupt")
}

// truncWorker delivers its first `after` items, then fails mid-stream.
type truncWorker struct {
	Worker
	after int
}

func (w *truncWorker) Query(ctx context.Context, req Request) (Stream, error) {
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &truncStream{inner: st, left: w.after}, nil
}

type truncStream struct {
	inner Stream
	left  int
}

func (s *truncStream) Next() (Item, bool, error) {
	if s.left == 0 {
		return Item{}, false, errors.New("injected: container decode failed")
	}
	s.left--
	return s.inner.Next()
}

func (s *truncStream) Close() error { return s.inner.Close() }

// slowWorker sleeps before every item, long enough that a short
// per-request deadline expires mid-stream.
type slowWorker struct {
	Worker
	delay time.Duration
}

func (w *slowWorker) Query(ctx context.Context, req Request) (Stream, error) {
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &slowStream{inner: st, ctx: ctx, delay: w.delay}, nil
}

type slowStream struct {
	inner Stream
	ctx   context.Context
	delay time.Duration
}

func (s *slowStream) Next() (Item, bool, error) {
	select {
	case <-s.ctx.Done():
		return Item{}, false, s.ctx.Err()
	case <-time.After(s.delay):
	}
	return s.inner.Next()
}

func (s *slowStream) Close() error { return s.inner.Close() }

// --- tests ---------------------------------------------------------

// TestScatterRandomizedScheduling runs the scatter under randomly
// jittered shard streams across several rounds and shard counts: the
// merged output must be byte-identical to the unsharded evaluation no
// matter how the shard goroutines interleave. Run with -race.
func TestScatterRandomizedScheduling(t *testing.T) {
	src := xmarkDoc(t)
	want := unshardedXML(t, src, faultQuery)
	for _, shards := range []int{2, 4, 8} {
		set := buildSet(t, src, shards)
		base := set.workers
		for round := 0; round < 3; round++ {
			workers := make([]Worker, len(base))
			for i := range base {
				workers[i] = &jitterWorker{Worker: base[i], seed: int64(shards*100 + round*10 + i)}
			}
			got, cur := scatterXML(t, workers, faultQuery)
			cur.Close()
			if got != want {
				t.Fatalf("shards=%d round=%d: jittered scatter diverged", shards, round)
			}
		}
	}
}

// TestScatterFailFast injects a per-shard failure, at dispatch and
// mid-stream, into a different shard each time: the injected error must
// reach the caller, at every fan-out bound. At bound 1 with the failure
// in shard 2, shard 3 never starts, and only the fan-out's cancellation
// ends the merge waiting on it.
func TestScatterFailFast(t *testing.T) {
	set := buildSet(t, xmarkDoc(t), 4)
	base := set.workers
	req := compiled(t, faultQuery)

	inject := func(name string, mk func(i int) Worker) {
		for _, run := range []struct{ failShard, fanout int }{{0, 0}, {2, 0}, {2, 1}, {2, 2}} {
			workers := make([]Worker, len(base))
			copy(workers, base)
			workers[run.failShard] = mk(run.failShard)

			cur := FanOut(context.Background(), workers, req, run.fanout)
			_, err := cur.WriteXML(io.Discard)
			cur.Close()
			if err == nil || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("%s shard=%d fanout=%d: err=%v, want injected failure", name, run.failShard, run.fanout, err)
			}
		}
	}

	inject("dispatch", func(int) Worker { return &downWorker{} })
	inject("midstream", func(i int) Worker { return &truncWorker{Worker: base[i], after: 1} })
}

// TestScatterDeadlineMidStream expires the request deadline while
// every shard is mid-stream: the cursor must fail with the context
// error.
func TestScatterDeadlineMidStream(t *testing.T) {
	src := xmarkDoc(t)
	set := buildSet(t, src, 4)
	base := set.workers
	workers := make([]Worker, len(base))
	for i := range base {
		workers[i] = &slowWorker{Worker: base[i], delay: 20 * time.Millisecond}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cur := FanOut(ctx, workers, compiled(t, faultQuery), 0)
	_, err := cur.WriteXML(io.Discard)
	cur.Close()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want DeadlineExceeded", err)
	}
}

// TestScatterRankOrder asserts the merge invariant directly: ranks are
// non-decreasing across the merged stream, and items from different
// shards never share a rank (rank ≡ shard index mod N by routing).
func TestScatterRankOrder(t *testing.T) {
	src := xmarkDoc(t)
	set := buildSet(t, src, 4)
	base := set.workers

	// Collect each shard's rank sequence through the raw worker API.
	var all []uint64
	perShard := make([][]uint64, len(base))
	req := compiled(t, faultQuery)
	for i, w := range base {
		st, err := w.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for {
			it, ok, err := st.Next()
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			if !ok {
				break
			}
			perShard[i] = append(perShard[i], it.Rank)
			all = append(all, it.Rank)
		}
		st.Close()
	}
	for i, ranks := range perShard {
		if !sort.SliceIsSorted(ranks, func(a, b int) bool { return ranks[a] < ranks[b] }) {
			t.Fatalf("shard %d ranks not sorted: %v", i, ranks)
		}
	}
	// Cross-shard uniqueness (adjacent duplicates within one shard are
	// legal: multi-item bindings share a rank).
	seen := map[uint64]int{}
	for i, ranks := range perShard {
		for _, r := range ranks {
			if j, dup := seen[r]; dup && j != i {
				t.Fatalf("rank %d appears in shards %d and %d", r, j, i)
			}
			seen[r] = i
		}
	}
	if len(all) == 0 {
		t.Fatal("no items")
	}
}
