package partition

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xquec/internal/storage"
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

func scatterXML(t *testing.T, workers []Worker, ctx context.Context, query string, opts Options) (string, *Cursor) {
	t.Helper()
	cur := FanOut(ctx, workers, Request{Query: query}, opts)
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

// prefixWorker delivers its first `n` items then ends cleanly; with
// n=0 it models an absent shard. Used to compute the expected merge
// when a shard fails after delivering a prefix (the partial-results
// policy keeps delivered items and drops only the remainder).
type prefixWorker struct {
	Worker
	n int
}

func (w *prefixWorker) Query(ctx context.Context, req Request) (Stream, error) {
	if w.n == 0 {
		return emptyStream{}, nil
	}
	st, err := w.Worker.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &prefixStream{inner: st, left: w.n}, nil
}

type prefixStream struct {
	inner Stream
	left  int
}

func (s *prefixStream) Next() (Item, bool, error) {
	if s.left == 0 {
		return Item{}, false, nil
	}
	s.left--
	return s.inner.Next()
}

func (s *prefixStream) Close() error { return s.inner.Close() }

type emptyStream struct{}

func (emptyStream) Next() (Item, bool, error) { return Item{}, false, nil }
func (emptyStream) Close() error              { return nil }

// stallWorker blocks its first dispatch until cancelled; every later
// dispatch (the hedge) evaluates normally. This is the straggler the
// hedging policy exists for.
type stallWorker struct {
	Worker
	calls atomic.Int32
}

func (w *stallWorker) Query(ctx context.Context, req Request) (Stream, error) {
	if w.calls.Add(1) == 1 {
		return &stallStream{ctx: ctx}, nil
	}
	return w.Worker.Query(ctx, req)
}

type stallStream struct{ ctx context.Context }

func (s *stallStream) Next() (Item, bool, error) {
	<-s.ctx.Done()
	return Item{}, false, s.ctx.Err()
}

func (s *stallStream) Close() error { return nil }

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
			got, cur := scatterXML(t, workers, context.Background(), faultQuery, Options{})
			cur.Close()
			if got != want {
				t.Fatalf("shards=%d round=%d: jittered scatter diverged", shards, round)
			}
		}
	}
}

// expectedWithPrefix computes the merge where shard `skip` delivers
// only its first `n` items then vanishes — what the partial-results
// policy should return when that shard fails after n items.
func expectedWithPrefix(t *testing.T, set *Set, skip, n int) string {
	t.Helper()
	base := set.workers
	workers := make([]Worker, len(base))
	copy(workers, base)
	workers[skip] = &prefixWorker{Worker: base[skip], n: n}
	got, cur := scatterXML(t, workers, context.Background(), faultQuery, Options{})
	cur.Close()
	return got
}

// TestScatterPartialPolicy injects a per-shard failure (dispatch-time
// and mid-stream) and asserts both sides of the policy: fail-fast
// surfaces the shard's error; partial returns exactly the healthy
// shards' merge and flags the cursor.
func TestScatterPartialPolicy(t *testing.T) {
	src := xmarkDoc(t)
	set := buildSet(t, src, 4)
	base := set.workers

	inject := func(name string, delivered int, mk func(i int) Worker) {
		for _, failShard := range []int{0, 2} {
			workers := make([]Worker, len(base))
			copy(workers, base)
			workers[failShard] = mk(failShard)

			// Fail-fast: the injected error must reach the caller.
			cur := FanOut(context.Background(), workers, Request{Query: faultQuery}, Options{})
			_, err := cur.WriteXML(io.Discard)
			cur.Close()
			if err == nil || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("%s shard=%d fail-fast: err=%v, want injected failure", name, failShard, err)
			}

			// Partial: healthy shards only, cursor flagged.
			before := counters.partialResults.Load()
			got, cur2 := scatterXML(t, workers, context.Background(), faultQuery, Options{Partial: true})
			if !cur2.Partial() {
				t.Fatalf("%s shard=%d: partial cursor not flagged", name, failShard)
			}
			cur2.Close()
			if want := expectedWithPrefix(t, set, failShard, delivered); got != want {
				t.Fatalf("%s shard=%d partial: got %d bytes, want %d (healthy-shard merge)",
					name, failShard, len(got), len(want))
			}
			if after := counters.partialResults.Load(); after != before+1 {
				t.Fatalf("%s shard=%d: partialResults counter %d -> %d, want +1", name, failShard, before, after)
			}
		}
	}

	inject("dispatch", 0, func(int) Worker { return &downWorker{} })
	inject("midstream", 1, func(i int) Worker { return &truncWorker{Worker: base[i], after: 1} })
}

// TestScatterHedging stalls one shard's first dispatch forever: with
// hedging off the query hangs (bounded here by a deadline); with a
// short HedgeAfter the re-dispatched stream answers and the output is
// still byte-identical to the unsharded evaluation.
func TestScatterHedging(t *testing.T) {
	src := xmarkDoc(t)
	want := unshardedXML(t, src, faultQuery)
	set := buildSet(t, src, 4)
	base := set.workers
	workers := make([]Worker, len(base))
	copy(workers, base)
	stalled := &stallWorker{Worker: base[1]}
	workers[1] = stalled

	launched, wins := counters.hedgesLaunched.Load(), counters.hedgeWins.Load()
	got, cur := scatterXML(t, workers, context.Background(), faultQuery, Options{HedgeAfter: 5 * time.Millisecond})
	cur.Close()
	if got != want {
		t.Fatalf("hedged scatter diverged from unsharded result")
	}
	if n := counters.hedgesLaunched.Load(); n <= launched {
		t.Fatalf("hedgesLaunched did not advance (%d -> %d)", launched, n)
	}
	if n := counters.hedgeWins.Load(); n <= wins {
		t.Fatalf("hedgeWins did not advance (%d -> %d)", wins, n)
	}
	if n := stalled.calls.Load(); n < 2 {
		t.Fatalf("stalled worker dispatched %d times, want >= 2 (primary + hedge)", n)
	}

	// Without hedging the stalled shard pins the query until the
	// deadline: this is the failure mode hedging removes, and it must
	// surface as the context error under either policy.
	stalled.calls.Store(1) // already past first call; keep stalling off
	workers[1] = &stallWorker{Worker: base[1]}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	cur2 := FanOut(ctx, workers, Request{Query: faultQuery}, Options{Partial: true})
	_, err := cur2.WriteXML(io.Discard)
	cur2.Close()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unhedged stall: err=%v, want DeadlineExceeded", err)
	}
}

// TestScatterDeadlineMidStream expires the request deadline while
// every shard is mid-stream: the cursor must fail with the context
// error under both policies (a deadline is never a partial result).
func TestScatterDeadlineMidStream(t *testing.T) {
	src := xmarkDoc(t)
	set := buildSet(t, src, 4)
	base := set.workers
	workers := make([]Worker, len(base))
	for i := range base {
		workers[i] = &slowWorker{Worker: base[i], delay: 20 * time.Millisecond}
	}
	for _, partial := range []bool{false, true} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		cur := FanOut(ctx, workers, Request{Query: faultQuery}, Options{Partial: partial})
		_, err := cur.WriteXML(io.Discard)
		cur.Close()
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("partial=%v: err=%v, want DeadlineExceeded", partial, err)
		}
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
	for i, w := range base {
		st, err := w.Query(context.Background(), Request{Query: faultQuery})
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
