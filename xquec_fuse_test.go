package xquec

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/partition"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// fuseFragScale is bench/'s AppendFragScale: one appended fragment of
// the append_mixed workload (≈ 14 KB, 11 persons).
const fuseFragScale = 0.016

// segmentSets returns segment sets of a scale-`scale` base and 0..frags
// appended fragments: sets[k] has k fragments, and its store is the
// fusion of sets[k-1]'s with fragment k.
func segmentSets(tb testing.TB, scale float64, frags int) (sets []*partition.Set, docs [][]byte) {
	tb.Helper()
	db, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: 1}), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewWriter(db, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sets = append(sets, w.DB().set)
	for k := 0; k < frags; k++ {
		docs = append(docs, datagen.XMark(datagen.XMarkConfig{Scale: fuseFragScale, Seed: int64(100 + k)}))
		set, _, err := sets[k].Append(docs[k:], nil)
		if err != nil {
			tb.Fatal(err)
		}
		sets = append(sets, set)
	}
	return sets, docs
}

// answer runs q and returns the whole result as text.
func answer(t *testing.T, db *Database, q string) string {
	t.Helper()
	res, err := db.Execute(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer res.Close()
	out, err := ResultXML(res)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out
}

// reingest is what a set's fusion replaced: the corpus as text, loaded
// again. It is the reference the spliced store is measured and compared
// against.
func reingest(tb testing.TB, set *partition.Set) *storage.Store {
	tb.Helper()
	xml, err := set.Store().Serialize(nil, nil, 1)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := storage.Load(xml, storage.LoadOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkFuse measures what building a set's fused store costs the
// operation that builds it: ns/op, allocs/op and B/op of an Append of one
// fragment onto a scale-2 base with 0–2 fragments (ingest, serialize and
// fuse), and of an Open of the scale-8 document cut into four parts
// (Options.Shards; read, load and fuse), each next to the re-ingest a
// fusion replaces, with fuse-ms the fusion's own share; then Q8 and Q19
// on both stores of the cut set.
func BenchmarkFuse(b *testing.B) {
	sets, docs := segmentSets(b, 2, 3)
	fuseMS := func(b *testing.B, from partition.Stats) {
		b.ReportMetric(float64(partition.Snapshot().FusionNanos-from.FusionNanos)/1e6/float64(b.N), "fuse-ms")
	}
	for k := 1; k <= 3; k++ {
		b.Run(fmt.Sprintf("segments/frags=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			from := partition.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, _, err := sets[k-1].Append(docs[k-1:k], nil); err != nil {
					b.Fatal(err)
				}
			}
			fuseMS(b, from)
		})
	}
	b.Run("segments/frags=3/reingest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reingest(b, sets[3])
		}
	})

	cut, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 8, Seed: 1}), Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "auction.xqcs")
	if err := cut.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.Run("cut=4", func(b *testing.B) {
		b.ReportAllocs()
		from := partition.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := partition.Open(path); err != nil {
				b.Fatal(err)
			}
		}
		fuseMS(b, from)
	})
	spliced := cut.set.Store()
	b.Run("cut=4/reingest", func(b *testing.B) { // serialize (the splice is done), parse, train, encode
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reingest(b, cut.set)
		}
	})
	stores := map[string]*storage.Store{"spliced": spliced, "reingested": reingest(b, cut.set)}
	for _, q := range []xmarkq.Query{{ID: "q8", Text: xmarkq.Q8}, {ID: "q19", Text: xmarkq.Q19}} {
		for _, name := range []string{"spliced", "reingested"} {
			b.Run(q.ID+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := runOnStore(stores[name], q.Text)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := res.WriteXML(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestFuseBudget keeps per-record allocation out of the fusion: the
// allocations of an Append of the third fragment onto a scale-2 base
// with two, beyond those of ingesting and serializing the fragment alone,
// are proportional to the containers (fused container, record array,
// arena, summary nodes and their extents), not to the values.
func TestFuseBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 ingest")
	}
	sets, docs := segmentSets(t, 2, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const runs = 3
	var allocs uint64
	var fused *storage.Store
	for i := 0; i < runs; i++ {
		appended := mallocs(func() error {
			set, _, err := sets[2].Append(docs[2:], nil)
			if err == nil {
				fused = set.Store()
			}
			return err
		})
		ingest := mallocs(func() error {
			st, err := storage.Load(docs[2], storage.LoadOptions{Dictionary: sets[2].Store().Names})
			if err == nil {
				st.AppendBinary(nil)
			}
			return err
		})
		allocs += appended - min(ingest, appended)
	}
	perRun, budget := allocs/runs, uint64(4*len(fused.Containers)+2000)
	t.Logf("fusing a fragment onto 3 segments: %d allocations, %d containers, budget %d", perRun, len(fused.Containers), budget)
	if perRun > budget {
		t.Errorf("fusing a fragment onto 3 segments made %d allocations, budget %d", perRun, budget)
	}
}

// TestFuseWhileQuerying: a set's store is immutable, so Append may fuse
// from it while other goroutines stream from the handle that holds it.
// Under -race this fails on any write to that store (a record's owner, a
// value ref, a model).
func TestFuseWhileQuerying(t *testing.T) {
	sets, docs := segmentSets(t, 0.1, 2)
	want := answer(t, setDB(sets[2]), xmarkq.Q2)
	prev := setDB(sets[1])
	before := answer(t, prev, xmarkq.Q2)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := prev.Execute(context.Background(), xmarkq.Q2, QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := res.WriteXML(io.Discard); err != nil {
					t.Error(err)
				}
			}()
		}
		set, _, err := sets[1].Append(docs[1:2], nil)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got := answer(t, setDB(set), xmarkq.Q2); got != want {
			t.Fatalf("round %d: Q2 differs after a concurrent fusion", round)
		}
		if got := answer(t, prev, xmarkq.Q2); got != before {
			t.Fatalf("round %d: Q2 on the previous handle changed", round)
		}
	}
}

// TestDecimalScalesSurviveReopen: two decimal containers of different
// scales used to share the group "typed:decimal", whose one persisted
// model then decoded both after a reopen — /r/b/text() answered
// "12.50 31.25" for 1.250 and 3.125.
func TestDecimalScalesSurviveReopen(t *testing.T) {
	doc := []byte(`<r><a>1.25</a><a>2.50</a><b>1.250</b><b>3.125</b></r>`)
	db, err := Compress(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenBytes(db.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`/r/a/text()`, `/r/b/text()`, `sum(/r/b)`, `/r/b[. >= 3]/text()`} {
		want := answer(t, db, q)
		if got := answer(t, reopened, q); got != want {
			t.Errorf("%s: reopened database answers %q, compressed one %q", q, got, want)
		}
	}
	if want := "1.250\n3.125"; answer(t, reopened, `/r/b/text()`) != want {
		t.Errorf("/r/b/text() = %q, want %q", answer(t, reopened, `/r/b/text()`), want)
	}
}

// TestExtentsAreCutFromOneArena: ingest, the structure walk that opens a
// saved repository and the one that proves a fused store cut every
// summary extent from one arena with its capacity at its length, so
// appending to one extent — algebra hands extents out as node sets —
// copies it and leaves the extent after it in the arena as it was.
func TestExtentsAreCutFromOneArena(t *testing.T) {
	db, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.xqc")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(opened, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(datagen.XMark(datagen.XMarkConfig{Scale: fuseFragScale, Seed: 100})); err != nil {
		t.Fatal(err)
	}
	committed, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*Database{"compressed": db, "opened": opened, "committed": committed} {
		nodes := db.store.Sum.Nodes()
		before := make([][]storage.NodeID, len(nodes))
		total := 0
		for i, sn := range nodes {
			if cap(sn.Extent) != len(sn.Extent) {
				t.Fatalf("%s: %s: extent of %d has capacity %d", name, sn.Path(), len(sn.Extent), cap(sn.Extent))
			}
			before[i] = slices.Clone(sn.Extent)
			total += len(sn.Extent)
		}
		if total != db.store.NumNodes() {
			t.Fatalf("%s: extents hold %d nodes, the store %d", name, total, db.store.NumNodes())
		}
		for i, sn := range nodes {
			if len(sn.Extent) == 0 {
				continue
			}
			_ = append(sn.Extent, sn.Extent[0])
			for j, other := range nodes {
				if j != i && !slices.Equal(other.Extent, before[j]) {
					t.Fatalf("%s: appending to the extent of %s changed that of %s", name, sn.Path(), other.Path())
				}
			}
		}
	}
}
