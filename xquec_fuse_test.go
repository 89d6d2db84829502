package xquec

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/partition"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// fuseFragScale is bench/'s AppendFragScale: one appended fragment of
// the append_mixed workload (≈ 14 KB, 11 persons).
const fuseFragScale = 0.016

// segmentSets returns segment sets of a scale-`scale` base and 0..frags
// appended fragments: sets[k] has k fragments. Appending to sets[k-1]
// again yields a fresh, not yet fused, value of sets[k].
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
		set, err := sets[k].Append(docs[k:], storage.LoadOptions{})
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
	res, err := db.Execute(context.Background(), q, QueryOptions{Parallelism: 1})
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

// reingest is what Fused did before it spliced: the corpus as text,
// loaded again. It is the reference the spliced store is measured and
// compared against.
func reingest(tb testing.TB, set *partition.Set) *storage.Store {
	tb.Helper()
	xml, err := set.FuseXML()
	if err != nil {
		tb.Fatal(err)
	}
	st, err := storage.Load(xml, storage.LoadOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkFuse measures building a set's fused fallback store — what
// the first non-scatterable query after an append, a swap or an open
// pays: ns/op, allocs/op and B/op of Set.Fused on a set not fused
// before, for a scale-2 base with 1–3 appended fragments and for four
// shards of scale 8, each next to the re-ingest it replaced; then Q8 and
// Q19 on both stores of the shard set.
func BenchmarkFuse(b *testing.B) {
	sets, docs := segmentSets(b, 2, 3)
	for k := 1; k <= 3; k++ {
		b.Run(fmt.Sprintf("segments/frags=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				set, err := sets[k-1].Append(docs[k-1:k], storage.LoadOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := set.Fused(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("segments/frags=3/reingest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reingest(b, sets[3])
		}
	})

	sharded, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 8, Seed: 1}), Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "auction.xqcs")
	if err := sharded.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.Run("shards=4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			set, err := partition.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := set.Fused(); err != nil {
				b.Fatal(err)
			}
		}
	})
	spliced, err := sharded.set.Fused()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shards=4/reingest", func(b *testing.B) { // serialize (the splice is done), parse, train, encode
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reingest(b, sharded.set)
		}
	})
	stores := map[string]*storage.Store{"spliced": spliced, "reingested": reingest(b, sharded.set)}
	for _, q := range []xmarkq.Query{{ID: "q8", Text: xmarkq.Q8}, {ID: "q19", Text: xmarkq.Q19}} {
		for _, name := range []string{"spliced", "reingested"} {
			b.Run(q.ID+"/"+name, func(b *testing.B) {
				e := engine.New(stores[name])
				for i := 0; i < b.N; i++ {
					res, err := e.Query(q.Text)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := res.SerializeXML(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestFuseBudget keeps per-record allocation out of the fusion: a
// scale-2 base with three fragments fuses in a number of allocations
// proportional to its containers (fused container, record array, arena,
// summary nodes and their extents), not to its values.
func TestFuseBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 ingest")
	}
	sets, docs := segmentSets(t, 2, 3)
	const runs = 3
	var allocs uint64
	var fused *storage.Store
	for i := 0; i < runs; i++ {
		set, err := sets[2].Append(docs[2:], storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if fused, err = set.Fused(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	perRun, budget := allocs/runs, uint64(4*len(fused.Containers)+2000)
	t.Logf("fusing 4 segments: %d allocations, %d containers, budget %d", perRun, len(fused.Containers), budget)
	if perRun > budget {
		t.Errorf("fusing 4 segments made %d allocations, budget %d", perRun, budget)
	}
}

// TestFuseWhileQuerying: parts are immutable, so a fusion may run while
// other goroutines stream from the same parts. Under -race this fails on
// any write to a part (a record's owner, a value ref, a model).
func TestFuseWhileQuerying(t *testing.T) {
	sets, docs := segmentSets(t, 0.1, 2)
	base := &Database{set: sets[2]}
	want := answer(t, base, xmarkq.Q2)
	for round := 0; round < 3; round++ {
		set, err := sets[1].Append(docs[1:], storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db := &Database{set: set}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := db.Execute(context.Background(), xmarkq.Q2, QueryOptions{Parallelism: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := res.WriteXML(io.Discard); err != nil {
					t.Error(err)
				}
			}()
		}
		if _, err := set.Fused(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if got := answer(t, db, xmarkq.Q2); got != want {
			t.Fatalf("round %d: Q2 differs after a concurrent fusion", round)
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
