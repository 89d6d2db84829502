package storage

import (
	"math/rand"
	"testing"
	"time"

	"xquec/internal/datagen"
)

// TestTextCountIsDerivedAlike: SummaryNode.TextCount is never persisted,
// so each way a store comes to be derives it — the loader's handler, the
// open path's sweep, and the same sweep over a fusion's spliced sequence
// — and all of them must count, per summary node, exactly the instances
// HasText says have immediate text.
func TestTextCountIsDerivedAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	docs := [][]byte{
		[]byte(tinyDoc),
		[]byte(`<r><a>x<b/>y</a><a/><a><b>z</b></a><c k=""/><c k="v">t<!-- c -->u</c><c/></r>`),
		datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 7}),
		datagen.DeepTree(datagen.DeepTreeConfig{Depth: 200, Seed: 9}),
	}
	for i := 0; i < 10; i++ {
		docs = append(docs, datagen.RandomRecords(rng))
	}
	mixed := 0
	for _, doc := range docs {
		loaded, err := Load(doc, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opened, err := LoadBinary(loaded.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		// The fusion of the document with itself under one root.
		parts := []*Store{loaded, opened}
		f := NewFusion(parts)
		_, end := f.Span(0, 1)
		f.Add(0, 0, end)
		f.Add(1, 1, end)
		f.Add(0, end, end+1)
		fused, err := f.Store()
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Store{"loaded": loaded, "opened": opened, "fused": fused} {
			for _, sn := range s.Sum.Nodes() {
				if sn.Tag == "#text" {
					if sn.TextCount != 0 || len(sn.Extent) != 0 {
						t.Fatalf("%s: %s has %d instances, %d with text", name, sn.Path(), len(sn.Extent), sn.TextCount)
					}
					continue
				}
				with := 0
				for _, id := range sn.Extent {
					if s.HasText(id) {
						with++
					}
				}
				if sn.TextCount != with {
					t.Fatalf("%s: %s: TextCount %d, HasText holds of %d of %d instances", name, sn.Path(), sn.TextCount, with, sn.Count)
				}
				if with > 0 && with < sn.Count {
					mixed++
				}
				if other := loaded.Sum.Lookup(sn.Path()); name == "opened" && (other == nil || other.TextCount != sn.TextCount) {
					t.Fatalf("%s: loader and open path disagree: %v vs %d", sn.Path(), other, sn.TextCount)
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no path with some instances with text and some without")
	}
}

// TestOpenManyChildNames: the open path files every node under its
// parent's summary child by tag code. When it compared names, child by
// child, opening <r><n0/>…<n65533/></r> took ≈ 12 s (ingesting it 0.1 s);
// it takes some tens of milliseconds, and the bound is loose enough for a
// loaded host.
func TestOpenManyChildNames(t *testing.T) {
	s, err := Load(manyNames(maxNames-1), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob := s.AppendBinary(nil)
	start := time.Now()
	opened, err := LoadBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("opening %d distinct child names took %v", maxNames-1, took)
	}
	if got, want := len(opened.Sum.Root.Children), maxNames-1; got != want {
		t.Fatalf("%d summary children, want %d", got, want)
	}
	for _, c := range []int{0, scanKids, maxNames - 2} {
		if a, b := opened.Sum.Root.Children[c], s.Sum.Root.Children[c]; a.Tag != b.Tag || len(a.Extent) != 1 || a.Extent[0] != b.Extent[0] {
			t.Fatalf("child %d: opened %s %v, ingested %s %v", c, a.Tag, a.Extent, b.Tag, b.Extent)
		}
	}
}
