package xquec_test

import (
	"context"
	"fmt"
	"testing"

	"xquec"
	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// The succinct-structure benchmarks over one XMark corpus: resident
// structure memory (bits per tree node) and the navigation operators the
// BP self-index answers.

const succinctBenchScale = 0.1

func succinctBenchStore(b *testing.B) *storage.Store {
	b.Helper()
	doc := datagen.XMark(datagen.XMarkConfig{Scale: succinctBenchScale, Seed: 17})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// tagExtent returns every element node with the given tag, in document
// order.
func tagExtent(s *storage.Store, tag string) algebra.NodeSet {
	code, ok := s.Code(tag)
	if !ok {
		return nil
	}
	var out algebra.NodeSet
	s.ScanNodes(func(id storage.NodeID, _ uint16) {
		if s.TagCodeOf(id) == code {
			out = append(out, id)
		}
	})
	return out
}

// BenchmarkSuccinctMemory reports the resident structure encoding:
// total repository bytes, the shape-encoding share, and its density in
// bits per tree node (elements + attributes + text values). The op
// under timing is a full ingest, so ns/op also tracks the succinct
// construction cost.
func BenchmarkSuccinctMemory(b *testing.B) {
	var s *storage.Store
	for i := 0; i < b.N; i++ {
		s = succinctBenchStore(b)
	}
	bpBits, markBits, treeNodes := s.StructureStats()
	b.ReportMetric(float64(bpBits)/float64(treeNodes), "bits/node")
	b.ReportMetric(float64((bpBits+markBits)/8), "shapeB")
	b.ReportMetric(float64(s.Footprint().Total()), "residentB")
}

// BenchmarkSuccinctDescendants measures the descendant interval merge
// — subtree-boundary (FindClose) lookups — restricting the full item
// extent to the subtrees of every region.
func BenchmarkSuccinctDescendants(b *testing.B) {
	s := succinctBenchStore(b)
	regions := tagExtent(s, "regions")
	items := tagExtent(s, "item")
	if len(regions) == 0 || len(items) == 0 {
		b.Fatal("empty inputs")
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(algebra.Descendants(s, regions, items))
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
}

// BenchmarkSuccinctParent measures the parent step — Enclose — over the
// full item extent.
func BenchmarkSuccinctParent(b *testing.B) {
	s := succinctBenchStore(b)
	items := tagExtent(s, "item")
	if len(items) == 0 {
		b.Fatal("no items")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algebra.Parent(s, items)
	}
	b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mnodes/s")
}

// BenchmarkSuccinctQuery measures end-to-end query latency — the
// throughput gate that matters operationally, since structural
// navigation is one stage among scan, decompression and serialization.
func BenchmarkSuccinctQuery(b *testing.B) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: succinctBenchScale, Seed: 17})
	db, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range xmarkq.Queries()[:4] {
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := db.Execute(context.Background(), q.Text, xquec.QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := xquec.ResultXML(res); err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// TestSuccinctBenchSanity keeps the benchmark inputs honest under plain
// `go test`: the extents are those of the tags, and the operators answer
// as the per-node accessors do.
func TestSuccinctBenchSanity(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 17})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	regions, items := tagExtent(s, "regions"), tagExtent(s, "item")
	if len(regions) != 1 || len(items) == 0 {
		t.Fatalf("%d regions, %d items", len(regions), len(items))
	}
	var under algebra.NodeSet
	for _, id := range items {
		if s.IsAncestor(regions[0], id) {
			under = append(under, id)
		}
	}
	if fmt.Sprint(algebra.Descendants(s, regions, items)) != fmt.Sprint(under) {
		t.Fatal("Descendants differs from the interval test")
	}
	var parents []storage.NodeID
	for _, id := range items {
		parents = append(parents, s.Parent(id))
	}
	if fmt.Sprint(algebra.Parent(s, items)) != fmt.Sprint(algebra.SortUnique(parents)) {
		t.Fatal("Parent differs from the per-node parents")
	}
}
