package storage

import (
	"math/rand"
	"testing"

	"xquec/internal/datagen"
)

// The bulk kernels must agree element-for-element with the scalar
// accessors and with the record oracle (records_test.go), which the
// scalar accessors are themselves held to.

// ascendingSubset returns a random strictly ascending ID subset — the
// NodeSet invariant the bulk kernels require.
func ascendingSubset(rng *rand.Rand, n int, density float64) []NodeID {
	var ids []NodeID
	for id := 1; id <= n; id++ {
		if rng.Float64() < density {
			ids = append(ids, NodeID(id))
		}
	}
	return ids
}

func checkBulkAgainstScalar(t *testing.T, s *Store, ids []NodeID) {
	t.Helper()
	checkBulk(t, ids, s.ParentBulk, s.Parent, "Parent")
	checkBulk(t, ids, s.SubtreeEndBulk, s.SubtreeEnd, "SubtreeEnd")
}

// checkBulk compares one bulk kernel with a per-node answer.
func checkBulk(t *testing.T, ids []NodeID, bulk func(ids, out []NodeID), want func(NodeID) NodeID, what string) {
	t.Helper()
	out := make([]NodeID, len(ids))
	bulk(ids, out)
	for i, id := range ids {
		if w := want(id); out[i] != w {
			t.Fatalf("%sBulk(%d) = %d, want %d", what, id, out[i], w)
		}
	}
}

// TestBulkKernelsMatchScalar pins the bulk kernels over random subsets
// at several densities (dense subsets exercise the sequential cursor
// walk, sparse ones the re-seed path) on XMark (shallow, bushy) and
// DeepTree (a long recursive spine), the two shapes that stress
// different parts of the BP machinery: against the scalar accessors
// ("succinct") and against the record oracle ("records").
func TestBulkKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	docs := map[string][]byte{
		"xmark": datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 7}),
		"deep":  datagen.DeepTree(datagen.DeepTreeConfig{Depth: 700, Fanout: 3, Seed: 7}),
	}
	for shape, doc := range docs {
		s, err := Load(doc, LoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		n := s.NumNodes()
		var subsets [][]NodeID
		for _, density := range []float64{1, 0.25, 0.01} {
			if ids := ascendingSubset(rng, n, density); len(ids) > 0 {
				subsets = append(subsets, ids)
			}
		}
		// Singletons and the extremes.
		subsets = append(subsets, []NodeID{1}, []NodeID{NodeID(n)}, []NodeID{1, NodeID(n)})
		t.Run(shape+"/succinct", func(t *testing.T) {
			for _, ids := range subsets {
				checkBulkAgainstScalar(t, s, ids)
			}
		})
		t.Run(shape+"/records", func(t *testing.T) {
			recs := records(s)
			for _, ids := range subsets {
				checkBulk(t, ids, s.ParentBulk, func(id NodeID) NodeID { return recs[id-1].parent }, "Parent")
				checkBulk(t, ids, s.SubtreeEndBulk, func(id NodeID) NodeID { return recs[id-1].end }, "SubtreeEnd")
			}
		})
	}
}

// FuzzBulkNavigation drives the bulk kernels with fuzzer-chosen tree
// shapes and subset seeds, comparing against the scalar accessors.
func FuzzBulkNavigation(f *testing.F) {
	f.Add(int64(1), 60, 2, 0.5)
	f.Add(int64(2), 900, 0, 0.1)
	f.Add(int64(3), 5, 8, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, depth, fanout int, density float64) {
		if depth < 1 || depth > 2000 || fanout < 0 || fanout > 8 {
			t.Skip()
		}
		if density < 0 || density > 1 {
			t.Skip()
		}
		doc := datagen.DeepTree(datagen.DeepTreeConfig{Depth: depth, Fanout: fanout, Seed: seed})
		s, err := Load(doc, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		ids := ascendingSubset(rng, s.NumNodes(), density)
		if len(ids) == 0 {
			t.Skip()
		}
		checkBulkAgainstScalar(t, s, ids)
	})
}
