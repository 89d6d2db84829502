package storage

import (
	"math/rand"
	"testing"

	"xquec/internal/datagen"
)

// The bulk kernels answer, element for element, what the record oracle's
// arrays (records_test.go) say, on every kind of input the algebra hands
// them: all IDs, random ascending subsets and one-ID slices.

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

// bulkInputs returns all n IDs, ascending subsets at three densities
// (dense ones sweep far, sparse ones jump from input to input), and
// one-ID slices: the root, the last node and a random sample between.
func bulkInputs(rng *rand.Rand, n int) [][]NodeID {
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i + 1)
	}
	inputs := [][]NodeID{all, {1}, {NodeID(n)}, {1, NodeID(n)}}
	for _, density := range []float64{0.25, 0.01, 0.001} {
		if ids := ascendingSubset(rng, n, density); len(ids) > 0 {
			inputs = append(inputs, ids)
		}
	}
	for range 20 {
		inputs = append(inputs, []NodeID{NodeID(1 + rng.Intn(n))})
	}
	return inputs
}

// checkBulk runs both kernels on ids and holds them to the records.
func checkBulk(t testing.TB, s *Store, recs []record, ids []NodeID) {
	t.Helper()
	parents, ends := make([]NodeID, len(ids)), make([]NodeID, len(ids))
	s.ParentBulk(ids, parents)
	s.SubtreeEndBulk(ids, ends)
	for i, id := range ids {
		if r := &recs[id-1]; parents[i] != r.parent || ends[i] != r.end {
			t.Fatalf("%d inputs from %d: node %d has parent %d and subtree end %d, records %d and %d",
				len(ids), ids[0], id, parents[i], ends[i], r.parent, r.end)
		}
	}
}

// TestBulkKernelsMatchScalar keeps the name it had while scalar accessors
// stood next to the kernels. It holds them to the record oracle on XMark
// (shallow, bushy), DeepTree (a long recursive spine) and a recursive
// random document: on the store as ingested ("records"), and on the
// stores built from paren arrays rather than a parse — opened from the
// file bytes and fused with a second document ("succinct").
func TestBulkKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	docs := map[string][2][]byte{
		"xmark": {
			datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 7}),
			datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 8}),
		},
		"deep": {
			datagen.DeepTree(datagen.DeepTreeConfig{Depth: 700, Fanout: 3, Seed: 7}),
			datagen.DeepTree(datagen.DeepTreeConfig{Depth: 300, Fanout: 3, Seed: 8}),
		},
		"random": {datagen.RandomRecords(rng), datagen.RandomRecords(rng)},
	}
	for shape, pair := range docs {
		stores := oracleStores(t, pair[0], pair[1])
		check := func(t *testing.T, s *Store) {
			recs := records(s)
			for _, ids := range bulkInputs(rng, s.NumNodes()) {
				checkBulk(t, s, recs, ids)
			}
		}
		t.Run(shape+"/records", func(t *testing.T) { check(t, stores["ingested"]) })
		t.Run(shape+"/succinct", func(t *testing.T) {
			check(t, stores["opened"])
			check(t, stores["fused"])
		})
	}
}

// FuzzBulkNavigation drives the bulk kernels with fuzzer-chosen tree
// shapes and subset seeds — a DeepTree and a recursive random document
// per input — holding them to the record oracle.
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
		rng := rand.New(rand.NewSource(seed))
		for _, doc := range [][]byte{
			datagen.DeepTree(datagen.DeepTreeConfig{Depth: depth, Fanout: fanout, Seed: seed}),
			datagen.RandomRecords(rng),
		} {
			s, err := Load(doc, LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			recs := records(s)
			n := s.NumNodes()
			for _, ids := range [][]NodeID{ascendingSubset(rng, n, density), {NodeID(1 + rng.Intn(n))}} {
				if len(ids) > 0 {
					checkBulk(t, s, recs, ids)
				}
			}
		}
	})
}
