package algebra

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xquec/internal/storage"
)

// lowFloors drops the partitioning floors so small test inputs exercise
// the parallel paths, restoring them afterwards.
func lowFloors(t *testing.T, recs int) {
	t.Helper()
	old := MinRecordsPerPartition
	MinRecordsPerPartition = recs
	t.Cleanup(func() { MinRecordsPerPartition = old })
}

func equalSets(a, b NodeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestContFilterParMatchesSerial compares the partitioned decoding scan
// against the serial one at several worker counts, over every codec.
func TestContFilterParMatchesSerial(t *testing.T) {
	lowFloors(t, 4)
	var sb strings.Builder
	sb.WriteString("<r>")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "<p><v>word%d tail%d</v></p>", rng.Intn(40), rng.Intn(5))
	}
	sb.WriteString("</r>")
	for _, alg := range []string{storage.AlgALM, storage.AlgHuffman, storage.AlgHuTucker} {
		s, err := storage.Load([]byte(sb.String()), storage.LoadOptions{
			Plan: &storage.CompressionPlan{DefaultAlgorithm: alg},
		})
		if err != nil {
			t.Fatal(err)
		}
		c, ok := s.ContainerByPath("/r/p/v/#text")
		if !ok {
			t.Fatal("missing container")
		}
		pred := func(plain []byte) bool { return strings.Contains(string(plain), "word1") }
		want, err := ContFilter(c, pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 3, 4, 8, 100} {
			got, err := ContFilterPar(c, par, pred)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSets(got, want) {
				t.Fatalf("%s par=%d: got %v, want %v", alg, par, got, want)
			}
		}
		probe := []byte("word3 tail1")
		wantEq, err := ContEq(c, probe)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4} {
			got, err := ContEqPar(c, probe, par)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSets(got, wantEq) {
				t.Fatalf("%s ContEqPar par=%d: got %v, want %v", alg, par, got, wantEq)
			}
		}
	}
}

// sortUniqueReference is the pre-optimization SortUnique: always sort,
// then dedup (dropping zero IDs via the zero-valued prev).
func sortUniqueReference(ids []storage.NodeID) NodeSet {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	var prev storage.NodeID
	for _, id := range ids {
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	return out
}

// TestSortUniqueOrderedDetection property-tests the ordered-input fast
// path against the reference implementation, including inputs with
// duplicates, zeros and near-sorted runs.
func TestSortUniqueOrderedDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func() []storage.NodeID {
		n := rng.Intn(40)
		ids := make([]storage.NodeID, n)
		switch rng.Intn(4) {
		case 0: // strictly ascending
			cur := storage.NodeID(rng.Intn(3))
			for i := range ids {
				cur += storage.NodeID(1 + rng.Intn(5))
				ids[i] = cur
			}
		case 1: // ascending with duplicates
			cur := storage.NodeID(1)
			for i := range ids {
				cur += storage.NodeID(rng.Intn(2))
				ids[i] = cur
			}
		case 2: // random, may include zeros
			for i := range ids {
				ids[i] = storage.NodeID(rng.Intn(20))
			}
		default: // sorted run with one swap
			cur := storage.NodeID(1)
			for i := range ids {
				cur += storage.NodeID(1 + rng.Intn(3))
				ids[i] = cur
			}
			if n >= 2 {
				i, j := rng.Intn(n), rng.Intn(n)
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
		return ids
	}
	for trial := 0; trial < 2000; trial++ {
		ids := gen()
		ref := append([]storage.NodeID(nil), ids...)
		want := sortUniqueReference(ref)
		got := SortUnique(ids)
		if !equalSets(got, want) {
			t.Fatalf("trial %d: SortUnique(%v) = %v, want %v", trial, ids, got, want)
		}
	}
}

// mergeUnionReference is the pre-optimization pairwise-scan MergeUnion.
func mergeUnionReference(lists ...NodeSet) NodeSet {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make(NodeSet, 0, total)
	idx := make([]int, len(lists))
	for {
		best := -1
		var bestID storage.NodeID
		for i, l := range lists {
			if idx[i] < len(l) {
				if best < 0 || l[idx[i]] < bestID {
					best = i
					bestID = l[idx[i]]
				}
			}
		}
		if best < 0 {
			return out
		}
		if len(out) == 0 || out[len(out)-1] != bestID {
			out = append(out, bestID)
		}
		idx[best]++
	}
}

// TestMergeUnionHeapMatchesReference property-tests the k-way heap
// merge against the old linear-scan implementation across list counts.
func TestMergeUnionHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(9) // 0..8 lists
		lists := make([]NodeSet, k)
		for i := range lists {
			cur := storage.NodeID(1 + rng.Intn(5))
			n := rng.Intn(15)
			for j := 0; j < n; j++ {
				lists[i] = append(lists[i], cur)
				cur += storage.NodeID(1 + rng.Intn(6))
			}
		}
		want := mergeUnionReference(append([]NodeSet(nil), lists...)...)
		got := MergeUnion(lists...)
		if !equalSets(got, want) {
			t.Fatalf("trial %d (k=%d): got %v, want %v", trial, k, got, want)
		}
	}
}
