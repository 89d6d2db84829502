package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"xquec/internal/storage"
)

// syntheticStore builds a Store with only the structure tree filled: a
// forest of n-node subtrees of random depth, which is all the
// structural-join operators consult (SubtreeEnd / NumNodes).
func syntheticStore(n int) *storage.Store {
	rng := rand.New(rand.NewSource(42))
	end := make([]storage.NodeID, n)
	// Assign subtree ends with a stack walk: each node either opens a
	// child (with probability p) or closes back toward the root.
	var stack []int
	for i := 0; i < n; i++ {
		end[i] = storage.NodeID(i + 1) // leaf until extended
		for len(stack) > 0 && rng.Float64() < 0.35 {
			stack = stack[:len(stack)-1]
		}
		for _, a := range stack {
			end[a] = storage.NodeID(i + 1)
		}
		if rng.Float64() < 0.7 && len(stack) < 12 {
			stack = append(stack, i)
		} else {
			stack = stack[:0]
		}
	}
	return storage.NewSyntheticStructure(end)
}

func everyKth(n, k int) NodeSet {
	out := make(NodeSet, 0, n/k+1)
	for i := 1; i <= n; i += k {
		out = append(out, storage.NodeID(i))
	}
	return out
}

// BenchmarkStructuralJoinPar measures the partitioned structural joins
// at several worker budgets on a large synthetic tree. Speedup only
// manifests on multi-core hosts; on a single core the point of the
// p>1 rows is to bound coordination overhead.
func BenchmarkStructuralJoinPar(b *testing.B) {
	const n = 400_000
	s := syntheticStore(n)
	outer := nonNestingSubset(s, everyKth(n, 3))
	inner := everyKth(n, 7)

	oldN := MinNodesPerPartition
	MinNodesPerPartition = 1024
	b.Cleanup(func() { MinNodesPerPartition = oldN })

	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("semijoin/p=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SemiJoinAncestorPar(s, outer, inner, par)
			}
		})
	}
}

// BenchmarkMergeUnion compares the k-way heap merge against the old
// pairwise linear scan (mergeUnionReference) as the list count grows:
// the scan is O(n·k) in the head comparison, the heap O(n·log k).
func BenchmarkMergeUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	build := func(k, per int) []NodeSet {
		lists := make([]NodeSet, k)
		for i := range lists {
			cur := storage.NodeID(1 + rng.Intn(3))
			for j := 0; j < per; j++ {
				lists[i] = append(lists[i], cur)
				cur += storage.NodeID(1 + rng.Intn(8))
			}
		}
		return lists
	}
	for _, k := range []int{2, 8, 32} {
		lists := build(k, 4096)
		b.Run(fmt.Sprintf("heap/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MergeUnion(lists...)
			}
		})
		b.Run(fmt.Sprintf("scan/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mergeUnionReference(lists...)
			}
		})
	}
}
