package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"xquec/internal/storage"
)

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
