// Partitioned forms of the scan and structural-join operators. Each
// splits its input into contiguous chunks, evaluates the chunks on the
// shared worker pool (xpar.ForEach), and reassembles the chunk outputs
// in index order — which makes every variant byte-identical to its
// serial form at any worker count:
//
//   - ContFilterPar chunks the record range; the concatenation of the
//     per-chunk owner lists in chunk order is exactly the owner list the
//     serial scan appends in record order, so the final SortUnique sees
//     the same multiset and returns the same set.
//   - SemiJoinAncestorPar / MapToAncestorInPar exploit that the serial
//     merge pointer is, at every element, exactly a lower bound over the
//     other side; chunking one side and re-seeding the pointer with a
//     binary search reproduces the serial per-element decisions.
//
// Partitioning only engages above a per-partition work floor so small
// inputs never pay goroutine or scratch-pool overhead; the floors are
// variables so tests and benchmarks can recalibrate them.
package algebra

import (
	"bytes"
	"sort"

	"xquec/internal/storage"
	"xquec/internal/xpar"
)

// Partitioning floors: a parallel variant splits only when at least two
// partitions of this size are available. 256 records keeps the cheapest
// per-partition decode scan around tens of microseconds, and 8192 nodes
// keeps a structural-merge partition around ~100µs — both comfortably
// above the ~µs cost of scheduling a worker. Calibrated with
// BenchmarkParStructural*/BenchmarkParQuery* (see DESIGN.md).
var (
	MinRecordsPerPartition = 256
	MinNodesPerPartition   = 8192
)

// partitionCount returns how many chunks to split n work units into
// under a worker budget of par, honoring the per-partition floor.
// 1 means "stay serial".
func partitionCount(par, n, floor int) int {
	if par <= 1 || floor < 1 || n < 2*floor {
		return 1
	}
	p := n / floor
	if p > par {
		p = par
	}
	if p < 2 {
		return 1
	}
	return p
}

// concat joins per-chunk node lists in chunk order.
func concat(chunks []NodeSet) NodeSet {
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	out := make(NodeSet, 0, total)
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out
}

// ContFilterPar is ContFilter with the record range split across up to
// par workers, each decoding through its own pool-backed scratch. pred
// must be pure and safe for concurrent calls (the engine's predicates
// are plain closures over the comparison literal). Results are
// byte-identical to ContFilter at every par.
func ContFilterPar(c *storage.Container, par int, pred func(plain []byte) bool) (NodeSet, error) {
	n := c.Len()
	parts := partitionCount(par, n, MinRecordsPerPartition)
	if parts <= 1 {
		return ContFilter(c, pred)
	}
	xpar.NoteScan(parts)
	chunks := make([]NodeSet, parts)
	err := xpar.ForEach(parts, parts, func(p int) error {
		lo, hi := n*p/parts, n*(p+1)/parts
		sc := storage.NewScratch()
		defer sc.Release()
		var ids []storage.NodeID
		for i := lo; i < hi; i++ {
			buf, err := c.DecodeScratch(sc, i)
			if err != nil {
				return err
			}
			if pred(buf) {
				ids = append(ids, c.Record(i).Owner)
			}
		}
		chunks[p] = ids
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Chunk p holds the owners of records [lo,hi) in record order, so
	// the concatenation equals the serial scan's pre-SortUnique list.
	return SortUnique(concat(chunks)), nil
}

// ContEqPar is ContEq with the decompressing-scan fallback partitioned;
// the compressed-domain fast path is already a binary search and stays
// serial.
func ContEqPar(c *storage.Container, probe []byte, par int) (NodeSet, error) {
	if c.Codec().Props().Eq {
		return ContEq(c, probe)
	}
	return ContFilterPar(c, par, func(plain []byte) bool { return bytes.Equal(plain, probe) })
}

// SemiJoinAncestorPar is SemiJoinAncestor with the outer set split into
// even chunks across up to par workers; each chunk seeds the inner
// merge pointer with a binary search (the serial pointer is a running
// lower bound, so per-element decisions are unchanged). Byte-identical
// to SemiJoinAncestor at every par.
func SemiJoinAncestorPar(s *storage.Store, outer, inner NodeSet, par int) NodeSet {
	parts := partitionCount(par, len(outer)+len(inner), MinNodesPerPartition)
	if parts <= 1 || parts > len(outer) {
		return SemiJoinAncestor(s, outer, inner)
	}
	xpar.NoteScan(parts)
	chunks := make([]NodeSet, parts)
	_ = xpar.ForEach(parts, parts, func(p int) error {
		lo, hi := len(outer)*p/parts, len(outer)*(p+1)/parts
		sub := outer[lo:hi]
		j := sort.Search(len(inner), func(k int) bool { return inner[k] >= sub[0] })
		chunks[p] = SemiJoinAncestor(s, sub, inner[j:])
		return nil
	})
	return concat(chunks)
}

// MapToAncestorInPar is MapToAncestorIn with the inner set split into
// even chunks across up to par workers. Outer must be non-nesting (the
// serial contract), which makes its subtree ends ascending, so each
// chunk re-seeds the outer pointer with a binary search on SubtreeEnd.
// Byte-identical to MapToAncestorIn at every par.
func MapToAncestorInPar(s *storage.Store, outer, inner NodeSet, par int) []Pair {
	parts := partitionCount(par, len(outer)+len(inner), MinNodesPerPartition)
	if parts <= 1 || parts > len(inner) {
		return MapToAncestorIn(s, outer, inner)
	}
	xpar.NoteScan(parts)
	chunks := make([][]Pair, parts)
	_ = xpar.ForEach(parts, parts, func(p int) error {
		lo, hi := len(inner)*p/parts, len(inner)*(p+1)/parts
		sub := inner[lo:hi]
		j := sort.Search(len(outer), func(k int) bool { return s.SubtreeEnd(outer[k]) >= sub[0] })
		chunks[p] = MapToAncestorIn(s, outer[j:], sub)
		return nil
	})
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	out := make([]Pair, 0, total)
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out
}
