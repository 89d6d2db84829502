// Partitioned forms of the scan operators. Each splits the record range
// into contiguous chunks, evaluates the chunks on the shared worker pool
// (xpar.ForEach), and reassembles the chunk outputs in index order: the
// concatenation of the per-chunk owner lists in chunk order is exactly
// the owner list the serial scan appends in record order, so the final
// SortUnique sees the same multiset and returns the same set — every
// variant is byte-identical to its serial form at any worker count. (The
// structural joins have no partitioned form: placing owners under their
// bindings is a bisection per owner, SemiJoinIn, not a merge worth
// splitting.)
//
// Partitioning only engages above a per-partition work floor so small
// inputs never pay goroutine or scratch-pool overhead; the floor is a
// variable so tests and benchmarks can recalibrate it.
package algebra

import (
	"bytes"

	"xquec/internal/storage"
	"xquec/internal/xpar"
)

// MinRecordsPerPartition is the partitioning floor: a parallel variant
// splits only when at least two partitions of this size are available.
// 256 records keeps the cheapest per-partition decode scan around tens of
// microseconds, comfortably above the ~µs cost of scheduling a worker.
// Calibrated with BenchmarkParQuery* (see DESIGN.md).
var MinRecordsPerPartition = 256

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
