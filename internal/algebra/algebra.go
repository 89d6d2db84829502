// Package algebra implements the physical operators of the XQueC query
// processor (§4): data-access operators over the compressed repository
// (ContScan, ContAccess, StructureSummaryAccess, Parent, TextContent and
// structural navigation, where a Child step is an extent range, Within),
// data-combination operators (merge join, hash join, structural
// semi-joins) and the compression-aware operators (compressed-domain
// predicate evaluation, explicit Decompress). Operators are
// set-at-a-time: node sequences are kept in
// document order (ascending pre-order IDs), which is what lets path
// steps and structural joins run as linear merges without sorting —
// the order-preservation property §4 highlights.
package algebra

import (
	"bytes"
	"slices"
	"sort"

	"xquec/internal/storage"
)

// NodeSet is a document-ordered (strictly ascending) set of node IDs.
type NodeSet []storage.NodeID

// SummaryAccess is the StructureSummaryAccess operator: it returns the
// document-ordered union of the extents of the given summary nodes —
// the IDs of every element reachable by the matched path(s).
func SummaryAccess(nodes []*storage.SummaryNode) NodeSet {
	switch len(nodes) {
	case 0:
		return nil
	case 1:
		return NodeSet(nodes[0].Extent)
	}
	lists := make([]NodeSet, len(nodes))
	for i, n := range nodes {
		lists[i] = NodeSet(n.Extent)
	}
	return MergeUnion(lists...)
}

// MergeUnion merges document-ordered sets into one. Two lists use a
// plain linear merge; three or more go through a binary min-heap of
// list heads, so the union is O(n log k) instead of the O(n·k)
// scan-every-head loop (matchOwners can fan one summary path out to
// many containers, so k grows with the schema, not the query).
func MergeUnion(lists ...NodeSet) NodeSet {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	case 2:
		return mergeTwo(lists[0], lists[1])
	}
	total := 0
	var heap KWayHeap[int]
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			heap.Push(uint64(l[0]), i)
		}
	}
	heap.Init()
	out := make(NodeSet, 0, total)
	idx := make([]int, len(lists))
	for heap.Len() > 0 {
		key, li := heap.Min()
		id := storage.NodeID(key)
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
		idx[li]++
		if l := lists[li]; idx[li] < len(l) {
			heap.ReplaceMin(uint64(l[idx[li]]), li)
		} else {
			heap.PopMin()
		}
	}
	return out
}

// mergeTwo is the two-list linear union with dedup.
func mergeTwo(a, b NodeSet) NodeSet {
	out := make(NodeSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var id storage.NodeID
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			id = a[i]
			i++
		case i >= len(a) || b[j] < a[i]:
			id = b[j]
			j++
		default:
			id = a[i]
			i++
			j++
		}
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// SortUnique sorts ids and removes duplicates, restoring the NodeSet
// invariant after an order-destroying step (e.g. a join's partner
// lists). A single linear scan first detects the already-strictly-
// ascending common case (Descendants calls this defensively; its output
// is almost always ordered) and returns the input untouched, skipping the
// O(n log n) sort. The ids[0] != 0 guard keeps the fast path
// byte-identical to the sorting path, which drops zero IDs.
func SortUnique(ids []storage.NodeID) NodeSet {
	ordered := len(ids) == 0 || ids[0] != 0
	for i := 1; ordered && i < len(ids); i++ {
		ordered = ids[i-1] < ids[i]
	}
	if ordered {
		return ids
	}
	slices.Sort(ids)
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

// Descendants restricts a document-ordered candidate extent to the
// nodes lying inside the subtree of any input node — the
// descendant-or-self step evaluated as an interval merge on pre/post
// IDs (no navigation).
func Descendants(s *storage.Store, in NodeSet, extent NodeSet) NodeSet {
	ends := make([]storage.NodeID, len(in))
	s.SubtreeEndBulk(in, ends)
	var out []storage.NodeID
	for i, a := range in {
		end := ends[i]
		lo := sort.Search(len(extent), func(k int) bool { return extent[k] >= a })
		for k := lo; k < len(extent) && extent[k] <= end; k++ {
			out = append(out, extent[k])
		}
	}
	// Nested input subtrees can emit overlapping ranges; restore the
	// document-order set invariant.
	return SortUnique(out)
}

// Within is the single-interval form of Descendants: extent ∩ [lo, hi]
// as a sub-slice of extent (no copy). pos, when non-nil, holds where the
// previous lookup over the same extent started; the search gallops from
// there, forward as long as intervals ascend — FOR bindings do — and
// backward when one does not, so a move of either direction costs the
// logarithm of its distance, not of the extent.
func Within(extent NodeSet, lo, hi storage.NodeID, pos *int) NodeSet {
	start := seek(extent, pos, lo)
	return extent[start:gallop(extent, start, hi+1)]
}

// seek returns the first index i with extent[i] >= v, galloping from the
// hint *pos: forward when everything before it is smaller, backward
// otherwise. A hint out of range is clamped into it. A non-nil pos is left
// at the answer.
func seek(extent NodeSet, pos *int, v storage.NodeID) int {
	if pos == nil {
		return gallop(extent, 0, v)
	}
	p := max(0, min(*pos, len(extent)))
	if p > 0 && extent[p-1] >= v {
		p = gallopBack(extent, p-1, v)
	} else {
		p = gallop(extent, p, v)
	}
	*pos = p
	return p
}

// gallop returns the first index i >= from with extent[i] >= v, given
// that everything before from is smaller: doubling steps bracket the
// answer, a bisection inside the bracket pins it. An answer at from costs
// one comparison.
func gallop(extent NodeSet, from int, v storage.NodeID) int {
	lo, hi, step := from, from, 1
	for hi < len(extent) && extent[hi] < v {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	return bisect(extent, lo, min(hi, len(extent)), v)
}

// gallopBack returns the first index i with extent[i] >= v, given that
// extent[to] >= v: doubling steps back from to bracket the answer, a
// bisection inside the bracket pins it.
func gallopBack(extent NodeSet, to int, v storage.NodeID) int {
	lo, hi, step := to, to, 1
	for lo > 0 && extent[lo-1] >= v {
		hi = lo - 1
		lo = max(0, lo-step)
		step <<= 1
	}
	return bisect(extent, lo, hi, v)
}

// bisect returns the first index i in [lo, hi] with extent[i] >= v, given
// that the answer lies there: everything before lo is smaller, and
// extent[hi] >= v or hi == len(extent).
func bisect(extent NodeSet, lo, hi int, v storage.NodeID) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if extent[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Nearest returns, over the extents of sums, the greatest instance that
// is <= id, as (k, i) with sums[k].Extent[i] that instance; k is -1 when
// there is none. It reads containment off extent order (DESIGN.md,
// "Containment is extent order"): a summary node is one root path, so its
// instances never nest and the ancestor of id among them is id's
// predecessor in the extent; and when no member of sums is a
// summary-ancestor of another, id has one ancestor over all of sums, the
// greatest predecessor. An id that is itself an instance is found as
// itself, whatever sums is. pos, when non-nil, holds one galloping hint
// per member of sums, as in Within.
func Nearest(sums []*storage.SummaryNode, pos []int, id storage.NodeID) (k, i int) {
	k, i = -1, -1
	var best storage.NodeID
	for s, sn := range sums {
		var hint *int
		if pos != nil {
			hint = &pos[s]
		}
		if after := seek(sn.Extent, hint, id+1); after > 0 && sn.Extent[after-1] > best {
			k, i, best = s, after-1, sn.Extent[after-1]
			if best == id {
				break // an instance itself: nothing can be nearer
			}
		}
	}
	return k, i
}

// AncestorsIn returns, in document order, the instances of sums with a
// node of inner in their subtree (or that are one), given that no member
// of sums is a summary-ancestor of another and that every inner node lies
// under some instance, as the value owners of containers below sums do.
func AncestorsIn(sums []*storage.SummaryNode, inner NodeSet) NodeSet {
	pos := make([]int, len(sums))
	var out NodeSet
	for _, d := range inner {
		if k, i := Nearest(sums, pos, d); k >= 0 {
			if a := sums[k].Extent[i]; len(out) == 0 || out[len(out)-1] != a {
				out = append(out, a)
			}
		}
	}
	return out
}

// DistinctParents reports that no two of kids, the instances of a summary
// node, have the same parent among parents, the instances of its summary
// parent: that an instance of the parent lies between any two
// consecutive kids. (Instances of one summary node never nest, so the
// parent of a kid is the greatest parent instance before it.)
func DistinctParents(kids, parents NodeSet) bool {
	j := 0
	for i := 1; i < len(kids); i++ {
		if j = gallop(parents, j, kids[i-1]+1); j == len(parents) || parents[j] > kids[i] {
			return false
		}
	}
	return true
}

// SemiJoinIn is AncestorsIn restricted to outer, a set of instances of
// sums — SemiJoinAncestor without asking the tree where a subtree ends.
// Each step places one inner node by Nearest and gallops both sides past
// what that rules out: a logarithm per element of the smaller side, and a
// lone inner node costs the same wherever in outer its ancestor is.
func SemiJoinIn(sums []*storage.SummaryNode, outer, inner NodeSet) NodeSet {
	pos := make([]int, len(sums))
	var out NodeSet
	i := 0
	for j := 0; j < len(inner); {
		k, p := Nearest(sums, pos, inner[j])
		if k < 0 {
			j++
			continue
		}
		a := sums[k].Extent[p]
		if i = gallop(outer, i, a); i < len(outer) && outer[i] == a {
			out = append(out, a)
			i++
		}
		if i == len(outer) {
			break
		}
		// No outer node lies in [a, outer[i]) but a itself, and the
		// ancestors of the inner nodes before outer[i] all do.
		j = gallop(inner, j+1, outer[i])
	}
	return out
}

// SemiJoinAncestor returns the input (outer) nodes whose subtree
// contains at least one inner node — a structural semi-join via a
// linear merge over the pre/post intervals, for any outer set. The query
// path, whose outer sets are instances of known summary nodes, uses
// SemiJoinIn, which the property tests hold to this one.
func SemiJoinAncestor(s *storage.Store, outer, inner NodeSet) NodeSet {
	if len(inner) == 0 {
		return nil
	}
	// An outer node past the last inner node cannot cover it; clamping
	// keeps the bulk end lookup proportional to the useful range.
	hi := sort.Search(len(outer), func(k int) bool { return outer[k] > inner[len(inner)-1] })
	outer = outer[:hi]
	ends := make([]storage.NodeID, len(outer))
	s.SubtreeEndBulk(outer, ends)
	var out NodeSet
	j := 0
	for i, a := range outer {
		for j < len(inner) && inner[j] < a {
			j++
		}
		if j < len(inner) && inner[j] <= ends[i] {
			out = append(out, a)
		}
	}
	return out
}

// Pair is a joined node pair.
type Pair struct{ A, B storage.NodeID }

// ContEq is ContAccess with an equality criterion evaluated in the
// compressed domain: the document-order set of owner nodes whose value
// equals probe. Works for every codec with eq capability; falls back to
// a decompressing scan otherwise.
func ContEq(c *storage.Container, probe []byte) (NodeSet, error) {
	if c.Codec().Props().Eq {
		m, err := c.FindEq(probe)
		if err != nil {
			// Encoding errors mean the probe value cannot occur in this
			// container at all.
			return nil, nil
		}
		ids := make([]storage.NodeID, 0, m.Count())
		for i := 0; i < m.Count(); i++ {
			ids = append(ids, c.Owner(m.At(i)))
		}
		return SortUnique(ids), nil
	}
	return ContFilter(c, func(plain []byte) bool { return bytes.Equal(plain, probe) })
}

// ContRange is ContAccess with an interval criterion. For
// order-preserving codecs it is a binary search plus a slice of the
// sorted records (zero decompression); otherwise it decompresses and
// scans.
func ContRange(c *storage.Container, lo []byte, loInc bool, hi []byte, hiInc bool) (NodeSet, error) {
	l, h, err := c.FindRange(lo, loInc, hi, hiInc)
	if err == nil {
		ids := make([]storage.NodeID, 0, h-l)
		for i := l; i < h; i++ {
			ids = append(ids, c.Owner(i))
		}
		return SortUnique(ids), nil
	}
	if err != storage.ErrNeedsDecompression {
		return nil, err
	}
	// Order-agnostic codec: records are plaintext-sorted, so a binary
	// search decoding O(log n) probes replaces a full container scan.
	l, h, err = c.FindRangeDecoding(lo, loInc, hi, hiInc)
	if err != nil {
		return nil, err
	}
	ids := make([]storage.NodeID, 0, h-l)
	for i := l; i < h; i++ {
		ids = append(ids, c.Owner(i))
	}
	return SortUnique(ids), nil
}

// ContFilter is the ContScan operator followed by an explicit
// Decompress and a selection: it decodes every record and keeps the
// owners whose plaintext satisfies pred. This is the fallback the cost
// model charges for (cases i–iii).
func ContFilter(c *storage.Container, pred func(plain []byte) bool) (NodeSet, error) {
	sc := storage.NewScratch()
	defer sc.Release()
	var ids []storage.NodeID
	for i := 0; i < c.Len(); i++ {
		buf, err := c.DecodeScratch(sc, i)
		if err != nil {
			return nil, err
		}
		if pred(buf) {
			ids = append(ids, c.Owner(i))
		}
	}
	return SortUnique(ids), nil
}

// ContMatch is the ContScan operator on compressed bytes: it keeps the
// owners of the records whose encoded value match accepts, decoding
// none. match's error ends the scan.
func ContMatch(c *storage.Container, match func(enc []byte) (bool, error)) (NodeSet, error) {
	var ids []storage.NodeID
	for i := 0; i < c.Len(); i++ {
		ok, err := match(c.Value(i))
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, c.Owner(i))
		}
	}
	return SortUnique(ids), nil
}

// SameModel reports whether two containers share a source model, the
// precondition for comparing their compressed values directly (§3's
// case (ii) otherwise).
func SameModel(a, b *storage.Container) bool {
	return a.Group == b.Group && a.Codec() == b.Codec()
}

// MergeJoinContainers is the compressed-domain equality merge join of
// §4 (the Q9 plan): both containers are in value order, share a source
// model and an order-preserving codec, so equal plaintexts have equal
// compressed bytes and one linear pass joins them without any
// decompression.
func MergeJoinContainers(a, b *storage.Container) ([]Pair, error) {
	if !SameModel(a, b) || !a.Codec().Props().OrderPreserving {
		return nil, storage.ErrNeedsDecompression
	}
	var out []Pair
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		cmp := bytes.Compare(a.Value(i), b.Value(j))
		switch {
		case cmp < 0:
			i++
		case cmp > 0:
			j++
		default:
			// emit the cross product of the two equal runs
			v := a.Value(i)
			iEnd := i
			for iEnd < a.Len() && bytes.Equal(a.Value(iEnd), v) {
				iEnd++
			}
			jEnd := j
			for jEnd < b.Len() && bytes.Equal(b.Value(jEnd), v) {
				jEnd++
			}
			for x := i; x < iEnd; x++ {
				for y := j; y < jEnd; y++ {
					out = append(out, Pair{A: a.Owner(x), B: b.Owner(y)})
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out, nil
}

// HashJoinContainers joins two containers on value equality when their
// compressed forms are not directly comparable: the smaller side is
// decompressed into a hash table, the larger side probes it (decoding
// as it scans).
func HashJoinContainers(a, b *storage.Container) ([]Pair, error) {
	swapped := false
	if b.Len() < a.Len() {
		a, b = b, a
		swapped = true
	}
	table := make(map[string][]storage.NodeID, a.Len())
	sc := storage.NewScratch()
	defer sc.Release()
	for i := 0; i < a.Len(); i++ {
		buf, err := a.DecodeScratch(sc, i)
		if err != nil {
			return nil, err
		}
		table[string(buf)] = append(table[string(buf)], a.Owner(i))
	}
	var out []Pair
	for j := 0; j < b.Len(); j++ {
		buf, err := b.DecodeScratch(sc, j)
		if err != nil {
			return nil, err
		}
		for _, owner := range table[string(buf)] {
			if swapped {
				out = append(out, Pair{A: b.Owner(j), B: owner})
			} else {
				out = append(out, Pair{A: owner, B: b.Owner(j)})
			}
		}
	}
	return out, nil
}

// JoinContainers picks the merge join when the compressed domain allows
// it and falls back to the hash join otherwise — the alternative the
// optimizer weighs in Fig. 5-style plans.
func JoinContainers(a, b *storage.Container) ([]Pair, bool, error) {
	if pairs, err := MergeJoinContainers(a, b); err == nil {
		return pairs, true, nil
	}
	pairs, err := HashJoinContainers(a, b)
	return pairs, false, err
}
