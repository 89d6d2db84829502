// Package algebra implements the physical operators of the XQueC query
// processor (§4): data-access operators over the compressed repository
// (ContScan, ContAccess, StructureSummaryAccess, Parent, TextContent and
// structural navigation, where a Child step is an extent range, Within),
// data-combination operators (merge joins, structural
// semi-joins) and the compression-aware operators (compressed-domain
// predicate evaluation, explicit Decompress). Operators are
// set-at-a-time: node sequences are kept in
// document order (ascending pre-order IDs), which is what lets path
// steps and structural joins run as linear merges without sorting —
// the order-preservation property §4 highlights.
package algebra

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
	"strconv"

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
// equals probe. The container's codec must have eq capability
// (Props().Eq).
func ContEq(c *storage.Container, probe []byte) (NodeSet, error) {
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

// Span is a stretch [Lo, Hi) of a container's records in value order:
// the records an equality or interval criterion selects, whose length is
// how many values match, with no owner read.
type Span struct{ Lo, Hi int }

// Len is the number of records in the span.
func (s Span) Len() int { return max(0, s.Hi-s.Lo) }

// Intersect returns the records in both spans: those two criteria on the
// same container both select.
func (s Span) Intersect(t Span) Span { return Span{max(s.Lo, t.Lo), min(s.Hi, t.Hi)} }

// EqSpan is ContEq without the owners: the records whose value equals
// probe, found on the compressed bytes. Equal values lie together in
// value order, and an order-agnostic codec's equality permutation lists
// them by record index, so the first match starts the span. A probe the
// codec cannot encode occurs in no record.
func EqSpan(c *storage.Container, probe []byte) Span {
	m, err := c.FindEq(probe)
	if err != nil || m.Count() == 0 {
		return Span{}
	}
	return Span{m.At(0), m.At(0) + m.Count()}
}

// RangeSpan is ContAccess with an interval criterion, without the owners:
// a binary search of the compressed records when the codec preserves
// order (zero decompression), else one decoding the O(log n) records it
// probes (Container.FindRange).
func RangeSpan(c *storage.Container, lo []byte, loInc bool, hi []byte, hiInc bool) (Span, error) {
	l, h, err := c.FindRange(lo, loInc, hi, hiInc)
	return Span{l, h}, err
}

// ContRange is ContAccess with an interval criterion: the owners of the
// records RangeSpan selects, in document order.
func ContRange(c *storage.Container, lo []byte, loInc bool, hi []byte, hiInc bool) (NodeSet, error) {
	s, err := RangeSpan(c, lo, loInc, hi, hiInc)
	if err != nil {
		return nil, err
	}
	ids := make([]storage.NodeID, 0, s.Len())
	for i := s.Lo; i < s.Hi; i++ {
		ids = append(ids, c.Owner(i))
	}
	return SortUnique(ids), nil
}

// ContFilter is the ContScan operator followed by an explicit
// Decompress and a selection: it decodes every record and keeps the
// owners whose plaintext satisfies pred. This is the fallback the cost
// model charges for (cases i–iii).
func ContFilter(c *storage.Container, pred func(plain []byte) bool) (NodeSet, error) {
	var buf []byte
	var ids []storage.NodeID
	for i := 0; i < c.Len(); i++ {
		var err error
		if buf, err = c.Decode(buf[:0], i); err != nil {
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
	records := func(c *storage.Container) []int32 {
		out := make([]int32, c.Len())
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	return mergeEqual(nil, a, b, records(a), records(b), func(x, y int32) int { return bytes.Compare(a.Value(int(x)), b.Value(int(y))) }), nil
}

// DecodedMergeJoin joins two containers on JoinContainers' equality by
// their decoded values: each side is decoded once, in record order, its
// values split into those that read as numbers (NaN left out: it equals
// nothing) and the others, and the two sides' numbers are merged in
// number order, their others in byte order.
func DecodedMergeJoin(a, b *storage.Container) ([]Pair, error) {
	da, err := decodeSorted(a)
	if err != nil {
		return nil, err
	}
	db, err := decodeSorted(b)
	if err != nil {
		return nil, err
	}
	out := mergeEqual(nil, a, b, da.text, db.text, func(x, y int32) int { return bytes.Compare(da.value(x), db.value(y)) })
	return mergeEqual(out, a, b, da.nums, db.nums, func(x, y int32) int { return cmp.Compare(da.num[x], db.num[y]) }), nil
}

// mergeEqual appends a pair of owners for every record x of xs (in a)
// and y of ys (in b) that compare equal, both lists sorted by compare.
func mergeEqual(out []Pair, a, b *storage.Container, xs, ys []int32, compare func(x, y int32) int) []Pair {
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		switch c := compare(xs[i], ys[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			iEnd, jEnd := i+1, j+1
			for iEnd < len(xs) && compare(xs[iEnd], ys[j]) == 0 {
				iEnd++
			}
			for jEnd < len(ys) && compare(xs[i], ys[jEnd]) == 0 {
				jEnd++
			}
			for _, x := range xs[i:iEnd] {
				for _, y := range ys[j:jEnd] {
					out = append(out, Pair{A: a.Owner(int(x)), B: b.Owner(int(y))})
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out
}

// decoded is one container's values decoded into one slab, value k at
// slab[end[k-1]:end[k]], and its records split: text, those whose values
// read as no number, in byte order; nums, those that read as numbers
// other than NaN, in number order (num holds each record's number).
type decoded struct {
	slab       []byte
	end        []int32
	num        []float64
	text, nums []int32
}

// value returns the decoded value of record k.
func (d *decoded) value(k int32) []byte {
	var from int32
	if k > 0 {
		from = d.end[k-1]
	}
	return d.slab[from:d.end[k]]
}

// decodeSorted decodes every record of c and splits and orders them: a
// string container's record order is byte order already, a typed one's
// is number order.
func decodeSorted(c *storage.Container) (*decoded, error) {
	d := &decoded{slab: make([]byte, 0, 2*c.CompressedBytes()), end: make([]int32, c.Len()), num: make([]float64, c.Len())}
	for i := range d.end {
		var err error
		if d.slab, err = c.Decode(d.slab, i); err != nil {
			return nil, err
		}
		d.end[i] = int32(len(d.slab))
		f, isNum := number(d.value(int32(i)))
		switch {
		case !isNum:
			d.text = append(d.text, int32(i))
		case f == f:
			d.num[i], d.nums = f, append(d.nums, int32(i))
		}
	}
	if c.Kind != storage.KindString {
		slices.SortStableFunc(d.text, func(x, y int32) int { return bytes.Compare(d.value(x), d.value(y)) })
	}
	slices.SortStableFunc(d.nums, func(x, y int32) int { return cmp.Compare(d.num[x], d.num[y]) })
	return d, nil
}

// number reads v as general comparison does: strconv.ParseFloat of v
// with its spaces trimmed. Only a value whose first byte can start a
// number — a sign, a point, a digit, "inf" or "nan" in any case — reaches
// ParseFloat, whose error allocates.
func number(v []byte) (float64, bool) {
	t := bytes.TrimSpace(v)
	switch {
	case len(t) == 0:
		return 0, false
	case '0' <= t[0] && t[0] <= '9' || t[0] == '+' || t[0] == '-' || t[0] == '.':
	case len(t) < 3 || !bytes.EqualFold(t[:3], []byte("inf")) && !bytes.EqualFold(t[:3], []byte("nan")):
		return 0, false
	}
	f, err := strconv.ParseFloat(string(t), 64)
	return f, err == nil
}

// JoinContainers joins two containers on the equality of a general
// comparison: two values that both read as numbers (number) are equal
// when their numbers are, and NaN equals nothing; any other two when
// their bytes are. It merges compressed bytes — decoding nothing — where
// byte equality is that equality (bytewise), and the decoded values
// otherwise; merged says which.
func JoinContainers(a, b *storage.Container) (pairs []Pair, merged bool, err error) {
	if bytewise(a, b) {
		if pairs, err := MergeJoinContainers(a, b); err == nil {
			return pairs, true, nil
		}
	}
	pairs, err = DecodedMergeJoin(a, b)
	return pairs, false, err
}

// bytewise reports that MergeJoinContainers joins a and b on
// JoinContainers' equality: they share an order-preserving source model,
// and either one holds no number (numberFree), or both are typed int or
// decimal, whose shared codec writes each number one way.
func bytewise(a, b *storage.Container) bool {
	if !SameModel(a, b) || !a.Codec().Props().OrderPreserving {
		return false
	}
	return numberFree(a) || numberFree(b) || a.Kind == b.Kind && (a.Kind == storage.KindInt || a.Kind == storage.KindDecimal)
}

// numberFree reports, from c's compressed bytes alone, that no value of
// c reads as a number: c is a string container in byte order, and the
// stretches of that order where a number's text can start hold no record
// — below ':' (a space, a sign, a point, a digit), "in" and "na" in any
// case (inf, nan) and from 0x80 (a Unicode space).
func numberFree(c *storage.Container) bool {
	if c.Kind != storage.KindString || !c.Codec().Props().OrderPreserving {
		return false
	}
	for _, r := range [][2]string{{"\x00", ":"}, {"\x80", "\xff"}, {"IN", "IO"}, {"In", "Io"}, {"iN", "iO"},
		{"in", "io"}, {"NA", "NB"}, {"Na", "Nb"}, {"nA", "nB"}, {"na", "nb"}} {
		if i, j, err := c.FindRange([]byte(r[0]), true, []byte(r[1]), false); err != nil || i < j {
			return false
		}
	}
	return true
}
