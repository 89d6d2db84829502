package storage

import (
	"fmt"
	"math/bits"

	"xquec/internal/succinct"
	"xquec/internal/xmlparser"
)

// SuccinctStructure is the balanced-parentheses encoding of the
// structure tree. Every tree node — element, attribute, and each
// immediate text value — is one paren pair in pre-order, so the parens
// capture the full document shape including text interleaving. A
// second bitvector over open-paren ordinals marks which opens are
// element/attribute nodes (the ones carrying NodeIDs); the rest are
// text leaves, whose pre-order ordinal indexes the value-ref arrays.
//
//	parens:  ( ( ( ) ) ( ) )        BP bits, 1=open
//	isNode:  1 1 0 1                 per open: node or text leaf
//	tags:    per node, pre-order     = NodeID order
//	valCont/valIdx: per text leaf, pre-order
type SuccinctStructure struct {
	pv     *succinct.Bitvector // the parens
	isNode *succinct.Bitvector

	tags    []uint16 // tag code per node, tags[id-1]
	valCont []int32  // container index per text leaf
	valIdx  []int32  // record index per text leaf
}

// succinctArrays is the raw (directory-free) form of the encoding: what
// persists to disk and what the builders produce before rank/select
// construction.
type succinctArrays struct {
	parens  []uint64
	nParens int
	marks   []uint64 // isNode bits over open ordinals
	nOpens  int
	tags    []uint16
	valCont []int32
	valIdx  []int32
}

// build freezes the arrays into a navigable structure.
func (a *succinctArrays) build() *SuccinctStructure {
	pv := succinct.NewBitvector(a.parens, a.nParens)
	return &SuccinctStructure{
		pv:      pv,
		isNode:  succinct.NewBitvector(a.marks, a.nOpens),
		tags:    a.tags,
		valCont: a.valCont,
		valIdx:  a.valIdx,
	}
}

// arrays returns the raw encoding (shared backing, do not mutate).
func (t *SuccinctStructure) arrays() *succinctArrays {
	return &succinctArrays{
		parens:  t.pv.Words(),
		nParens: t.pv.Len(),
		marks:   t.isNode.Words(),
		nOpens:  t.isNode.Len(),
		tags:    t.tags,
		valCont: t.valCont,
		valIdx:  t.valIdx,
	}
}

// numNodes returns the element+attribute node count.
func (t *SuccinctStructure) numNodes() int { return t.isNode.Ones() }

// TextCursor carries one run's position in the structure from one
// lookup to the next (Store.Text, TextRefs, HasText, SoleText, and the
// sweeps of Serialize and DeepText): a select scanner over the node
// marks, one over the parens, and the last node found — its NodeID, open
// ordinal k and, once asked for, paren position q. A lookup at or a
// little after the previous one in document order — the next binding of
// a FOR, the next owner of a text() step, the next subtree a FOR hands
// out — walks forward from there for a popcount or two; any other
// re-seeds with Select1, as a lookup without a cursor does. The zero value
// is ready. A cursor is tied to the structure it was last used on and
// starts over on any other; it must not be shared between goroutines.
type TextCursor struct {
	t             *SuccinctStructure
	marks, parens succinct.SelectScanner
	id            NodeID // the last node found, 0 for none
	k, q          int    // its open ordinal and open paren, q < 0 until asked for
}

// ordinal returns the open ordinal of id: through c when c is not nil,
// else with a cold Select1.
func (t *SuccinctStructure) ordinal(c *TextCursor, id NodeID) int {
	if c == nil {
		return t.isNode.Select1(int(id) - 1)
	}
	if c.t != t {
		*c = TextCursor{t: t, marks: succinct.NewSelectScanner(t.isNode), parens: succinct.NewSelectScanner(t.pv)}
	}
	if c.id != id {
		c.id, c.k, c.q = id, c.marks.Seek(int(id)-1), -1
	}
	return c.k
}

// leafWalk is a walk over one node's children that stops at its
// immediate text leaves: the paren position and open ordinal of the next
// child, and the node marks before that ordinal when known (-1 when not).
type leafWalk struct{ q, ord, nodes int }

// open returns the open ordinal and open paren of id: through c when c
// is not nil, else with two cold Select1s.
func (t *SuccinctStructure) open(c *TextCursor, id NodeID) (k, q int) {
	k = t.ordinal(c, id)
	if c == nil {
		return k, t.pv.Select1(k)
	}
	if c.q < 0 {
		c.q = c.parens.Seek(k)
	}
	return k, c.q
}

// leaves starts a leafWalk at the first child of id. The marks before it
// are id's own and those before id: id of them.
func (t *SuccinctStructure) leaves(c *TextCursor, id NodeID) leafWalk {
	k, q := t.open(c, id)
	return leafWalk{q: q + 1, ord: k + 1, nodes: int(id)}
}

// nextLeaf returns the value-ref index of the node's next immediate text
// leaf — its open ordinal less the node marks before it — or -1 at its
// close. An element or attribute child is skipped whole, its close found
// by the forward scan: its subtree spanning parens [q, c] holds exactly
// (c-q+1)/2 opens, and how many of them are marks is ranked for again
// only at the next leaf.
func (t *SuccinctStructure) nextLeaf(w *leafWalk) int {
	for t.pv.Get(w.q) {
		if !t.isNode.Get(w.ord) {
			if w.nodes < 0 {
				w.nodes = t.isNode.Rank1(w.ord)
			}
			v := w.ord - w.nodes
			w.ord++
			w.q += 2 // a text leaf is always "()"
			return v
		}
		c := t.pv.FindClose(w.q)
		w.ord += (c - w.q + 1) / 2
		w.q = c + 1
		w.nodes = -1
	}
	return -1
}

// hasText reports whether the node has at least one immediate text
// value (for attribute nodes: the attribute value).
func (t *SuccinctStructure) hasText(c *TextCursor, id NodeID) bool {
	w := t.leaves(c, id)
	return t.nextLeaf(&w) >= 0
}

// text appends the node's immediate text values, decoded.
func (t *SuccinctStructure) text(c *TextCursor, conts []*Container, dst []byte, id NodeID) ([]byte, error) {
	w := t.leaves(c, id)
	for v := t.nextLeaf(&w); v >= 0; v = t.nextLeaf(&w) {
		var err error
		if dst, err = conts[t.valCont[v]].Decode(dst, int(t.valIdx[v])); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// soleText appends the one value of id, an instance of a summary node
// whose Shape is Sole. Its only child is the text leaf at the next open
// ordinal, k+1, with the id marks of id and before it ahead of that: the
// value ref is k+1-id, found with the node-mark select alone.
func (t *SuccinctStructure) soleText(c *TextCursor, conts []*Container, dst []byte, id NodeID) ([]byte, error) {
	v := t.ordinal(c, id) + 1 - int(id)
	return conts[t.valCont[v]].Decode(dst, int(t.valIdx[v]))
}

// textRefs appends the references of the node's immediate text values —
// what text decodes — to dst.
func (t *SuccinctStructure) textRefs(c *TextCursor, dst []ValueRef, id NodeID) []ValueRef {
	w := t.leaves(c, id)
	for v := t.nextLeaf(&w); v >= 0; v = t.nextLeaf(&w) {
		dst = append(dst, ValueRef{Container: t.valCont[v], Index: t.valIdx[v]})
	}
	return dst
}

// sweep appends the subtree of id to dst in one forward pass over its
// paren range: as XML when markup is set (Store.Serialize), else as the
// element's string value — text leaves only, attribute children skipped
// (Store.DeepText). The open ordinal and open paren of id are located
// through the caller's cursor c (TextCursor) — subtrees handed out in
// document order each walk forward from the last — or, when c is nil,
// with two cold Select1s. A subtree is a contiguous range whose node
// marks, tag codes and value refs are consumed strictly in order, so the
// pass keeps three running ordinals (pre-order consecutivity: each open
// is the next tag or the next value ref) and never selects, ranks or
// finds a close again after locating the open of id: a close paren pops
// the stack of open tag codes, and the pass ends when that empties.
// Whether a tag is an attribute's is read from attrs, one bit per tag
// code. Values are decoded straight into dst and escaped there. The walk
// trusts that the parens balance, that a text leaf is "()", and that
// marks, tags, value refs and record indexes are in range — which
// deriveFromSuccinct proved of every structure that got here.
func (t *SuccinctStructure) sweep(c *TextCursor, names []string, attrs []uint64, conts []*Container, dst []byte, id NodeID, markup bool) ([]byte, error) {
	words, marks := t.pv.Words(), t.isNode.Words()
	ord, p := t.open(c, id) // ordinal and position of the next open paren
	node := int(id) - 1     // marked opens before ord: index of the next tag
	leaf := ord - node      // unmarked opens before ord: index of the next value ref
	var fixed [64]uint16
	stack := fixed[:0] // tag codes of the open nodes
	// tagOpen: the start tag of the innermost open element still lacks
	// its '>' — attributes may follow, and a close now makes it "/>".
	// attr: the innermost open node is an attribute.
	tagOpen, attr := false, false
	decoded := 0
	var err error
	for {
		if words[p>>6]>>(uint(p)&63)&1 == 0 {
			code := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if markup {
				switch {
				case attr:
					dst = append(dst, '"')
				case tagOpen:
					dst = append(dst, '/', '>')
					tagOpen = false
				default:
					dst = append(dst, '<', '/')
					dst = append(dst, names[code]...)
					dst = append(dst, '>')
				}
			}
			attr = false
			if len(stack) == 0 {
				break
			}
			p++
			continue
		}
		if marks[ord>>6]>>(uint(ord)&63)&1 == 1 {
			code := t.tags[node]
			node++
			attr = attrs[code>>6]>>(code&63)&1 == 1
			if markup {
				name := names[code]
				if attr {
					if len(stack) > 0 {
						dst = append(dst, ' ')
					}
					dst = append(dst, name[1:]...)
					dst = append(dst, '=', '"')
				} else {
					if tagOpen {
						dst = append(dst, '>')
					}
					dst = append(dst, '<')
					dst = append(dst, name...)
					tagOpen = true
				}
			}
			stack = append(stack, code)
			p++
		} else {
			if markup || !attr || len(stack) == 1 {
				if tagOpen && !attr {
					dst = append(dst, '>')
					tagOpen = false
				}
				from := len(dst)
				cont := conts[t.valCont[leaf]]
				decoded++
				if dst, err = cont.codec.Decode(dst, cont.vals[t.valIdx[leaf]]); err != nil {
					break
				}
				if markup {
					if attr {
						dst = xmlparser.EscapeAttrFrom(dst, from)
					} else {
						dst = xmlparser.EscapeTextFrom(dst, from)
					}
				}
			}
			leaf++
			p += 2 // a text leaf is always "()"
		}
		ord++
	}
	decodeOps.Add(int64(decoded))
	return dst, err
}

// scanNodes calls fn for every node in pre-order with its depth. The
// sweep walks the paren words directly, visiting only the set bits:
// the depth at an open needs no close tracking, since the excess at
// the k-th open paren at position p is 2*(k+1)-(p+1).
func (t *SuccinctStructure) scanNodes(fn func(id NodeID, level uint16)) {
	words := t.pv.Words()
	marks := t.isNode.Words()
	ord, id := 0, 0
	for w, word := range words {
		base := w << 6
		for word != 0 {
			p := base + bits.TrailingZeros64(word)
			word &= word - 1
			if marks[ord>>6]>>(uint(ord)&63)&1 == 1 {
				id++
				fn(NodeID(id), uint16(2*(ord+1)-(p+1)))
			}
			ord++
		}
	}
}

// footprintBytes returns (parens, marks, tags+valrefs) resident sizes,
// each bitvector with its rank/select directories — the split Footprint
// reports.
func (t *SuccinctStructure) footprintBytes() (bp, marks, refs int) {
	bp = t.pv.FootprintBytes()
	marks = t.isNode.FootprintBytes()
	refs = 2*len(t.tags) + 8*len(t.valCont)
	return
}

// deriveFromSuccinct rebuilds everything the succinct persist section
// leaves out — the structure summary with extents and stats, the
// container index of each value ref (path-implied), the container
// records' owner back-pointers — in one walk of the paren sequence with
// an explicit stack of open nodes. The input bytes are untrusted, and
// this walk is the whole proof that they describe a repository; every
// invariant the Validate oracle asserts holds by construction once it
// returns nil:
//
//   - one tree: the parens balance, and a node or text leaf met with the
//     stack empty is rejected unless it is node 1, so everything lies in
//     the root's subtree;
//   - parent precedes child: a node's parent is the stack top, opened
//     earlier, and IDs are handed out ascending — for the same reason
//     every subtree end lies in [id, nNodes], a child's ID exceeds its
//     parent's, and every summary extent is strictly increasing;
//   - labels in range: each node's tag indexes the dictionary;
//   - values resolve and are singly owned: a text leaf is exactly "()",
//     its container is the one its summary path names, its record index
//     is inside that container, no record is claimed by two nodes, and
//     every record of every container is claimed — a record no node owns
//     could be reached by no query, yet would count in every size;
//   - the counts agree: opens, node marks, tags and value refs are all
//     consumed exactly.
//
// The walk visits the opens only, reading the set bits of the paren
// words as scanNodes does: the closes between two opens pop the stack
// in one step. It holds no pointer: its stack frames name summary nodes
// by ID, what it learns per summary node — its instances with text, the
// container and owner slice of their values, which child followed
// which — sits in one array by summary ID, and each node's summary ID
// goes into a transient array. A counting pass over that array then cuts
// every extent from one arena of exactly one NodeID per node, each with
// its capacity at its length, so an append to one extent copies it
// instead of overwriting the next.
//
// Every later read — the text lookups, the serializing sweep, the bulk
// kernels — then agrees with this walk: each reads the same paren and
// mark bits forward, placed by the rank/select directories rebuilt from
// them at open. No directory is read from the file, and none but
// rank/select is built over the parens.
func (s *Store) deriveFromSuccinct() error {
	t := s.succ
	sum := &Summary{}
	s.Sum = sum
	contByPath := make(map[string]int32, len(s.Containers))
	for i, c := range s.Containers {
		contByPath[c.Path] = int32(i)
	}
	// Summary children are found by tag code (kids), never by name, and
	// mostly not even so: a node's summary node is usually its previous
	// sibling's again, or the one that followed that sibling's last time
	// (first, next), and kids is asked only when neither carries its tag.
	var kids childIndex
	type perSummary struct {
		// Guesses, as summary IDs: the element child that came first
		// under an earlier instance, and the sibling that came after an
		// earlier instance of this node; -1 for none.
		first, next int32
		texts       int32 // instances with a text leaf: TextCount
		// The container of the instances' text values and its owners,
		// cont -1 until the first leaf.
		cont   int32
		owners []NodeID
	}
	var per []perSummary
	grow := func() {
		for len(per) < len(sum.nodes) {
			per = append(per, perSummary{first: -1, next: -1, cont: -1})
		}
	}
	// resolve finds where the text values of sn's instances live: the
	// container its #text child's path (an attribute's own path) names.
	resolve := func(sn *SummaryNode) error {
		vsn := sn
		if !isAttrName(sn.Tag) {
			vsn = kids.addText(sum, sn)
			grow()
		}
		ci, ok := contByPath[vsn.Path()]
		if !ok {
			return fmt.Errorf("storage: no container for path %s", vsn.Path())
		}
		vsn.Container = ci
		per[sn.ID].cont, per[sn.ID].owners = ci, s.Containers[ci].owners
		return nil
	}

	type sframe struct {
		id      NodeID
		sn, kid int32 // summary IDs: the node's and its last element child's, -1 before one
		text    bool  // a text leaf of this instance has been seen
	}
	stack := make([]sframe, 0, 64)
	nNodes := len(t.tags)
	summaryOf := make([]int32, nNodes) // summary ID per node, by id-1
	words, marks, nMarks := t.pv.Words(), t.isNode.Words(), t.isNode.Len()
	ord, id, vord := 0, NodeID(0), 0
	owned := 0 // records claimed so far
	n := t.pv.Len()
	closed := 0 // parens before it are consumed; the rest up to the next open are closes
walk:
	for w, word := range words {
		for word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if p >= n {
				break walk
			}
			if k := p - closed; k > 0 {
				if k > len(stack) {
					return fmt.Errorf("storage: unbalanced structure parens at %d", closed+len(stack))
				}
				stack = stack[:len(stack)-k]
			}
			if ord >= nMarks {
				return fmt.Errorf("storage: more opens than node marks")
			}
			ord++
			if marks[(ord-1)>>6]>>(uint(ord-1)&63)&1 == 1 {
				id++
				if int(id) > nNodes {
					return fmt.Errorf("storage: more nodes than tags")
				}
				tagCode := t.tags[id-1]
				if int(tagCode) >= len(s.Names) {
					return fmt.Errorf("storage: node %d has unknown tag %d", id, tagCode)
				}
				var sn int32
				if len(stack) > 0 {
					f := &stack[len(stack)-1]
					guess := f.kid
					switch {
					case guess < 0:
						guess = per[f.sn].first
					case kids.code[guess] != int32(tagCode):
						guess = per[guess].next
					}
					if guess >= 0 && kids.code[guess] == int32(tagCode) {
						sn = guess
					} else {
						sn = kids.child(sum, sum.nodes[f.sn], tagCode, s.Names[tagCode]).ID
						grow()
						if f.kid < 0 {
							per[f.sn].first = sn
						} else {
							per[f.kid].next = sn
						}
					}
					f.kid = sn
				} else if id != 1 {
					return fmt.Errorf("storage: node %d outside the root subtree", id)
				} else {
					sn = kids.child(sum, nil, tagCode, s.Names[tagCode]).ID
					grow()
				}
				summaryOf[id-1] = sn
				stack = append(stack, sframe{id: id, sn: sn, kid: -1})
				closed = p + 1
				continue
			}
			if len(stack) == 0 {
				return fmt.Errorf("storage: text leaf outside the root subtree")
			}
			if vord >= len(t.valIdx) {
				return fmt.Errorf("storage: more text leaves than value refs")
			}
			f := &stack[len(stack)-1]
			ps := &per[f.sn]
			if !f.text {
				f.text = true
				ps.texts++
			}
			if ps.cont < 0 {
				if err := resolve(sum.nodes[f.sn]); err != nil {
					return err
				}
				ps = &per[f.sn] // resolve may have grown per
			}
			idx := int(t.valIdx[vord])
			if idx >= len(ps.owners) {
				return fmt.Errorf("storage: node %d value index %d out of range for %s", f.id, idx, s.Containers[ps.cont].Path)
			}
			switch owner := ps.owners[idx]; owner {
			case 0:
				ps.owners[idx] = f.id
				owned++
			case f.id:
			default:
				return fmt.Errorf("storage: record %d of %s claimed by nodes %d and %d", idx, s.Containers[ps.cont].Path, owner, f.id)
			}
			t.valCont[vord] = ps.cont
			vord++
			if q := p + 1; q >= n || words[q>>6]>>(uint(q)&63)&1 == 1 {
				return fmt.Errorf("storage: malformed text leaf at %d", p)
			}
			closed = p + 2 // the leaf's close
		}
	}
	if k := n - closed; k > len(stack) {
		return fmt.Errorf("storage: unbalanced structure parens at %d", closed+len(stack))
	} else if k < len(stack) {
		return fmt.Errorf("storage: unbalanced structure parens")
	}
	if int(id) != nNodes || vord != len(t.valIdx) || ord != nMarks {
		return fmt.Errorf("storage: structure section inconsistent (%d/%d nodes, %d/%d values)",
			id, nNodes, vord, len(t.valIdx))
	}
	records := 0
	for _, c := range s.Containers {
		records += c.Len()
	}
	if owned != records {
		return fmt.Errorf("storage: %d of %d container records belong to no node", records-owned, records)
	}

	// The extents: count each summary node's instances, then place the
	// IDs, ascending, at the running start of their summary node — which
	// leaves end[sn] at the end of sn's extent.
	end := make([]int32, len(sum.nodes)+1)
	for _, sn := range summaryOf {
		end[sn+1]++
	}
	for i := 1; i < len(end); i++ {
		end[i] += end[i-1]
	}
	arena := make([]NodeID, nNodes)
	for i, sn := range summaryOf {
		arena[end[sn]] = NodeID(i + 1)
		end[sn]++
	}
	sum.cutExtents(arena, end)
	for i, sn := range sum.nodes {
		sn.TextCount = int(per[i].texts)
	}

	sum.deriveStats(s.Containers)
	return nil
}

// cutExtents makes the extents of the summary nodes, in summary order,
// stretches of one arena: summary node i's ends at end[i]. Each has its
// capacity at its length, so an append to one extent — algebra hands
// extents out as node sets — copies it instead of overwriting the next.
func (sum *Summary) cutExtents(arena []NodeID, end []int32) {
	lo := int32(0)
	for i, sn := range sum.nodes {
		if hi := end[i]; hi > lo {
			sn.Extent = arena[lo:hi:hi]
			lo = hi
		}
	}
}
