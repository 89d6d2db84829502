package storage

import (
	"fmt"
	"iter"
	"math/bits"

	"xquec/internal/succinct"
	"xquec/internal/xmlparser"
)

// Kid is one child of a node in document order: an element/attribute
// child (ID != 0) or an immediate text value (ID == 0, Val set).
type Kid struct {
	ID  NodeID
	Val ValueRef
}

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
	bp     *succinct.BP
	pv     *succinct.Bitvector // the paren bitvector (bp's backing)
	isNode *succinct.Bitvector

	tags    []uint16 // tag code per node, tags[id-1]
	valCont []int32  // container index per text leaf
	valIdx  []int32  // record index per text leaf
}

// succinctArrays is the raw (directory-free) form of the encoding: what
// persists to disk and what the builders produce before rank/select
// and rmM construction.
type succinctArrays struct {
	parens  []uint64
	nParens int
	marks   []uint64 // isNode bits over open ordinals
	nOpens  int
	tags    []uint16
	valCont []int32
	valIdx  []int32

	// Optional shortcut directories (see succinct.BuildDirs). Nil means
	// derive at build time; persisted blobs carry them so opening a
	// repository skips the sequential pass.
	excBase []int32
	anc     []int32
}

// build freezes the arrays into a navigable structure.
func (a *succinctArrays) build() *SuccinctStructure {
	pv := succinct.NewBitvector(a.parens, a.nParens)
	var bp *succinct.BP
	if a.excBase != nil {
		bp = succinct.NewBPWithDirs(pv, a.excBase, a.anc)
	} else {
		bp = succinct.NewBP(pv)
	}
	return &SuccinctStructure{
		bp:      bp,
		pv:      pv,
		isNode:  succinct.NewBitvector(a.marks, a.nOpens),
		tags:    a.tags,
		valCont: a.valCont,
		valIdx:  a.valIdx,
	}
}

// arrays returns the raw encoding (shared backing, do not mutate).
func (t *SuccinctStructure) arrays() *succinctArrays {
	excBase, anc := t.bp.Directories()
	return &succinctArrays{
		parens:  t.pv.Words(),
		nParens: t.pv.Len(),
		marks:   t.isNode.Words(),
		nOpens:  t.isNode.Len(),
		tags:    t.tags,
		valCont: t.valCont,
		valIdx:  t.valIdx,
		excBase: excBase,
		anc:     anc,
	}
}

// numNodes returns the element+attribute node count.
func (t *SuccinctStructure) numNodes() int { return t.isNode.Ones() }

// openPos returns the paren position of the node's open paren.
func (t *SuccinctStructure) openPos(id NodeID) int {
	return t.pv.Select1(t.isNode.Select1(int(id) - 1))
}

// idAtOpen returns the NodeID of the element/attribute node whose open
// paren sits at position p.
func (t *SuccinctStructure) idAtOpen(p int) NodeID {
	ord := t.pv.Rank1(p)
	return NodeID(t.isNode.Rank1(ord) + 1)
}

// parent returns the parent node (0 for the root).
func (t *SuccinctStructure) parent(id NodeID) NodeID {
	q := t.bp.Enclose(t.openPos(id))
	if q < 0 {
		return 0
	}
	return t.idAtOpen(q)
}

// subtreeEnd returns the largest NodeID inside the subtree of id: the
// number of node opens before the matching close paren. The paren rank
// at the close is derived from the open ordinal k — the subtree
// [q, c] holds exactly (c-q+1)/2 opens — saving a Rank1.
func (t *SuccinctStructure) subtreeEnd(id NodeID) NodeID {
	k := t.isNode.Select1(int(id) - 1)
	q := t.pv.Select1(k)
	c := t.bp.FindCloseAt(q, 2*(k+1)-(q+1))
	return NodeID(t.isNode.Rank1(k + (c-q+1)/2))
}

// levelOf returns the node's depth (root = 1): the excess at its open,
// which falls out of the select pair as 2*(k+1) - (q+1).
func (t *SuccinctStructure) levelOf(id NodeID) uint16 {
	k := t.isNode.Select1(int(id) - 1)
	q := t.pv.Select1(k)
	return uint16(2*(k+1) - (q + 1))
}

// kidsScanBits bounds the subtree size (in parens) below which kids
// switches from the per-kid skip loop to one sequential scan of the
// subtree's open bits. Small subtrees — the overwhelming case — then
// cost a couple of ns per open with no per-kid rank or FindClose.
const kidsScanBits = 2048

// kids yields the node's children in document order. Small subtrees
// take kidsScan; larger ones the skip loop, where the open ordinal is
// tracked incrementally — a skipped kid subtree spanning parens
// [q, c] holds exactly (c-q+1)/2 opens — so each kid costs one
// isNode rank plus one FindClose, with no paren ranks at all.
func (t *SuccinctStructure) kids(id NodeID) iter.Seq[Kid] {
	return func(yield func(Kid) bool) {
		k := t.isNode.Select1(int(id) - 1) // open ordinal of id itself
		q := t.pv.Select1(k)
		c := t.bp.FindCloseAt(q, 2*(k+1)-(q+1))
		if c-q <= kidsScanBits {
			t.kidsScan(id, k, q, c, yield)
			return
		}
		q++
		ord := k + 1
		for t.pv.Get(q) {
			if t.isNode.Get(ord) {
				if !yield(Kid{ID: NodeID(t.isNode.Rank1(ord) + 1)}) {
					return
				}
				c := t.bp.FindCloseAt(q, 2*(ord+1)-(q+1))
				ord += (c - q + 1) / 2
				q = c + 1
			} else {
				v := ord - t.isNode.Rank1(ord)
				if !yield(Kid{Val: ValueRef{Container: t.valCont[v], Index: t.valIdx[v]}}) {
					return
				}
				ord++
				q += 2 // a text leaf is always "()"
			}
		}
	}
}

// kidsScan yields the children of the node with open ordinal k at
// paren position q and close at c by scanning the subtree's open bits
// word-at-a-time. No close tracking or per-kid rank is needed: the
// excess at the ord-th open at position p is 2*(ord+1)-(p+1), so a
// child is any open one level below the node, and pre-order ID
// consecutivity makes the running counts of marked/unmarked opens the
// next NodeID and text-leaf ordinal.
func (t *SuccinctStructure) kidsScan(id NodeID, k, q, c int, yield func(Kid) bool) {
	words := t.pv.Words()
	marks := t.isNode.Words()
	ord := k + 1
	kid := int(id)        // last NodeID assigned
	vord := k + 1 - kid   // unmarked opens before ordinal k+1
	target := 2*(k+1) - q // child excess: excess(q)+1
	w := (q + 1) >> 6
	word := words[w] & (^uint64(0) << uint((q+1)&63))
	for {
		for word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			if p >= c {
				return
			}
			word &= word - 1
			marked := marks[ord>>6]>>(uint(ord)&63)&1 == 1
			if marked {
				kid++
			}
			if 2*(ord+1)-(p+1) == target {
				if marked {
					if !yield(Kid{ID: NodeID(kid)}) {
						return
					}
				} else if !yield(Kid{Val: ValueRef{Container: t.valCont[vord], Index: t.valIdx[vord]}}) {
					return
				}
			}
			if !marked {
				vord++
			}
			ord++
		}
		w++
		if w<<6 >= c {
			return
		}
		word = words[w]
	}
}

// hasText reports whether the node has at least one immediate text
// value (for attribute nodes: the attribute value).
func (t *SuccinctStructure) hasText(id NodeID) bool {
	k := t.isNode.Select1(int(id) - 1)
	q := t.pv.Select1(k) + 1
	ord := k + 1
	for t.pv.Get(q) {
		if !t.isNode.Get(ord) {
			return true
		}
		c := t.bp.FindCloseAt(q, 2*(ord+1)-(q+1))
		ord += (c - q + 1) / 2
		q = c + 1
	}
	return false
}

// text appends the node's immediate text values, decoded: hasText's
// walk over the children, decoding each text leaf it passes.
func (t *SuccinctStructure) text(conts []*Container, dst []byte, id NodeID) ([]byte, error) {
	k := t.isNode.Select1(int(id) - 1)
	q := t.pv.Select1(k) + 1
	ord := k + 1
	var err error
	for t.pv.Get(q) {
		if t.isNode.Get(ord) {
			c := t.bp.FindCloseAt(q, 2*(ord+1)-(q+1))
			ord += (c - q + 1) / 2
			q = c + 1
			continue
		}
		v := ord - t.isNode.Rank1(ord)
		if dst, err = conts[t.valCont[v]].Decode(dst, int(t.valIdx[v])); err != nil {
			return dst, err
		}
		ord++
		q += 2 // a text leaf is always "()"
	}
	return dst, nil
}

// sweep appends the subtree of id to dst in one forward pass over its
// paren range: as XML when markup is set (Store.Serialize), else as the
// element's string value — text leaves only, attribute children skipped
// (Store.DeepText). A subtree is a contiguous range whose node marks, tag
// codes and value refs are consumed strictly in order, so the pass keeps
// three running ordinals (pre-order consecutivity, as in kidsScan) and
// never selects, ranks or finds a close again after locating the open of
// id: a close paren pops the stack of open tag codes, and the pass ends
// when that empties. Values are decoded straight into dst and escaped
// there. The walk trusts that the parens balance, that a text leaf is
// "()", and that marks, tags, value refs and record indexes are in range
// — which deriveFromSuccinct proved of every structure that got here.
func (t *SuccinctStructure) sweep(names []string, conts []*Container, dst []byte, id NodeID, markup bool) ([]byte, error) {
	words, marks := t.pv.Words(), t.isNode.Words()
	ord := t.isNode.Select1(int(id) - 1) // ordinal of the next open paren
	p := t.pv.Select1(ord)               // position of the next paren
	node := int(id) - 1                  // marked opens before ord: index of the next tag
	leaf := ord - node                   // unmarked opens before ord: index of the next value ref
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
			name := names[code]
			attr = isAttrName(name)
			if markup {
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
				c := conts[t.valCont[leaf]]
				decoded++
				if dst, err = c.codec.Decode(dst, c.recs[t.valIdx[leaf]].Value); err != nil {
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

// footprintBytes returns (bp+directories, marks, tags+valrefs) resident
// sizes — the split Footprint reports.
func (t *SuccinctStructure) footprintBytes() (bp, marks, refs int) {
	bp = t.bp.FootprintBytes()
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
//     is inside that container, and no record is claimed by two nodes;
//   - the counts agree: opens, node marks, tags and value refs are all
//     consumed exactly.
//
// Navigation (Parent, SubtreeEnd, Kids) then agrees with this walk
// because its directories are rebuilt from, or checked against, the
// same paren bits (see succinct.NewBPWithDirs).
func (s *Store) deriveFromSuccinct() error {
	t := s.succ
	sum := &Summary{}
	s.Sum = sum
	contByPath := make(map[string]int32, len(s.Containers))
	for i, c := range s.Containers {
		contByPath[c.Path] = int32(i)
	}
	// Summary children are found by tag code (kids), never by name. Per
	// summary node, by ID: element children seen (the fan-out total) and
	// the summary node its instances' text values fall under.
	var kids childIndex
	type sumInfo struct {
		fan  int
		text *SummaryNode
	}
	var infos []sumInfo
	info := func(sn *SummaryNode) *sumInfo {
		for len(infos) <= int(sn.ID) {
			infos = append(infos, sumInfo{})
		}
		return &infos[sn.ID]
	}

	// textNode resolves, once per summary node, where the values of its
	// instances live: the node itself for an attribute, its #text child
	// for an element — and the container that path names.
	textNode := func(sn *SummaryNode) (*SummaryNode, error) {
		vsn := sn
		if !isAttrName(sn.Tag) {
			vsn = kids.addText(sum, sn)
		}
		if vsn.Container < 0 {
			ci, ok := contByPath[vsn.Path()]
			if !ok {
				return nil, fmt.Errorf("storage: no container for path %s", vsn.Path())
			}
			vsn.Container = ci
		}
		return vsn, nil
	}

	type sframe struct {
		id   NodeID
		sn   *SummaryNode
		text bool // a text leaf of this instance has been seen
	}
	var stack []sframe
	ord, id, vord := 0, NodeID(0), 0
	n := t.pv.Len()
	for p := 0; p < n; p++ {
		if !t.pv.Get(p) {
			if len(stack) == 0 {
				return fmt.Errorf("storage: unbalanced structure parens at %d", p)
			}
			stack = stack[:len(stack)-1]
			continue
		}
		if ord >= t.isNode.Len() {
			return fmt.Errorf("storage: more opens than node marks")
		}
		if t.isNode.Get(ord) {
			id++
			if int(id) > len(t.tags) {
				return fmt.Errorf("storage: more nodes than tags")
			}
			tagCode := t.tags[id-1]
			if int(tagCode) >= len(s.Names) {
				return fmt.Errorf("storage: node %d has unknown tag %d", id, tagCode)
			}
			tag := s.Names[tagCode]
			var psn *SummaryNode
			if len(stack) > 0 {
				psn = stack[len(stack)-1].sn
			} else if id != 1 {
				return fmt.Errorf("storage: node %d outside the root subtree", id)
			}
			sn := kids.child(sum, psn, tagCode, tag)
			sn.Extent = append(sn.Extent, id)
			if psn != nil && !isAttrName(tag) {
				info(psn).fan++
			}
			stack = append(stack, sframe{id: id, sn: sn})
		} else {
			if len(stack) == 0 {
				return fmt.Errorf("storage: text leaf outside the root subtree")
			}
			if vord >= len(t.valIdx) {
				return fmt.Errorf("storage: more text leaves than value refs")
			}
			f := &stack[len(stack)-1]
			if !f.text {
				f.text = true
				f.sn.TextCount++
			}
			fi := info(f.sn)
			if fi.text == nil {
				var err error
				if fi.text, err = textNode(f.sn); err != nil {
					return err
				}
			}
			vsn := fi.text
			cont := s.Containers[vsn.Container]
			idx := int(t.valIdx[vord])
			if idx >= cont.Len() {
				return fmt.Errorf("storage: node %d value index %d out of range for %s", f.id, idx, cont.Path)
			}
			if owner := cont.recs[idx].Owner; owner != 0 && owner != f.id {
				return fmt.Errorf("storage: record %d of %s claimed by nodes %d and %d", idx, cont.Path, owner, f.id)
			}
			cont.recs[idx].Owner = f.id
			t.valCont[vord] = vsn.Container
			vord++
			if p+1 >= n || t.pv.Get(p+1) {
				return fmt.Errorf("storage: malformed text leaf at %d", p)
			}
			p++ // consume the leaf's close
		}
		ord++
	}
	if len(stack) != 0 {
		return fmt.Errorf("storage: unbalanced structure parens")
	}
	if int(id) != len(t.tags) || vord != len(t.valIdx) || ord != t.isNode.Len() {
		return fmt.Errorf("storage: structure section inconsistent (%d/%d nodes, %d/%d values)",
			id, len(t.tags), vord, len(t.valIdx))
	}

	for _, sn := range sum.Nodes() {
		sn.Count = len(sn.Extent)
		if sn.Count > 0 {
			sn.AvgFan = float64(info(sn).fan) / float64(sn.Count)
		}
	}
	return nil
}
