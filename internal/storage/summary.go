package storage

import (
	"strings"
	"sync/atomic"
)

// SummaryNode is one node of the structure summary (§2.2): a distinct
// path of the document. It stores the document-order extent (IDs) of the
// instance nodes reachable by its path, and — for value paths — the
// container index. The summary is the entry point of path evaluation
// and is typically orders of magnitude smaller than the document.
type SummaryNode struct {
	ID        int32
	Tag       string // element name, "@name" for attributes
	Parent    *SummaryNode
	Children  []*SummaryNode
	Extent    []NodeID // document-order IDs of the instances
	Container int32    // container of this path's values, -1 if none
	// Cardinality statistics gathered at load time (§2.2, "other
	// indexes and statistics").
	Count int // == len(Extent)
	// TextCount is how many instances have at least one immediate text
	// value (an attribute always has its value): when it equals Count, a
	// text() step over this path keeps every instance. Derived by the same
	// sweeps that derive Extent, never persisted.
	TextCount int
	// records is how many records the node's container holds, 0 without
	// one. Derived with TextCount, never persisted.
	records int
	// shape memoizes Shape; nil until derived.
	shape atomic.Pointer[Shape]
}

// Shape is what the summary says of a summary node's values, for every
// fast path that reads values off the containers instead of the tree
// (the paper's ContAccess and ContScan answer a predicate per record only
// where a record is an instance's value).
type Shape struct {
	// Per parent: every instance of the summary parent has one or more
	// instances (Each), none has two (Single). For a #text node, of text
	// records.
	Each, Single bool
	// Value is the summary node whose one record is each instance's
	// whole string value, where one is: the node itself for an attribute
	// or a #text node, else the one #text below the element, reached
	// through elements that are Single, that holds one record per text
	// parent. It is nil when no instance has a text value (every string
	// value is "") or when Why says why no one record is the value.
	Value *SummaryNode
	Why   string
	// All: every instance has a Value record. Sole: that record is every
	// instance's only child, which Store.SoleText requires.
	All, Sole bool
}

// Shape returns s's value shape. It is derived from the extents, the
// text counts and the record counts on first use and memoized, never
// persisted — opening a store costs nothing for it; concurrent first uses
// derive the same answer.
func (s *SummaryNode) Shape() *Shape {
	if sh := s.shape.Load(); sh != nil {
		return sh
	}
	sh := s.deriveShape()
	s.shape.Store(sh)
	return sh
}

func (s *SummaryNode) deriveShape() *Shape {
	sh := &Shape{}
	switch {
	case s.Tag == "#text":
		p := s.Parent
		sh.Each, sh.Single = p.TextCount == p.Count, s.records == p.TextCount
		if !sh.Single {
			sh.Why = p.Path() + " has several text records under one node"
			return sh
		}
		sh.Value, sh.All = s, true
		return sh
	case s.Parent != nil:
		sh.Each, sh.Single = occurs(s.Extent, s.Parent.Extent)
	}
	if isAttrName(s.Tag) {
		sh.Value = s
		sh.All = s.records == s.Count
		sh.Sole = sh.All
		return sh
	}
	var txt *SummaryNode
	var walk func(n *SummaryNode) bool
	walk = func(n *SummaryNode) bool {
		for _, c := range n.Children {
			switch {
			case c.Tag == "#text" && txt != nil:
				return false
			case c.Tag == "#text":
				txt = c
			case !isAttrName(c.Tag) && !walk(c):
				return false
			}
		}
		return true
	}
	if !walk(s) {
		sh.Why = s.Path() + " has text at several paths"
		return sh
	}
	if txt == nil {
		return sh
	}
	for p := txt.Parent; p != s; p = p.Parent {
		if !p.Shape().Single {
			sh.Why = p.Path() + " repeats under one parent"
			return sh
		}
	}
	if ts := txt.Shape(); ts.Value == nil {
		sh.Why = ts.Why
		return sh
	}
	sh.Value = txt
	sh.All = txt.records == s.Count
	sh.Sole = sh.All && txt.Parent == s && len(s.Children) == 1
	return sh
}

// occurs merges the extents of a summary node and of its summary parent
// into Shape's Each and Single. Instances of one summary node never
// nest, so a kid's parent is the greatest parent instance before it.
func occurs(kids, parents []NodeID) (each, single bool) {
	each, single = len(kids) >= len(parents), true
	j := -1 // the parent instance of the previous kid
	for _, k := range kids {
		p := j
		for p+1 < len(parents) && parents[p+1] < k {
			p++
		}
		single = single && p != j
		each = each && p <= j+1
		j = p
	}
	return each && j == len(parents)-1, single
}

// Path returns the full path of the node, e.g. /site/people/person/@id.
func (s *SummaryNode) Path() string {
	n := 0
	for p := s; p != nil; p = p.Parent {
		n += 1 + len(p.Tag)
	}
	buf := make([]byte, n)
	for p := s; p != nil; p = p.Parent {
		n -= copy(buf[n-len(p.Tag):], p.Tag) + 1
		buf[n] = '/'
	}
	return string(buf)
}

// Summary is the structure summary tree.
type Summary struct {
	Root  *SummaryNode
	nodes []*SummaryNode // by ID
}

// scanKids is how many children of a summary node childIndex finds by
// scanning.
const scanKids = 16

// childIndex finds a summary node's child by the tag code of its
// instances, for the two sweeps that file every node of a document under
// its summary node (Load's SAX pass, deriveFromSuccinct): the first
// scanKids children by comparing codes, the rest through a map, so a
// parent with tens of thousands of distinct child names does not cost a
// scan of them — let alone a string comparison each — per instance.
type childIndex struct {
	code []int32 // by summary ID: tag code of the node's instances, -1 for a #text node
	wide map[[2]int32]*SummaryNode
}

// child returns the child of parent (the root when parent is nil) whose
// instances carry the tag code, adding it to sum under the name tag if
// there is none yet.
func (ix *childIndex) child(sum *Summary, parent *SummaryNode, code uint16, tag string) *SummaryNode {
	if parent == nil {
		if sum.Root == nil {
			ix.code = append(ix.code, int32(code))
			return sum.add(nil, tag)
		}
		return sum.Root
	}
	kids := parent.Children
	for _, c := range kids[:min(len(kids), scanKids)] {
		if ix.code[c.ID] == int32(code) {
			return c
		}
	}
	key := [2]int32{parent.ID, int32(code)}
	if len(kids) > scanKids {
		if c := ix.wide[key]; c != nil {
			return c
		}
	}
	ix.code = append(ix.code, int32(code))
	sn := sum.add(parent, tag)
	if len(parent.Children) > scanKids {
		if ix.wide == nil {
			ix.wide = map[[2]int32]*SummaryNode{}
		}
		ix.wide[key] = sn
	}
	return sn
}

// addText adds the #text child of an element's summary node; the sweeps
// remember it per parent, so there is no lookup.
func (ix *childIndex) addText(sum *Summary, parent *SummaryNode) *SummaryNode {
	ix.code = append(ix.code, -1)
	return sum.add(parent, "#text")
}

// deriveStats sets each node's Count and its record count, once the
// sweep that filed the document has left Extent, TextCount and the
// containers of the value paths in place.
func (s *Summary) deriveStats(conts []*Container) {
	for _, sn := range s.nodes {
		sn.Count = len(sn.Extent)
		if sn.Container >= 0 {
			sn.records = conts[sn.Container].Len()
		}
	}
}

// Nodes returns all summary nodes in creation (pre-order) order.
func (s *Summary) Nodes() []*SummaryNode { return s.nodes }

// child returns the child of parent with the given tag, or nil.
func (s *Summary) child(parent *SummaryNode, tag string) *SummaryNode {
	for _, c := range parent.Children {
		if c.Tag == tag {
			return c
		}
	}
	return nil
}

// add appends a new node under parent (the root when parent is nil).
func (s *Summary) add(parent *SummaryNode, tag string) *SummaryNode {
	n := &SummaryNode{ID: int32(len(s.nodes)), Tag: tag, Parent: parent, Container: -1}
	s.nodes = append(s.nodes, n)
	if parent == nil {
		s.Root = n
	} else {
		parent.Children = append(parent.Children, n)
	}
	return n
}

// Lookup resolves an absolute path like /site/people/person/@id to its
// summary node, or nil.
func (s *Summary) Lookup(path string) *SummaryNode {
	if s.Root == nil {
		return nil
	}
	parts := splitPath(path)
	if len(parts) == 0 || parts[0] != s.Root.Tag {
		return nil
	}
	cur := s.Root
	for _, p := range parts[1:] {
		cur = s.child(cur, p)
		if cur == nil {
			return nil
		}
	}
	return cur
}

func splitPath(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// FootprintBytes estimates the serialized size of the summary including
// extents — the §2.2 "structure summary ≈ 19% of the original document"
// measurement counts the extents, which dominate.
func (s *Summary) FootprintBytes() int {
	n := 0
	for _, sn := range s.nodes {
		n += len(sn.Tag) + 16 + 4*len(sn.Extent)
	}
	return n
}
