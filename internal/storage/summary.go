package storage

import (
	"sort"
	"strings"
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
	// Cardinality/fan-out statistics gathered at load time (§2.2,
	// "other indexes and statistics").
	Count  int     // == len(Extent)
	AvgFan float64 // average number of element children per instance
	// TextCount is how many instances have at least one immediate text
	// value (an attribute always has its value): when it equals Count, a
	// text() step over this path keeps every instance. Derived by the same
	// sweeps that derive Extent, never persisted.
	TextCount int
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

// Nodes returns all summary nodes in creation (pre-order) order.
func (s *Summary) Nodes() []*SummaryNode { return s.nodes }

// NodeByID returns the summary node with the given ID.
func (s *Summary) NodeByID(id int32) *SummaryNode { return s.nodes[id] }

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

// Match returns, in pre-order, every summary node whose path matches the
// given step pattern. Steps are element names, "@attr", "#text", or "*";
// a step may be preceded by a descendant flag (the // axis).
func (s *Summary) Match(steps []PathStep) []*SummaryNode {
	if s.Root == nil {
		return nil
	}
	var out []*SummaryNode
	var walk func(n *SummaryNode, i int)
	seen := map[[2]int32]bool{} // (node, step) visited, for // recursion
	walk = func(n *SummaryNode, i int) {
		key := [2]int32{n.ID, int32(i)}
		if seen[key] {
			return
		}
		seen[key] = true
		if i == len(steps) {
			return
		}
		st := steps[i]
		if st.Descendant {
			// the step may match this node or any descendant
			for _, c := range n.Children {
				walk(c, i)
			}
		}
		if st.Name == "*" && !strings.HasPrefix(n.Tag, "@") && n.Tag != "#text" || st.Name == n.Tag {
			if i == len(steps)-1 {
				out = append(out, n)
			} else {
				for _, c := range n.Children {
					walk(c, i+1)
				}
			}
		}
	}
	// First step matches the root (or any node for //).
	walk(s.Root, 0)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return dedupSummary(out)
}

func dedupSummary(in []*SummaryNode) []*SummaryNode {
	out := in[:0]
	var prev *SummaryNode
	for _, n := range in {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

// PathStep is one step of an absolute path pattern.
type PathStep struct {
	Name       string // element name, @attr, #text, or *
	Descendant bool   // true if reached via //
}

// ParsePathPattern parses strings like /site//item/name or
// /site/people/person/@id into steps.
func ParsePathPattern(path string) []PathStep {
	var steps []PathStep
	i := 0
	for i < len(path) {
		if path[i] != '/' {
			break
		}
		desc := false
		i++
		if i < len(path) && path[i] == '/' {
			desc = true
			i++
		}
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		if j > i {
			steps = append(steps, PathStep{Name: path[i:j], Descendant: desc})
		}
		i = j
	}
	return steps
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
