package xmlparser

import (
	"fmt"
	"strings"
)

// NodeKind discriminates DOM node kinds.
type NodeKind int

// DOM node kinds.
const (
	NodeElement NodeKind = iota
	NodeText
	NodeAttr
)

// Node is a DOM node. Attributes are ordinary child nodes of kind
// NodeAttr so path evaluation can treat @a uniformly, but they are kept
// in Attrs, not Children.
type Node struct {
	Kind     NodeKind
	Name     string // element or attribute name
	Text     string // text or attribute value
	Pos      int    // document-order position assigned by BuildDOM
	Parent   *Node
	Children []*Node
	Attrs    []*Node
}

// Document is a parsed XML document.
type Document struct {
	Root *Node
}

// BuildDOM parses src into a Document.
func BuildDOM(src []byte) (*Document, error) {
	var (
		root  *Node
		stack []*Node
		pos   int
	)
	nextPos := func() int {
		pos++
		return pos
	}
	p := NewParser(src)
	err := p.Parse(func(ev *Event) error {
		switch ev.Kind {
		case EventStartElement:
			n := &Node{Kind: NodeElement, Name: string(ev.Name), Pos: nextPos()}
			for _, a := range ev.Attrs {
				an := &Node{Kind: NodeAttr, Name: string(a.Name), Text: string(a.Value), Parent: n, Pos: nextPos()}
				n.Attrs = append(n.Attrs, an)
			}
			if len(stack) == 0 {
				if root != nil {
					return fmt.Errorf("xml: multiple root elements")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				n.Parent = top
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case EventEndElement:
			stack = stack[:len(stack)-1]
		case EventText:
			if len(stack) == 0 {
				return fmt.Errorf("xml: text outside root element")
			}
			top := stack[len(stack)-1]
			top.Children = append(top.Children, &Node{Kind: NodeText, Text: string(ev.Text), Parent: top, Pos: nextPos()})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("xml: empty document")
	}
	return &Document{Root: root}, nil
}

// Attr returns the value of the named attribute, or "" and false.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Text, true
		}
	}
	return "", false
}

// TextContent returns the concatenation of all descendant text nodes.
func (n *Node) TextContent() string {
	var sb strings.Builder
	n.appendText(&sb)
	return sb.String()
}

func (n *Node) appendText(sb *strings.Builder) {
	if n.Kind == NodeText {
		sb.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		c.appendText(sb)
	}
}

// Walk visits n and all descendants (elements and text; attributes via
// the element's Attrs) in document order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Serialize appends the XML form of the node to dst.
func (n *Node) Serialize(dst []byte) []byte {
	switch n.Kind {
	case NodeText:
		return EscapeText(dst, n.Text)
	case NodeAttr:
		dst = append(dst, n.Name...)
		dst = append(dst, '=', '"')
		dst = EscapeAttr(dst, n.Text)
		return append(dst, '"')
	}
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = a.Serialize(dst)
	}
	if len(n.Children) == 0 {
		return append(dst, '/', '>')
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = c.Serialize(dst)
	}
	dst = append(dst, '<', '/')
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

// Stats summarizes a document for Table 1 of the paper: size breakdown,
// node counts, depth, and the share of bytes held by values (the §1
// "values make up 70–80% of the document" measurement).
type Stats struct {
	Bytes         int // total document size
	Elements      int
	Attributes    int
	TextNodes     int
	ValueBytes    int // text + attribute value bytes
	MaxDepth      int
	DistinctNames int
	DistinctPaths int
}

// ValueShare returns ValueBytes / Bytes.
func (s Stats) ValueShare() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.ValueBytes) / float64(s.Bytes)
}

// CollectStats parses src and gathers document statistics.
func CollectStats(src []byte) (Stats, error) {
	st := Stats{Bytes: len(src)}
	names := map[string]bool{}
	paths := map[string]bool{}
	var path []string
	depth := 0
	p := NewParser(src)
	err := p.Parse(func(ev *Event) error {
		switch ev.Kind {
		case EventStartElement:
			st.Elements++
			names[string(ev.Name)] = true
			depth++
			path = append(path, string(ev.Name))
			paths[strings.Join(path, "/")] = true
			if depth > st.MaxDepth {
				st.MaxDepth = depth
			}
			for _, a := range ev.Attrs {
				st.Attributes++
				names["@"+string(a.Name)] = true
				paths[strings.Join(path, "/")+"/@"+string(a.Name)] = true
				st.ValueBytes += len(a.Value)
			}
		case EventEndElement:
			depth--
			path = path[:len(path)-1]
		case EventText:
			st.TextNodes++
			st.ValueBytes += len(ev.Text)
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	st.DistinctNames = len(names)
	st.DistinctPaths = len(paths)
	return st, nil
}
