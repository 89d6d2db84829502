package engine

import (
	"strings"

	"xquec/internal/storage"
	"xquec/internal/xmlparser"
	"xquec/internal/xquery"
)

// xml is an item that is already its serialization: the bytes an
// emission template wrote for a constructed element whose value only goes
// to the output, or an item of a LET that is only written out as element
// content (appendEmitted). It has no string value, and no path navigates
// into it; a constructor whose value might be looked into is a *fragment.
type xml struct{ Data []byte }

// template is a direct element constructor compiled into the bytes it
// writes: literal markup, attribute text and literal content escaped once,
// at compile time, between the pieces only a binding can supply —
// attribute value templates, and content read from the store by
// Serialize/Text straight into the output buffer. Emitting one builds no
// *fragment and boxes no content item; the bytes are those of the
// fragment a ctorNode would build, serialized. A template is immutable and
// shared by every run of its program.
type template struct {
	// open writes `<name` and the attributes: literal runs between the
	// attribute value templates, whose atoms are escaped as they land.
	open []tplPiece
	// content is what goes between the tags; an element that gets no
	// content item is written `<name/>`.
	content []tplPiece
	close   []byte // `</name>`
}

// tplPiece is one step of a template: a literal run (lit), an expression
// whose value is written (x), or a nested element (elem).
type tplPiece struct {
	lit  []byte
	x    node
	elem *template
}

// template compiles a constructor into its emission template, lowering
// the expressions it writes under the variables in scope.
func (c *compiler) template(x *xquery.ElementCtor) *template {
	t := &template{close: []byte("</" + x.Name + ">")}
	lit := []byte("<" + x.Name)
	for _, a := range x.Attrs {
		lit = append(append(append(lit, ' '), a.Name...), '=', '"')
		for _, part := range a.Value {
			if s, isLit := part.(*xquery.StringLit); isLit {
				lit = xmlparser.EscapeAttr(lit, s.Val)
				continue
			}
			t.open = append(t.open, tplPiece{lit: lit}, tplPiece{x: c.lower(part)})
			lit = nil
		}
		lit = append(lit, '"')
	}
	t.open = append(t.open, tplPiece{lit: lit})
	for _, item := range x.Content {
		switch item := item.(type) {
		case *xquery.StringLit:
			// Whitespace-only literal chunks are boilerplate (ctorNode).
			if strings.TrimSpace(item.Val) != "" {
				t.content = append(t.content, tplPiece{lit: xmlparser.EscapeText(nil, item.Val)})
			}
		case *xquery.ElementCtor:
			t.content = append(t.content, tplPiece{elem: c.template(item)})
		default:
			t.content = append(t.content, tplPiece{x: c.lower(item)})
		}
	}
	return t
}

// shape reports the template's literal bytes and its dynamic pieces,
// nested elements included.
func (t *template) shape() (literal, dynamic int) {
	literal = len(t.close)
	for _, ps := range [][]tplPiece{t.open, t.content} {
		for _, p := range ps {
			literal += len(p.lit)
			switch {
			case p.x != nil:
				dynamic++
			case p.elem != nil:
				l, d := p.elem.shape()
				literal, dynamic = literal+l, dynamic+d
			}
		}
	}
	return literal, dynamic
}

// emitChunk caps the size of the buffers emitted items are cut from.
const emitChunk = 16 << 10

// emit writes one item of t and returns it as an *xml. Items are cut
// from buffers the run shares (out, and xmls for their headers), so an
// item costs no allocation of its own and stays valid after the next one:
// a buffer is never written below what it has handed out.
func (e *engine) emit(t *template) (Item, error) {
	start := e.room()
	out, err := e.emitElem(e.out, t)
	if err != nil {
		return nil, err
	}
	return e.cut(out, start), nil
}

// room starts a new buffer when the current one has less than an eighth
// of its size left — the first of 1 KB, each next one twice the last up
// to emitChunk, so a small result stays small — and returns where the
// next item starts.
func (e *engine) room() int {
	if c := cap(e.out); c == 0 || c-len(e.out) < c/8 {
		e.out = make([]byte, 0, min(max(2*c, 1<<10), emitChunk))
	}
	return len(e.out)
}

// cut hands out out[start:] as an item; out, which may have grown into a
// new array, is the buffer from now on.
func (e *engine) cut(out []byte, start int) Item {
	e.out = out
	if len(e.xmls) == cap(e.xmls) {
		e.xmls = make([]xml, 0, 64)
	}
	e.xmls = append(e.xmls, xml{Data: out[start:len(out):len(out)]})
	return &e.xmls[len(e.xmls)-1]
}

func (e *engine) emitElem(dst []byte, t *template) ([]byte, error) {
	var err error
	for _, p := range t.open {
		if p.x == nil {
			dst = append(dst, p.lit...)
			continue
		}
		mark := len(dst)
		if dst, err = e.appendAtoms(dst, p.x); err != nil {
			return dst, err
		}
		dst = xmlparser.EscapeAttrFrom(dst, mark)
	}
	mark, items := len(dst), 0
	dst = append(dst, '>')
	for _, p := range t.content {
		n := 1
		switch {
		case p.elem != nil:
			dst, err = e.emitElem(dst, p.elem)
		case p.x != nil:
			dst, n, err = p.x.content(e, dst)
		default:
			dst = append(dst, p.lit...)
		}
		if err != nil {
			return dst, err
		}
		items += n
	}
	if items == 0 {
		return append(dst[:mark], '/', '>'), nil
	}
	return append(dst, t.close...), nil
}

// appendContentNode writes a node as element content: its subtree when
// how is deepValue, else the escaped text a text() step selects.
func (e *engine) appendContentNode(dst []byte, id storage.NodeID, how valueRead) ([]byte, error) {
	if how == deepValue {
		return e.store.Serialize(&e.cur, dst, id)
	}
	mark := len(dst)
	dst, err := e.text(dst, id, how)
	return xmlparser.EscapeTextFrom(dst, mark), err
}

// appendContentItem writes an item as element content.
func (e *engine) appendContentItem(dst []byte, it Item) ([]byte, error) {
	if s, isStr := it.(string); isStr {
		return xmlparser.EscapeText(dst, s), nil
	}
	return serializeItem(dst, e.store, &e.cur, it)
}
