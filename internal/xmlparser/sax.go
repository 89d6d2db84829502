// Package xmlparser implements the XML substrate every system in this
// repository parses documents with: a from-scratch, allocation-conscious
// event (SAX-style) parser and a small DOM built on top of it. It covers
// the XML subset the paper's corpora use — elements, attributes,
// character data, CDATA, comments, processing instructions, the standard
// five entities and numeric character references. DTDs are skipped, not
// expanded.
package xmlparser

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// EventKind discriminates parser events.
type EventKind int

// Event kinds issued by the parser.
const (
	EventStartElement EventKind = iota
	EventEndElement
	EventText
	EventComment
	EventProcInst
)

// MaxDepth is the deepest element nesting the parser accepts: node
// levels are 16-bit throughout the repository, and a bound on the open
// element stack is what keeps a nesting bomb a syntax error.
const MaxDepth = 1<<16 - 1

// Attr is a decoded attribute. See Event for the lifetime of its slices.
type Attr struct {
	Name  []byte
	Value []byte
	// Decoded reports that Value held references and was assembled in
	// the parser's buffer instead of aliasing the document.
	Decoded bool
}

// Event is one parsing event. Name is set for start/end elements and
// processing instructions; Text for text, comments, and PI payloads;
// Attrs only for start elements.
//
// The event and every slice in it are valid only until the handler
// returns: the parser reuses the Event, and a Text or attribute Value
// marked Decoded lives in a buffer the next event overwrites. Everything
// else — names, comments, and text and values written without references
// or CDATA sections — is a view of the document itself, so a handler
// that keeps the document unchanged may keep those views and need only
// copy what is Decoded. Views are capped at their length; appending to
// one never writes into the document.
type Event struct {
	Kind  EventKind
	Name  []byte
	Text  []byte
	Attrs []Attr
	// Decoded reports that Text was assembled (references expanded,
	// CDATA sections joined) in the parser's buffer.
	Decoded bool
}

// Handler receives parser events. Returning an error aborts the parse.
type Handler func(ev *Event) error

// SyntaxError describes a malformed document.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: syntax error at byte %d: %s", e.Offset, e.Msg)
}

// Parser is a single-use streaming parser over an in-memory document.
// It is one loop over the bytes with an explicit stack of open element
// names, so nesting costs heap, not goroutine stack.
type Parser struct {
	src   []byte
	pos   int
	stack [][]byte // names of the open elements, views of src
	ev    Event    // the one event every callback receives
	buf   []byte   // decoded text or attribute values of the current event
	// WhitespaceText controls whether whitespace-only text nodes are
	// reported (default: dropped, matching how the paper's systems
	// treat ignorable whitespace).
	WhitespaceText bool
}

// NewParser returns a parser over src.
func NewParser(src []byte) *Parser {
	return &Parser{src: src}
}

// Parse runs the document through the handler.
func (p *Parser) Parse(h Handler) error {
	if err := p.prolog(); err != nil {
		return err
	}
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return p.errf("expected root element")
	}
	if err := p.startTag(h); err != nil {
		return err
	}
	if err := p.content(h); err != nil {
		return err
	}
	p.skipMisc()
	if p.pos != len(p.src) {
		return p.errf("trailing content after root element")
	}
	return nil
}

// Offset is the byte offset the parser has reached: inside a handler,
// just past the markup of the event being reported.
func (p *Parser) Offset() int { return p.pos }

func (p *Parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) emit(h Handler, kind EventKind, name, text []byte, decoded bool) error {
	p.ev.Kind, p.ev.Name, p.ev.Text, p.ev.Decoded = kind, name, text, decoded
	if kind != EventStartElement {
		p.ev.Attrs = p.ev.Attrs[:0]
	}
	return h(&p.ev)
}

func (p *Parser) skipSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// at reports whether the document continues with lit at the cursor.
func (p *Parser) at(lit string) bool {
	return len(p.src)-p.pos >= len(lit) && string(p.src[p.pos:p.pos+len(lit)]) == lit
}

// prolog consumes the XML declaration, doctype, comments and PIs before
// the root element.
func (p *Parser) prolog() error {
	for {
		p.skipSpace()
		var err error
		switch {
		case p.at("<?"):
			err = p.skipProcInst()
		case p.at("<!--"):
			err = p.skipComment()
		case p.at("<!DOCTYPE"):
			err = p.skipDoctype()
		case p.at("<!"):
			err = p.errf("unexpected markup in prolog")
		default:
			return nil // root element
		}
		if err != nil {
			return err
		}
	}
}

// skipMisc consumes trailing comments/PIs/whitespace after the root.
func (p *Parser) skipMisc() {
	for {
		p.skipSpace()
		switch {
		case p.at("<!--") && p.skipComment() == nil:
		case p.at("<?") && p.skipProcInst() == nil:
		default:
			return
		}
	}
}

// skipProcInst moves past the "<?…?>" at the cursor.
func (p *Parser) skipProcInst() error {
	end := bytes.Index(p.src[p.pos+2:], []byte("?>"))
	if end < 0 {
		return p.errf("unterminated processing instruction")
	}
	p.pos += 2 + end + 2
	return nil
}

// skipComment moves past the "<!--…-->" at the cursor.
func (p *Parser) skipComment() error {
	end := bytes.Index(p.src[p.pos+4:], []byte("-->"))
	if end < 0 {
		return p.errf("unterminated comment")
	}
	p.pos += 4 + end + 3
	return nil
}

func (p *Parser) skipDoctype() error {
	depth := 0
	for i := p.pos; i < len(p.src); i++ {
		switch p.src[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos = i + 1
				return nil
			}
		}
	}
	return p.errf("unterminated DOCTYPE")
}

// startTag parses the start or empty-element tag at the cursor's '<',
// reports it, and opens the element.
func (p *Parser) startTag(h Handler) error {
	if len(p.stack) >= MaxDepth {
		return p.errf("element depth exceeds %d", MaxDepth)
	}
	start := p.pos
	p.pos++ // consume '<'
	name, err := p.name()
	if err != nil {
		return err
	}
	p.ev.Attrs, p.buf = p.ev.Attrs[:0], p.buf[:0]
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return p.errf("unterminated start tag %q (opened at %d)", name, start)
		}
		switch p.src[p.pos] {
		case '>':
			p.pos++
			p.stack = append(p.stack, name)
			return p.emit(h, EventStartElement, name, nil, false)
		case '/':
			if p.pos+1 >= len(p.src) || p.src[p.pos+1] != '>' {
				return p.errf("malformed empty-element tag")
			}
			p.pos += 2
			if err := p.emit(h, EventStartElement, name, nil, false); err != nil {
				return err
			}
			return p.emit(h, EventEndElement, name, nil, false)
		default:
			a := Attr{}
			if a.Name, err = p.name(); err != nil {
				return err
			}
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '=' {
				return p.errf("attribute %q missing '='", a.Name)
			}
			p.pos++
			p.skipSpace()
			if a.Value, a.Decoded, err = p.attrValue(); err != nil {
				return err
			}
			p.ev.Attrs = append(p.ev.Attrs, a)
		}
	}
}

// content runs from just inside the root's start tag to just past its
// end tag: text runs, references, CDATA, comments, PIs and the tags of
// every descendant, the open ones on p.stack.
func (p *Parser) content(h Handler) error {
	src := p.src
	for len(p.stack) > 0 {
		// One text node: everything up to the next markup other than a
		// CDATA section, which joins the text around it. src[textStart:]
		// is the part of it not yet copied to p.buf; nothing is copied
		// unless a reference or a CDATA section makes the text differ
		// from the document.
		textStart, decoded := p.pos, false
		p.buf = p.buf[:0]
		for {
			end := len(src)
			lt := bytes.IndexByte(src[p.pos:], '<')
			if lt >= 0 {
				end = p.pos + lt
			}
			// A reference that parses holds no '<', so it ends before end.
			for {
				amp := bytes.IndexByte(src[p.pos:end], '&')
				if amp < 0 {
					break
				}
				p.pos += amp
				p.buf = append(p.buf, src[textStart:p.pos]...)
				var err error
				if p.buf, err = p.entity(p.buf); err != nil {
					return err
				}
				textStart, decoded = p.pos, true
			}
			p.pos = end
			if lt < 0 {
				return p.errf("unexpected end of document inside element %q", p.stack[len(p.stack)-1])
			}
			if p.pos+1 >= len(src) {
				return p.errf("truncated markup")
			}
			if src[p.pos+1] != '!' || p.at("<!--") {
				break
			}
			if !p.at("<![CDATA[") {
				return p.errf("unexpected markup")
			}
			p.buf = append(p.buf, src[textStart:p.pos]...)
			n := bytes.Index(src[p.pos+9:], []byte("]]>"))
			if n < 0 {
				return p.errf("unterminated CDATA section")
			}
			p.buf = append(p.buf, src[p.pos+9:p.pos+9+n]...)
			p.pos += 9 + n + 3
			textStart, decoded = p.pos, true
		}
		text := src[textStart:p.pos:p.pos]
		if decoded {
			p.buf = append(p.buf, text...)
			text = p.buf[:len(p.buf):len(p.buf)]
		}
		if len(text) > 0 && (p.WhitespaceText || !isAllSpace(text)) {
			if err := p.emit(h, EventText, nil, text, decoded); err != nil {
				return err
			}
		}

		var err error
		switch src[p.pos+1] {
		case '/':
			err = p.endTag(h)
		case '!':
			from := p.pos + 4
			if err = p.skipComment(); err == nil {
				err = p.emit(h, EventComment, nil, src[from:p.pos-3:p.pos-3], false)
			}
		case '?':
			from := p.pos + 2
			if err = p.skipProcInst(); err == nil {
				name, body := src[from:p.pos-2:p.pos-2], []byte(nil)
				if i := bytes.IndexAny(name, " \t\r\n"); i >= 0 {
					name, body = name[:i:i], bytes.TrimLeft(name[i:], " \t\r\n")
				}
				err = p.emit(h, EventProcInst, name, body, false)
			}
		default:
			err = p.startTag(h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// endTag parses the end tag at the cursor's "</", which must name the
// innermost open element, and closes it. The usual tag is compared with
// the open name in place.
func (p *Parser) endTag(h Handler) error {
	open := p.stack[len(p.stack)-1]
	if rest := p.src[p.pos+2:]; len(rest) > len(open) && bytes.HasPrefix(rest, open) && nameClass[rest[len(open)]] == 0 {
		p.pos += 2 + len(open)
	} else {
		p.pos += 2
		got, err := p.name()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, open) {
			return p.errf("mismatched end tag: got </%s>, want </%s>", got, open)
		}
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '>' {
		return p.errf("malformed end tag </%s>", open)
	}
	p.pos++
	p.stack = p.stack[:len(p.stack)-1]
	return p.emit(h, EventEndElement, open, nil, false)
}

// nameClass classifies bytes of XML names: nameStart may begin one,
// any non-zero class may continue one.
var nameClass = func() (t [256]uint8) {
	const nameStart, nameRest = 1, 2
	for b := range t {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_', b == ':':
			t[b] = nameStart
		case b >= 0x80: // permissive: any non-ASCII byte may appear in names
			t[b] = nameStart
		case b >= '0' && b <= '9', b == '-', b == '.':
			t[b] = nameRest
		}
	}
	return t
}()

// name parses an XML name.
func (p *Parser) name() ([]byte, error) {
	start := p.pos
	if p.pos < len(p.src) && nameClass[p.src[p.pos]] == 1 {
		p.pos++
		for p.pos < len(p.src) && nameClass[p.src[p.pos]] != 0 {
			p.pos++
		}
	}
	if p.pos == start {
		return nil, p.errf("expected name")
	}
	return p.src[start:p.pos:p.pos], nil
}

// attrValue parses a quoted attribute value with entity expansion. A
// value with references is assembled at the end of p.buf, after those of
// the tag's earlier attributes.
func (p *Parser) attrValue() (val []byte, decoded bool, err error) {
	if p.pos >= len(p.src) {
		return nil, false, p.errf("expected attribute value")
	}
	quote := p.src[p.pos]
	if quote != '"' && quote != '\'' {
		return nil, false, p.errf("attribute value must be quoted")
	}
	p.pos++
	start, mark := p.pos, len(p.buf)
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case quote:
			val = p.src[start:p.pos:p.pos]
			p.pos++
			if decoded {
				p.buf = append(p.buf, val...)
				val = p.buf[mark:len(p.buf):len(p.buf)]
			}
			return val, decoded, nil
		case '&':
			p.buf = append(p.buf, p.src[start:p.pos]...)
			if p.buf, err = p.entity(p.buf); err != nil {
				return nil, false, err
			}
			start, decoded = p.pos, true
		case '<':
			return nil, false, p.errf("'<' in attribute value")
		default:
			p.pos++
		}
	}
	return nil, false, p.errf("unterminated attribute value")
}

// entity decodes the entity reference at the cursor's '&' onto dst.
func (p *Parser) entity(dst []byte) ([]byte, error) {
	end := bytes.IndexByte(p.src[p.pos+1:min(p.pos+12, len(p.src))], ';')
	if end < 0 {
		return dst, p.errf("unterminated entity reference")
	}
	body := p.src[p.pos+1 : p.pos+1+end]
	p.pos += end + 2
	switch string(body) {
	case "lt":
		return append(dst, '<'), nil
	case "gt":
		return append(dst, '>'), nil
	case "amp":
		return append(dst, '&'), nil
	case "apos":
		return append(dst, '\''), nil
	case "quot":
		return append(dst, '"'), nil
	}
	if len(body) > 0 && body[0] == '#' {
		num, base := body[1:], 10
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			num, base = num[1:], 16
		}
		n, err := strconv.ParseUint(string(num), base, 32)
		if err != nil {
			return dst, p.errf("bad character reference &%s;", body)
		}
		return utf8.AppendRune(dst, rune(n)), nil
	}
	return dst, p.errf("unknown entity &%s;", body)
}

func isAllSpace(s []byte) bool {
	for _, b := range s {
		if !isSpace(b) {
			return false
		}
	}
	return true
}

// The escapers. A text value must not contain a raw '<' or '&' ('>' is
// escaped for the "]]>" case), a double-quoted attribute value no '<',
// '&' or '"'. The white space a conforming parser would normalize away
// goes out as a character reference too, so that what was stored is what
// is read back: '\r' anywhere (line-end handling turns it into '\n'),
// and '\t' and '\n' in attribute values (attribute-value normalization
// turns them into spaces).
var (
	escapes = [...]string{"", "&lt;", "&gt;", "&amp;", "&quot;", "&#9;", "&#10;", "&#13;"}
	// textEsc and attrEsc give, per byte, the index of its replacement
	// in escapes; 0 means the byte goes out as it is.
	textEsc = [256]uint8{'<': 1, '>': 2, '&': 3, '\r': 7}
	attrEsc = [256]uint8{'<': 1, '&': 3, '"': 4, '\t': 5, '\n': 6, '\r': 7}
)

// EscapeText appends the XML-escaped form of s (for text content).
func EscapeText[S string | []byte](dst []byte, s S) []byte {
	n := len(dst)
	return EscapeTextFrom(append(dst, s...), n)
}

// EscapeAttr appends the XML-escaped form of s (for attribute values,
// double-quoted).
func EscapeAttr[S string | []byte](dst []byte, s S) []byte {
	n := len(dst)
	return EscapeAttrFrom(append(dst, s...), n)
}

// EscapeTextFrom escapes dst[from:] in place as text content — for a
// value that was decoded straight into the output buffer.
func EscapeTextFrom(dst []byte, from int) []byte {
	return escapeFrom(dst, cleanText(dst, from), &textEsc)
}

// EscapeAttrFrom is EscapeTextFrom for a double-quoted attribute value.
func EscapeAttrFrom(dst []byte, from int) []byte {
	return escapeFrom(dst, cleanAttr(dst, from), &attrEsc)
}

// The word skips ahead of escapeFrom: eight bytes at a time, a word goes
// by when none of its bytes is one the table replaces. A byte equal to c
// is a zero byte of w^(c*ones), and hasZero is exact as a test for one;
// OR-ing bit 1 (bit 2) into every byte first folds '<' and '>' ('"' and
// '&', '\t' and '\r') into one comparison, matching no other byte.
const ones, highs = 0x0101010101010101, 0x8080808080808080

func hasZero(w uint64) uint64 { return (w - ones) &^ w & highs }

// cleanText returns the offset of the first word of b[i:] that holds a
// byte textEsc replaces, or of its tail shorter than a word.
func cleanText(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if hasZero((w|2*ones)^'>'*ones)|hasZero(w^'&'*ones)|hasZero(w^'\r'*ones) != 0 {
			break
		}
	}
	return i
}

// cleanAttr is cleanText for attrEsc.
func cleanAttr(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if hasZero((w|4*ones)^'&'*ones)|hasZero((w|4*ones)^'\r'*ones)|hasZero(w^'\n'*ones)|hasZero(w^'<'*ones) != 0 {
			break
		}
	}
	return i
}

// escapeFrom is the one escaper: a scan of dst[from:] that, for the
// usual value without a special byte, is all there is; otherwise dst
// grows by what the replacements add and the tail is expanded back to
// front, down to the first special — below it read and write position
// coincide again.
func escapeFrom(dst []byte, from int, esc *[256]uint8) []byte {
	extra := 0
	for _, b := range dst[from:] {
		if e := esc[b]; e != 0 {
			extra += len(escapes[e]) - 1
		}
	}
	if extra == 0 {
		return dst
	}
	r := len(dst) - 1
	dst = append(dst, make([]byte, extra)...)
	for w := len(dst); w != r+1; r-- {
		if e := esc[dst[r]]; e != 0 {
			w -= len(escapes[e])
			copy(dst[w:], escapes[e])
		} else {
			w--
			dst[w] = dst[r]
		}
	}
	return dst
}
