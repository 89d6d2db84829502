package partition

import (
	"bytes"
	"fmt"
)

// The concatenated corpus of a segment set is defined textually: the
// base document up to (excluding) its root close tag, then every later
// segment's root-element content in segment order, then the root close
// tag. Everything below the root is spliced verbatim, so a full
// re-ingest of Concat(docs...) parses to exactly the node sequence the
// per-segment evaluation merges — that equivalence is what the
// differential suite pins down.

// docParts is one document split around its root element.
type docParts struct {
	open      []byte // "<root ...>" start tag, '>'-terminated, never self-closing
	inner     []byte // root element content, verbatim
	root      string // root tag name
	selfClose bool   // the root was "<root/>"
	hasAttrs  bool   // the root start tag carries attributes
}

// splitDoc locates the root element of a well-formed document and
// splits it into start tag, content, and tag name. Prolog material
// (XML declaration, comments, DOCTYPE) before the root is skipped;
// trailing whitespace after the root close tag is tolerated.
func splitDoc(doc []byte) (docParts, error) {
	var p docParts
	i, err := skipProlog(doc)
	if err != nil {
		return p, err
	}
	if i >= len(doc) || doc[i] != '<' {
		return p, fmt.Errorf("partition: document has no root element")
	}
	// Tag name.
	j := i + 1
	for j < len(doc) && !isTagDelim(doc[j]) {
		j++
	}
	if j == i+1 {
		return p, fmt.Errorf("partition: document has no root element name")
	}
	p.root = string(doc[i+1 : j])
	// End of the start tag, honoring quoted attribute values.
	end, selfClose, err := scanTagEnd(doc, j)
	if err != nil {
		return p, err
	}
	p.selfClose = selfClose
	for k := j; k < end; k++ {
		if b := doc[k]; b != ' ' && b != '\t' && b != '\n' && b != '\r' && b != '/' {
			p.hasAttrs = true
			break
		}
	}
	if selfClose {
		if len(bytes.TrimRight(doc[end+1:], " \t\n\r")) != 0 {
			return p, fmt.Errorf("partition: trailing content after <%s/>", p.root)
		}
		// Normalize "<root .../>" to an open tag so callers can splice
		// content under it.
		open := append([]byte(nil), doc[i:end]...)
		open = append(bytes.TrimRight(open, "/ \t\n\r"), '>')
		p.open = open
		p.inner = nil
		return p, nil
	}
	p.open = doc[i : end+1]
	// The root close tag is the last markup of the document (modulo
	// trailing whitespace): "</root>" or "</root   >".
	rest := bytes.TrimRight(doc[end+1:], " \t\n\r")
	closeTag := []byte("</" + p.root)
	ci := bytes.LastIndex(rest, closeTag)
	if ci < 0 {
		return p, fmt.Errorf("partition: document root <%s> is never closed", p.root)
	}
	tail := bytes.TrimLeft(rest[ci+len(closeTag):], " \t\n\r")
	if !bytes.Equal(tail, []byte(">")) {
		return p, fmt.Errorf("partition: trailing content after </%s>", p.root)
	}
	p.inner = rest[:ci]
	return p, nil
}

// skipProlog advances past the XML declaration, comments, processing
// instructions, DOCTYPE and whitespace before the root start tag.
func skipProlog(doc []byte) (int, error) {
	i := 0
	for i < len(doc) {
		switch {
		case doc[i] == ' ' || doc[i] == '\t' || doc[i] == '\n' || doc[i] == '\r':
			i++
		case bytes.HasPrefix(doc[i:], []byte("<?")):
			e := bytes.Index(doc[i:], []byte("?>"))
			if e < 0 {
				return 0, fmt.Errorf("partition: unterminated processing instruction")
			}
			i += e + 2
		case bytes.HasPrefix(doc[i:], []byte("<!--")):
			e := bytes.Index(doc[i:], []byte("-->"))
			if e < 0 {
				return 0, fmt.Errorf("partition: unterminated comment")
			}
			i += e + 3
		case bytes.HasPrefix(doc[i:], []byte("<!DOCTYPE")):
			depth := 0
			j := i
			for ; j < len(doc); j++ {
				if doc[j] == '[' {
					depth++
				} else if doc[j] == ']' {
					depth--
				} else if doc[j] == '>' && depth <= 0 {
					break
				}
			}
			if j >= len(doc) {
				return 0, fmt.Errorf("partition: unterminated DOCTYPE")
			}
			i = j + 1
		default:
			return i, nil
		}
	}
	return 0, fmt.Errorf("partition: document has no root element")
}

// scanTagEnd finds the index of the '>' ending the start tag whose
// name ends at pos, honoring quoted attribute values. selfClose reports
// a "/>" ending; the returned index is the '>' itself.
func scanTagEnd(doc []byte, pos int) (end int, selfClose bool, err error) {
	var quote byte
	for i := pos; i < len(doc); i++ {
		b := doc[i]
		if quote != 0 {
			if b == quote {
				quote = 0
			}
			continue
		}
		switch b {
		case '"', '\'':
			quote = b
		case '>':
			return i, i > pos && doc[i-1] == '/', nil
		}
	}
	return 0, false, fmt.Errorf("partition: unterminated root start tag")
}

func isTagDelim(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '>' || b == '/'
}

// Concat builds the concatenated corpus of docs: the first document's
// root (tag, attributes and content) with every later document's root
// content appended under it, in order. All documents must share one
// root tag, and later documents' roots must carry no attributes (there
// is nowhere for them to go on the shared root).
func Concat(docs ...[]byte) ([]byte, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("partition: no documents to concatenate")
	}
	base, err := splitDoc(docs[0])
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, totalLen(docs))
	out = append(out, base.open...)
	out = append(out, base.inner...)
	for k, doc := range docs[1:] {
		p, err := splitDoc(doc)
		if err != nil {
			return nil, fmt.Errorf("partition: document %d: %w", k+1, err)
		}
		if p.root != base.root {
			return nil, fmt.Errorf("partition: document %d root <%s> does not match base root <%s>", k+1, p.root, base.root)
		}
		if p.hasAttrs {
			return nil, fmt.Errorf("partition: document %d root <%s> carries attributes (unsupported in a concatenation)", k+1, p.root)
		}
		out = append(out, p.inner...)
	}
	out = append(out, "</"...)
	out = append(out, base.root...)
	out = append(out, '>')
	return out, nil
}

func totalLen(docs [][]byte) int {
	n := 16
	for _, d := range docs {
		n += len(d)
	}
	return n
}
