// Package xgrind reimplements the XGrind compression model (Tolani &
// Haritsa, ICDE 2002) as a comparator: compression is *homomorphic* —
// the compressed document is still a document, with dictionary-coded
// tags and each value Huffman-coded in place with a per-path source
// model. Exact-match and prefix queries evaluate on compressed values,
// but the only evaluation strategy is a full top-down scan of the
// compressed stream (the §2.3 contrast with XQueC's container access),
// and inequality predicates require decompressing every candidate.
package xgrind

import (
	"bytes"
	"fmt"
	"strings"

	"xquec/internal/compress"
	"xquec/internal/compress/huffman"
	"xquec/internal/xmlparser"
)

// stream opcodes
const (
	opStart = 0x01
	opEnd   = 0x02
	opText  = 0x03 // path index + length-prefixed huffman bytes
	opAttr  = 0x04 // name code + path index + length-prefixed huffman bytes
)

// Document is an XGrind-compressed document.
type Document struct {
	Names  []string
	Paths  []string // value path per model index
	Models []*huffman.Codec
	Stream []byte
	rawLen int
}

// Compress performs the two XGrind passes: collect per-path frequency
// models, then emit the homomorphic compressed stream.
func Compress(src []byte) (*Document, error) {
	d := &Document{rawLen: len(src)}
	nameIdx := map[string]int{}
	intern := func(n string) int {
		if i, ok := nameIdx[n]; ok {
			return i
		}
		nameIdx[n] = len(d.Names)
		d.Names = append(d.Names, n)
		return len(d.Names) - 1
	}
	// Pass 1: gather values per path.
	pathIdx := map[string]int{}
	var samples [][][]byte
	collect := func(path string, v []byte) int {
		i, ok := pathIdx[path]
		if !ok {
			i = len(samples)
			pathIdx[path] = i
			samples = append(samples, nil)
			d.Paths = append(d.Paths, path)
		}
		samples[i] = append(samples[i], bytes.Clone(v))
		return i
	}
	var path []string
	p := xmlparser.NewParser(src)
	err := p.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			path = append(path, string(ev.Name))
			for _, at := range ev.Attrs {
				collect(strings.Join(path, "/")+"/@"+string(at.Name), at.Value)
			}
		case xmlparser.EventEndElement:
			path = path[:len(path)-1]
		case xmlparser.EventText:
			collect(strings.Join(path, "/")+"/#text", ev.Text)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.Models = make([]*huffman.Codec, len(samples))
	for i, s := range samples {
		m, err := huffman.Train(s)
		if err != nil {
			return nil, err
		}
		d.Models[i] = m
	}
	// Pass 2: emit the stream.
	path = path[:0]
	var enc []byte
	p2 := xmlparser.NewParser(src)
	err = p2.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			path = append(path, string(ev.Name))
			d.Stream = append(d.Stream, opStart)
			d.Stream = compress.AppendUvarint(d.Stream, uint64(intern(string(ev.Name))))
			for _, at := range ev.Attrs {
				pi := pathIdx[strings.Join(path, "/")+"/@"+string(at.Name)]
				var err error
				enc, err = d.Models[pi].Encode(enc[:0], at.Value)
				if err != nil {
					return err
				}
				d.Stream = append(d.Stream, opAttr)
				d.Stream = compress.AppendUvarint(d.Stream, uint64(intern("@"+string(at.Name))))
				d.Stream = compress.AppendUvarint(d.Stream, uint64(pi))
				d.Stream = compress.AppendBytes(d.Stream, enc)
			}
		case xmlparser.EventEndElement:
			d.Stream = append(d.Stream, opEnd)
			path = path[:len(path)-1]
		case xmlparser.EventText:
			pi := pathIdx[strings.Join(path, "/")+"/#text"]
			var err error
			enc, err = d.Models[pi].Encode(enc[:0], ev.Text)
			if err != nil {
				return err
			}
			d.Stream = append(d.Stream, opText)
			d.Stream = compress.AppendUvarint(d.Stream, uint64(pi))
			d.Stream = compress.AppendBytes(d.Stream, enc)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// CompressedSize includes the stream, the dictionaries and the models.
func (d *Document) CompressedSize() int {
	n := len(d.Stream) + 16
	for _, s := range d.Names {
		n += len(s) + 1
	}
	for _, s := range d.Paths {
		n += len(s) + 1
	}
	for _, m := range d.Models {
		n += m.ModelSize()
	}
	return n
}

// CompressionFactor is 1 - compressed/original.
func (d *Document) CompressionFactor() float64 {
	if d.rawLen == 0 {
		return 0
	}
	return 1 - float64(d.CompressedSize())/float64(d.rawLen)
}

// Match is one exact-match query hit.
type Match struct {
	Path  string
	Value string
}

// scanState is the cursor of a top-down stream scan.
type scanState struct {
	d    *Document
	pos  int
	path []int // tag codes
}

// ExactMatch evaluates the only query class XGrind handles natively: an
// exact-match (or prefix-match) comparison on one path, by scanning the
// entire compressed stream top-down and comparing compressed values.
// stats returns how many stream bytes were visited — all of them, which
// is the Figure-4 contrast.
func (d *Document) ExactMatch(pathPattern, value string, prefix bool) (hits []Match, visited int, err error) {
	steps := parsePattern(pathPattern)
	// Pre-encode the probe for every model on a matching path.
	probe := map[int][]byte{}
	prefixBits := map[int][]byte{}
	prefixLens := map[int]int{}
	for pi, p := range d.Paths {
		if !pathMatches(p, steps) {
			continue
		}
		if prefix {
			bits, n := d.Models[pi].EncodePrefix([]byte(value))
			prefixBits[pi] = bits
			prefixLens[pi] = n
		} else {
			enc, err := d.Models[pi].Encode(nil, []byte(value))
			if err != nil {
				return nil, 0, err
			}
			probe[pi] = enc
		}
	}
	s := scanState{d: d}
	var out []Match
	for s.pos < len(d.Stream) {
		op := d.Stream[s.pos]
		s.pos++
		switch op {
		case opStart:
			tc, err := s.uvarint()
			if err != nil {
				return nil, 0, err
			}
			s.path = append(s.path, int(tc))
		case opEnd:
			s.path = s.path[:len(s.path)-1]
		case opText, opAttr:
			if op == opAttr {
				if _, err := s.uvarint(); err != nil {
					return nil, 0, err
				}
			}
			pi, err := s.uvarint()
			if err != nil {
				return nil, 0, err
			}
			enc, err := s.bytes()
			if err != nil {
				return nil, 0, err
			}
			if prefix {
				if bits, ok := prefixBits[int(pi)]; ok &&
					huffman.MatchesPrefix(enc, bits, prefixLens[int(pi)]) {
					dec, err := d.Models[pi].Decode(nil, enc)
					if err != nil {
						return nil, 0, err
					}
					out = append(out, Match{Path: d.Paths[pi], Value: string(dec)})
				}
			} else if want, ok := probe[int(pi)]; ok && bytes.Equal(enc, want) {
				out = append(out, Match{Path: d.Paths[pi], Value: value})
			}
		default:
			return nil, 0, fmt.Errorf("xgrind: bad opcode %#x at %d", op, s.pos-1)
		}
	}
	return out, len(d.Stream), nil
}

// parsePattern splits a /-path into steps, keeping "" markers for //
// (descendant) axes.
func parsePattern(p string) []string {
	var steps []string
	i := 0
	for i < len(p) {
		if p[i] != '/' {
			break
		}
		i++
		if i < len(p) && p[i] == '/' {
			steps = append(steps, "")
			i++
		}
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		if j > i {
			steps = append(steps, p[i:j])
		}
		i = j
	}
	return steps
}

// pathMatches checks a container path against //-style steps ("*"
// wildcards allowed, a "" step means descendant).
func pathMatches(containerPath string, steps []string) bool {
	parts := strings.Split(strings.Trim(containerPath, "/"), "/")
	return matchSuffix(parts, steps)
}

func matchSuffix(parts, steps []string) bool {
	// simple recursive matcher supporting "" as //
	if len(steps) == 0 {
		return len(parts) == 0
	}
	if steps[0] == "" { // descendant
		for i := 0; i <= len(parts); i++ {
			if matchSuffix(parts[i:], steps[1:]) {
				return true
			}
		}
		return false
	}
	if len(parts) == 0 {
		return false
	}
	if steps[0] != "*" && steps[0] != parts[0] {
		return false
	}
	return matchSuffix(parts[1:], steps[1:])
}

func (s *scanState) uvarint() (uint64, error) {
	v, n, err := compress.ReadUvarint(s.d.Stream[s.pos:])
	s.pos += n
	return v, err
}

func (s *scanState) bytes() ([]byte, error) {
	b, n, err := compress.ReadBytes(s.d.Stream[s.pos:])
	s.pos += n
	return b, err
}

// Decompress reconstructs the document.
func (d *Document) Decompress() ([]byte, error) {
	var out []byte
	var stack []int
	pendingOpen := false
	closeOpen := func() {
		if pendingOpen {
			out = append(out, '>')
			pendingOpen = false
		}
	}
	s := scanState{d: d}
	var buf []byte
	for s.pos < len(d.Stream) {
		op := d.Stream[s.pos]
		s.pos++
		switch op {
		case opStart:
			closeOpen()
			tc, err := s.uvarint()
			if err != nil {
				return nil, err
			}
			out = append(out, '<')
			out = append(out, d.Names[tc]...)
			pendingOpen = true
			stack = append(stack, int(tc))
		case opAttr:
			nc, err := s.uvarint()
			if err != nil {
				return nil, err
			}
			pi, err := s.uvarint()
			if err != nil {
				return nil, err
			}
			enc, err := s.bytes()
			if err != nil {
				return nil, err
			}
			buf, err = d.Models[pi].Decode(buf[:0], enc)
			if err != nil {
				return nil, err
			}
			out = append(out, ' ')
			out = append(out, d.Names[nc][1:]...)
			out = append(out, '=', '"')
			out = xmlparser.EscapeAttr(out, string(buf))
			out = append(out, '"')
		case opText:
			closeOpen()
			pi, err := s.uvarint()
			if err != nil {
				return nil, err
			}
			enc, err := s.bytes()
			if err != nil {
				return nil, err
			}
			buf, err = d.Models[pi].Decode(buf[:0], enc)
			if err != nil {
				return nil, err
			}
			out = xmlparser.EscapeText(out, string(buf))
		case opEnd:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xgrind: unbalanced stream")
			}
			tc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if pendingOpen {
				out = append(out, '/', '>')
				pendingOpen = false
			} else {
				out = append(out, '<', '/')
				out = append(out, d.Names[tc]...)
				out = append(out, '>')
			}
		default:
			return nil, fmt.Errorf("xgrind: bad opcode %#x", op)
		}
	}
	return out, nil
}
