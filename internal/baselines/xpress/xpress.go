// Package xpress reimplements the XPRESS compression model (Min, Park &
// Chung, SIGMOD 2003) as a comparator. Its signature idea is *reverse
// arithmetic encoding*: every element label is mapped to a sub-interval
// of [0,1) sized by its frequency, and an element's *path* is encoded
// by successively narrowing the label interval with the ancestor labels
// (in reverse, leaf first). A path query then reduces to interval
// containment on the single float carried by each start tag. Values
// are compressed with simple type-inferred encodings. Like XGrind, the
// encoding is homomorphic and the only evaluation strategy is a full
// top-down scan.
package xpress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"xquec/internal/compress"
	"xquec/internal/compress/huffman"
	"xquec/internal/xmlparser"
)

// stream opcodes
const (
	opStart = 0x01 // followed by the dyadic path code (uvarint k, uvarint m)
	opEnd   = 0x02
	opText  = 0x03 // followed by type byte + payload
	opAttr  = 0x04 // name code + type byte + payload
)

// value type tags
const (
	valString = 0x01 // length-prefixed huffman (global model)
	valInt    = 0x02 // ordered varint
	valFloat  = 0x03 // 8 bytes
)

// Interval is a sub-interval of [0,1).
type Interval struct{ Lo, Hi float64 }

// Contains reports interval containment.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x < iv.Hi }

// Document is an XPRESS-compressed document.
type Document struct {
	Names  []string
	NameIv []Interval // base interval per label, sized by frequency
	// PathIv holds the reverse-arithmetic code (as its dyadic interval)
	// of every distinct path; start tags carry the dense path ID. This
	// is the "minimum-length binary representation" of the original
	// system: the interval-containment query model is unchanged, only
	// the per-element bytes shrink.
	PathIv  []Interval
	Model   *huffman.Codec
	Stream  []byte
	rawLen  int
	nameIdx map[string]int
}

// Compress performs the XPRESS passes: label frequency statistics,
// interval assignment, then the homomorphic stream emission.
func Compress(src []byte) (*Document, error) {
	d := &Document{rawLen: len(src), nameIdx: map[string]int{}}
	// Pass 1: label frequencies and value sample.
	freq := map[string]int{}
	var values [][]byte
	p := xmlparser.NewParser(src)
	err := p.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			freq[string(ev.Name)]++
			for _, at := range ev.Attrs {
				freq["@"+string(at.Name)]++
				values = append(values, bytes.Clone(at.Value))
			}
		case xmlparser.EventText:
			values = append(values, bytes.Clone(ev.Text))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic label order.
	names := make([]string, 0, len(freq))
	for n := range freq {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := 0
	for _, n := range names {
		sum += freq[n]
	}
	lo := 0.0
	for _, n := range names {
		w := float64(freq[n]) / float64(sum)
		d.nameIdx[n] = len(d.Names)
		d.Names = append(d.Names, n)
		d.NameIv = append(d.NameIv, Interval{Lo: lo, Hi: lo + w})
		lo += w
	}
	if len(d.NameIv) > 0 {
		d.NameIv[len(d.NameIv)-1].Hi = 1.0
	}
	model, err := huffman.Train(values)
	if err != nil {
		return nil, err
	}
	d.Model = model

	// Pass 2: emit the stream. Each start tag carries the ID of its
	// path; the path's reverse arithmetic code lives in the header.
	var stack []Interval
	var pathKey []string
	pathID := map[string]int{}
	p2 := xmlparser.NewParser(src)
	var enc []byte
	emitValue := func(v string) error {
		if n, err2 := strconv.ParseInt(v, 10, 64); err2 == nil && strconv.FormatInt(n, 10) == v {
			d.Stream = append(d.Stream, valInt)
			d.Stream = binary.AppendVarint(d.Stream, n)
			return nil
		}
		if f, err2 := strconv.ParseFloat(v, 64); err2 == nil && strconv.FormatFloat(f, 'f', -1, 64) == v {
			d.Stream = append(d.Stream, valFloat)
			d.Stream = binary.BigEndian.AppendUint64(d.Stream, math.Float64bits(f))
			return nil
		}
		var err2 error
		enc, err2 = d.Model.Encode(enc[:0], []byte(v))
		if err2 != nil {
			return err2
		}
		d.Stream = append(d.Stream, valString)
		d.Stream = compress.AppendBytes(d.Stream, enc)
		return nil
	}
	err = p2.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			iv := d.pathInterval(string(ev.Name), stack)
			stack = append(stack, iv)
			pathKey = append(pathKey, string(ev.Name))
			key := strings.Join(pathKey, "/")
			pid, known := pathID[key]
			if !known {
				pid = len(d.PathIv)
				pathID[key] = pid
				k, m := dyadicCode(iv)
				scale := math.Pow(2, float64(k))
				d.PathIv = append(d.PathIv, Interval{Lo: float64(m) / scale, Hi: (float64(m) + 1) / scale})
			}
			d.Stream = append(d.Stream, opStart)
			d.Stream = compress.AppendUvarint(d.Stream, uint64(pid))
			for _, at := range ev.Attrs {
				d.Stream = append(d.Stream, opAttr)
				d.Stream = compress.AppendUvarint(d.Stream, uint64(d.nameIdx["@"+string(at.Name)]))
				if err := emitValue(string(at.Value)); err != nil {
					return err
				}
			}
		case xmlparser.EventEndElement:
			stack = stack[:len(stack)-1]
			pathKey = pathKey[:len(pathKey)-1]
			d.Stream = append(d.Stream, opEnd)
		case xmlparser.EventText:
			d.Stream = append(d.Stream, opText)
			return emitValue(string(ev.Text))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// pathInterval narrows the element's base interval by the parent's path
// interval — the reverse arithmetic encoding step: the resulting
// interval is contained in the base interval of every suffix of the
// reversed path, so "//a/b" queries become containment tests against
// b's interval narrowed by a.
func (d *Document) pathInterval(name string, stack []Interval) Interval {
	base := d.NameIv[d.nameIdx[name]]
	if len(stack) == 0 {
		return base
	}
	parent := stack[len(stack)-1]
	width := base.Hi - base.Lo
	return Interval{
		Lo: base.Lo + parent.Lo*width,
		Hi: base.Lo + parent.Hi*width,
	}
}

// dyadicCode finds the shortest dyadic interval [m/2^k, (m+1)/2^k)
// contained in iv — the minimum-length binary representation XPRESS
// stores per start tag instead of a full float.
func dyadicCode(iv Interval) (k int, m uint64) {
	width := iv.Hi - iv.Lo
	for k = 1; k < 62; k++ {
		scale := math.Pow(2, float64(k))
		if 1/scale > width {
			continue
		}
		m = uint64(math.Ceil(iv.Lo * scale))
		if (float64(m)+1)/scale <= iv.Hi {
			return k, m
		}
	}
	// Degenerate (extremely deep/narrow) interval: clamp to the lower
	// bound at maximum precision.
	scale := math.Pow(2, 62)
	return 62, uint64(iv.Lo * scale)
}

// QueryInterval computes the interval a path pattern maps to: the last
// step's base interval narrowed by the preceding steps. Patterns are
// /a/b/c or //b/c (suffix match).
func (d *Document) QueryInterval(pattern string) (Interval, error) {
	steps := strings.Split(strings.Trim(pattern, "/"), "/")
	iv := Interval{Lo: 0, Hi: 1}
	for _, s := range steps {
		if s == "" || s == "*" {
			continue
		}
		i, ok := d.nameIdx[s]
		if !ok {
			return Interval{}, fmt.Errorf("xpress: unknown label %q", s)
		}
		base := d.NameIv[i]
		width := base.Hi - base.Lo
		iv = Interval{Lo: base.Lo + iv.Lo*width, Hi: base.Lo + iv.Hi*width}
	}
	return iv, nil
}

// ScanCount scans the whole stream and counts elements whose path code
// falls inside the query interval — the XPRESS evaluation strategy
// (§2.3: the entire stream is visited regardless of selectivity).
func (d *Document) ScanCount(pattern string) (count, visited int, err error) {
	iv, err := d.QueryInterval(pattern)
	if err != nil {
		return 0, 0, err
	}
	pos := 0
	for pos < len(d.Stream) {
		op := d.Stream[pos]
		pos++
		switch op {
		case opStart:
			pid, n, err := compress.ReadUvarint(d.Stream[pos:])
			if err != nil {
				return 0, 0, err
			}
			pos += n
			if pid >= uint64(len(d.PathIv)) {
				return 0, 0, fmt.Errorf("xpress: path id %d out of range", pid)
			}
			piv := d.PathIv[pid]
			if iv.Contains((piv.Lo + piv.Hi) / 2) {
				count++
			}
		case opEnd:
		case opAttr, opText:
			if op == opAttr {
				_, n, err := compress.ReadUvarint(d.Stream[pos:])
				if err != nil {
					return 0, 0, err
				}
				pos += n
			}
			tb := d.Stream[pos]
			pos++
			switch tb {
			case valInt:
				_, n := binary.Varint(d.Stream[pos:])
				pos += n
			case valFloat:
				pos += 8
			case valString:
				_, n, err := compress.ReadBytes(d.Stream[pos:])
				if err != nil {
					return 0, 0, err
				}
				pos += n
			default:
				return 0, 0, fmt.Errorf("xpress: bad value tag %#x", tb)
			}
		default:
			return 0, 0, fmt.Errorf("xpress: bad opcode %#x at %d", op, pos-1)
		}
	}
	return count, len(d.Stream), nil
}

// CompressedSize includes the stream, labels, intervals, the path
// table and the value model.
func (d *Document) CompressedSize() int {
	n := len(d.Stream) + 16
	for _, s := range d.Names {
		n += len(s) + 1 + 16
	}
	n += 16 * len(d.PathIv)
	n += d.Model.ModelSize()
	return n
}

// CompressionFactor is 1 - compressed/original.
func (d *Document) CompressionFactor() float64 {
	if d.rawLen == 0 {
		return 0
	}
	return 1 - float64(d.CompressedSize())/float64(d.rawLen)
}
