// Package xmill reimplements the XMill compression model (Liefke &
// Suciu, SIGMOD 2000) as the Figure-6 comparator: element/attribute
// names are dictionary-coded, all values reached by the same path are
// coalesced into one container, and each container — as well as the
// structure stream — is compressed *as a single chunk* with the
// general-purpose blob compressor (standing in for gzip). The result is
// the best compression factor of the systems compared, but the document
// is opaque to a query processor: reading any single value requires
// decompressing its whole container (§1.2).
package xmill

import (
	"fmt"
	"sort"
	"strings"

	"xquec/internal/compress"
	"xquec/internal/compress/blob"
	"xquec/internal/xmlparser"
)

// structure stream opcodes
const (
	opStart = 0x01 // followed by tag code
	opEnd   = 0x02
	opText  = 0x03 // followed by container index (value order implicit)
	opAttr  = 0x04 // followed by name code and container index
)

// Archive is a compressed XMill document.
type Archive struct {
	Names      []string
	Structure  []byte   // blob-compressed opcode stream
	Containers [][]byte // blob-compressed, values \x00-separated
	Paths      []string // container paths (for reporting)
	rawLen     int
}

// Compress builds the archive.
func Compress(src []byte) (*Archive, error) {
	a := &Archive{rawLen: len(src)}
	nameIdx := map[string]int{}
	intern := func(n string) int {
		if i, ok := nameIdx[n]; ok {
			return i
		}
		nameIdx[n] = len(a.Names)
		a.Names = append(a.Names, n)
		return len(a.Names) - 1
	}
	contIdx := map[string]int{}
	var raw [][]byte // uncompressed containers
	container := func(path string) int {
		if i, ok := contIdx[path]; ok {
			return i
		}
		contIdx[path] = len(raw)
		raw = append(raw, nil)
		a.Paths = append(a.Paths, path)
		return len(raw) - 1
	}
	var structure []byte
	var path []string
	p := xmlparser.NewParser(src)
	err := p.Parse(func(ev *xmlparser.Event) error {
		switch ev.Kind {
		case xmlparser.EventStartElement:
			path = append(path, string(ev.Name))
			structure = append(structure, opStart)
			structure = compress.AppendUvarint(structure, uint64(intern(string(ev.Name))))
			for _, at := range ev.Attrs {
				ci := container(strings.Join(path, "/") + "/@" + string(at.Name))
				structure = append(structure, opAttr)
				structure = compress.AppendUvarint(structure, uint64(intern("@"+string(at.Name))))
				structure = compress.AppendUvarint(structure, uint64(ci))
				raw[ci] = append(raw[ci], at.Value...)
				raw[ci] = append(raw[ci], 0)
			}
		case xmlparser.EventEndElement:
			structure = append(structure, opEnd)
			path = path[:len(path)-1]
		case xmlparser.EventText:
			ci := container(strings.Join(path, "/") + "/#text")
			structure = append(structure, opText)
			structure = compress.AppendUvarint(structure, uint64(ci))
			raw[ci] = append(raw[ci], ev.Text...)
			raw[ci] = append(raw[ci], 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	a.Structure = blob.Compress(nil, structure)
	a.Containers = make([][]byte, len(raw))
	for i, rc := range raw {
		a.Containers[i] = blob.Compress(nil, rc)
	}
	return a, nil
}

// CompressedSize is the archive's total byte size (what would be
// written to disk).
func (a *Archive) CompressedSize() int {
	n := len(a.Structure)
	for _, c := range a.Containers {
		n += len(c)
	}
	for _, s := range a.Names {
		n += len(s) + 1
	}
	for _, s := range a.Paths {
		n += len(s) + 1
	}
	return n + 16
}

// CompressionFactor is 1 - compressed/original.
func (a *Archive) CompressionFactor() float64 {
	if a.rawLen == 0 {
		return 0
	}
	return 1 - float64(a.CompressedSize())/float64(a.rawLen)
}

// Decompress reconstructs the XML document (without insignificant
// whitespace). It demonstrates the XMill limitation the paper leans on:
// every container must be decompressed in full even to read one value.
func (a *Archive) Decompress() ([]byte, error) {
	structure, err := blob.Decompress(nil, a.Structure)
	if err != nil {
		return nil, err
	}
	// Split every container eagerly — there is no random access.
	values := make([][][]byte, len(a.Containers))
	cursor := make([]int, len(a.Containers))
	for i, c := range a.Containers {
		rc, err := blob.Decompress(nil, c)
		if err != nil {
			return nil, err
		}
		values[i] = splitNul(rc)
	}
	var out []byte
	var stack []int
	pendingOpen := false
	closeOpen := func() {
		if pendingOpen {
			out = append(out, '>')
			pendingOpen = false
		}
	}
	i := 0
	next := func() (uint64, error) {
		v, n, err := compress.ReadUvarint(structure[i:])
		i += n
		return v, err
	}
	for i < len(structure) {
		op := structure[i]
		i++
		switch op {
		case opStart:
			closeOpen()
			tc, err := next()
			if err != nil {
				return nil, err
			}
			out = append(out, '<')
			out = append(out, a.Names[tc]...)
			pendingOpen = true
			stack = append(stack, int(tc))
		case opAttr:
			nc, err := next()
			if err != nil {
				return nil, err
			}
			ci, err := next()
			if err != nil {
				return nil, err
			}
			out = append(out, ' ')
			out = append(out, a.Names[nc][1:]...)
			out = append(out, '=', '"')
			out = xmlparser.EscapeAttr(out, string(take(values, cursor, int(ci))))
			out = append(out, '"')
		case opText:
			closeOpen()
			ci, err := next()
			if err != nil {
				return nil, err
			}
			out = xmlparser.EscapeText(out, string(take(values, cursor, int(ci))))
		case opEnd:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmill: unbalanced structure stream")
			}
			tc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if pendingOpen {
				out = append(out, '/', '>')
				pendingOpen = false
			} else {
				out = append(out, '<', '/')
				out = append(out, a.Names[tc]...)
				out = append(out, '>')
			}
		default:
			return nil, fmt.Errorf("xmill: bad opcode %#x at %d", op, i-1)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmill: truncated structure stream")
	}
	return out, nil
}

func take(values [][][]byte, cursor []int, ci int) []byte {
	if ci >= len(values) || cursor[ci] >= len(values[ci]) {
		return nil
	}
	v := values[ci][cursor[ci]]
	cursor[ci]++
	return v
}

func splitNul(b []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == 0 {
			out = append(out, b[start:i])
			start = i + 1
		}
	}
	return out
}

// ContainerReport lists the container paths by compressed size,
// largest first (diagnostics).
func (a *Archive) ContainerReport() []string {
	type entry struct {
		path string
		size int
	}
	entries := make([]entry, len(a.Containers))
	for i := range a.Containers {
		entries[i] = entry{a.Paths[i], len(a.Containers[i])}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].size > entries[j].size })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%s: %d", e.path, e.size)
	}
	return out
}
