package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"xquec/internal/compress"
	"xquec/internal/compress/blob"
)

// Repository file magic. Version 4 stores the structure section in the
// succinct encoding (paren bits + node marks) and nothing derived from
// it; it is the only version read or written.
var magic = []byte("XQCR4\n")

// AppendBinary serializes the repository. Everything derivable is
// rebuilt by LoadBinary instead of being stored: the rank/select
// directories, summary extents, per-container equality
// permutations, and the container a value ref points to (it is
// determined by the owning node's path). What remains on disk is the
// dictionary, the source models, the compressed container payloads, the
// structure tree's shape, and the sorted-record indexes of the values.
func (s *Store) AppendBinary(dst []byte) []byte {
	dst = append(dst, magic...)
	dst = compress.AppendUvarint(dst, uint64(s.OriginalSize))

	// Dictionary.
	dst = compress.AppendUvarint(dst, uint64(len(s.Names)))
	for _, n := range s.Names {
		dst = compress.AppendBytes(dst, []byte(n))
	}

	// Source models.
	groupNames := make([]string, 0, len(s.Models))
	for g := range s.Models {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)
	dst = compress.AppendUvarint(dst, uint64(len(groupNames)))
	groupIdx := map[string]int{}
	for i, g := range groupNames {
		groupIdx[g] = i
		gm := s.Models[g]
		dst = compress.AppendBytes(dst, []byte(g))
		dst = compress.AppendBytes(dst, []byte(gm.Algorithm))
		dst = compress.AppendBytes(dst, gm.Codec.AppendModel(nil))
	}

	// Containers.
	dst = compress.AppendUvarint(dst, uint64(len(s.Containers)))
	for _, c := range s.Containers {
		dst = compress.AppendBytes(dst, []byte(c.Path))
		dst = append(dst, byte(c.Kind))
		dst = compress.AppendUvarint(dst, uint64(groupIdx[c.Group]))
		dst = compress.AppendUvarint(dst, uint64(len(c.vals)))
		for _, v := range c.vals {
			dst = compress.AppendBytes(dst, v)
		}
	}

	// Structure tree: the succinct section. Paren bits and node marks
	// carry the full shape including text interleaving; tags are listed
	// per node in pre-order, and each text leaf carries only its record
	// index in the (path-implied) container. The stream is highly
	// repetitive, so — like XMill's structure stream — it is stored
	// blob-compressed.
	a := s.succ.arrays()
	var tree []byte
	tree = compress.AppendUvarint(tree, uint64(a.nParens))
	tree = compress.AppendUvarint(tree, uint64(a.nOpens))
	tree = compress.AppendUvarint(tree, uint64(len(a.valIdx)))
	tree = appendPackedBits(tree, a.parens, a.nParens)
	tree = appendPackedBits(tree, a.marks, a.nOpens)
	for _, t := range a.tags {
		tree = compress.AppendUvarint(tree, uint64(t))
	}
	for _, vi := range a.valIdx {
		tree = compress.AppendUvarint(tree, uint64(vi))
	}
	dst = compress.AppendBytes(dst, blob.Compress(nil, tree))
	// Whole-file checksum: cheap end-to-end corruption detection for the
	// value payloads, which no structural validation can cover.
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// appendPackedBits appends ceil(nBits/8) bytes of the packed bit words
// (bit i of the sequence = bit i%8 of byte i/8).
func appendPackedBits(dst []byte, words []uint64, nBits int) []byte {
	nBytes := (nBits + 7) / 8
	for i := 0; i < nBytes; i++ {
		dst = append(dst, byte(words[i>>3]>>(8*(uint(i)&7))))
	}
	return dst
}

// reader is a cursor over serialized repository bytes.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) uvarint() (uint64, error) {
	v, n, err := compress.ReadUvarint(r.data[r.pos:])
	if err != nil {
		return 0, fmt.Errorf("storage: corrupt repository at byte %d: %w", r.pos, err)
	}
	r.pos += n
	return v, nil
}

// uvarint2 is uvarint's fast path for the per-item loops, inlined at
// the call site: it reads a varint of one byte — every tag code of XMark
// — or two — a record index under 16 384 — and reports false, reading
// nothing, for any other, which the loop hands to uvarint.
func (r *reader) uvarint2() (uint64, bool) {
	d, p := r.data, r.pos
	if p < len(d) && d[p] < 0x80 {
		r.pos = p + 1
		return uint64(d[p]), true
	}
	if p+1 < len(d) && d[p+1] < 0x80 {
		r.pos = p + 2
		return uint64(d[p]&0x7f) | uint64(d[p+1])<<7, true
	}
	return 0, false
}

// count reads an element count and rejects one the remaining bytes
// cannot hold at minBytes apiece, so that no count read from the file
// sizes an allocation the file has not paid for.
func (r *reader) count(what string, minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if rest := len(r.data) - r.pos; v > uint64(rest/minBytes) {
		return 0, fmt.Errorf("storage: %s count %d exceeds what the remaining %d bytes can hold", what, v, rest)
	}
	return int(v), nil
}

// bytes returns the next length-prefixed string as a sub-slice of the
// input, capped so an append cannot reach the bytes after it.
func (r *reader) bytes() ([]byte, error) {
	b, n, err := compress.ReadBytes(r.data[r.pos:])
	if err != nil {
		return nil, fmt.Errorf("storage: corrupt repository at byte %d: %w", r.pos, err)
	}
	r.pos += n
	return b[:len(b):len(b)], nil
}

// bytes1 is bytes' inlined fast path for the record loop: a string
// whose length is a one-byte varint and that the input holds whole. It
// reports false, reading nothing, for any other, which the loop hands to
// bytes.
func (r *reader) bytes1() ([]byte, bool) {
	if p := r.pos; p < len(r.data) {
		if n := int(r.data[p]); n < 0x80 && n < len(r.data)-p {
			r.pos = p + 1 + n
			return r.data[p+1 : r.pos : r.pos], true
		}
	}
	return nil, false
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("storage: truncated repository")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// LoadBinary reconstructs a repository serialized by AppendBinary. It is
// one linear pass over the bytes: each section is checked as it is read,
// and the walk that derives the summary, the value refs and the record
// owners (deriveFromSuccinct) is also the proof that the structure is a
// well-formed tree — nothing is validated a second time. Source models
// are proved here too, but an ALM model builds its interval index on
// first use (see alm.loadModel).
//
// The store keeps data: record values and ALM models are sub-slices of
// it. The caller hands the buffer over and must not modify it afterwards.
func LoadBinary(data []byte) (*Store, error) {
	if len(data) < len(magic)+4 || !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("storage: not a repository file (bad magic)")
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("storage: checksum mismatch (corrupt repository)")
	}
	r := &reader{data: body, pos: len(magic)}
	s := &Store{Models: map[string]GroupModel{}}

	osz, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	s.OriginalSize = int(osz)

	nNames, err := r.count("name", 1)
	if err != nil {
		return nil, err
	}
	if nNames > maxNames {
		return nil, errTooManyNames(nNames)
	}
	dict := newDictionary()
	for i := 0; i < nNames; i++ {
		b, err := r.bytes()
		if err != nil {
			return nil, err
		}
		if _, err := dict.add(string(b)); err != nil {
			return nil, err
		}
	}
	s.Names, s.nameIdx, s.attrs = dict.names, dict.idx, attrFlags(dict.names)

	nGroups, err := r.count("source model", 3)
	if err != nil {
		return nil, err
	}
	groupNames := make([]string, nGroups)
	for i := range groupNames {
		g, err := r.bytes()
		if err != nil {
			return nil, err
		}
		alg, err := r.bytes()
		if err != nil {
			return nil, err
		}
		model, err := r.bytes()
		if err != nil {
			return nil, err
		}
		codec, err := compress.LoadModel(string(alg), model)
		if err != nil {
			return nil, fmt.Errorf("storage: group %q: %w", g, err)
		}
		groupNames[i] = string(g)
		s.Models[groupNames[i]] = GroupModel{Algorithm: string(alg), Codec: codec}
	}

	nConts, err := r.count("container", 4)
	if err != nil {
		return nil, err
	}
	s.Containers = make([]*Container, nConts)
	for ci := range s.Containers {
		path, err := r.bytes()
		if err != nil {
			return nil, err
		}
		kind, err := r.byte()
		if err != nil {
			return nil, err
		}
		gi, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if gi >= uint64(len(groupNames)) {
			return nil, fmt.Errorf("storage: container %q references group %d", path, gi)
		}
		group := groupNames[gi]
		nRecs, err := r.count("record", 1)
		if err != nil {
			return nil, err
		}
		c := &Container{
			Path:   string(path),
			Kind:   ValueKind(kind),
			Group:  group,
			codec:  s.Models[group].Codec,
			vals:   make([][]byte, nRecs),
			owners: make([]NodeID, nRecs),
		}
		// Owners are not stored: the structure walk re-derives them from
		// the tree's value refs.
		for i := range c.vals {
			var ok bool
			if c.vals[i], ok = r.bytes1(); ok {
				continue
			}
			if c.vals[i], err = r.bytes(); err != nil {
				return nil, err
			}
		}
		c.buildEqOrder()
		s.Containers[ci] = c
	}

	// Structure tree shape (blob-compressed section).
	treeComp, err := r.bytes()
	if err != nil {
		return nil, err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("storage: %d trailing bytes after repository", len(body)-r.pos)
	}
	treeRaw, err := blob.Decompress(nil, treeComp)
	if err != nil {
		return nil, fmt.Errorf("storage: corrupt structure section: %w", err)
	}
	r = &reader{data: treeRaw}
	if err := s.loadTree(r); err != nil {
		return nil, err
	}
	if r.pos != len(treeRaw) {
		return nil, fmt.Errorf("storage: %d trailing bytes in structure section", len(treeRaw)-r.pos)
	}
	if err := s.deriveFromSuccinct(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadTree parses the succinct structure section into s.succ. The
// bytes are untrusted: shape checks here, semantic checks in
// deriveFromSuccinct.
func (s *Store) loadTree(r *reader) error {
	nParens, err := r.uvarint()
	if err != nil {
		return err
	}
	nOpens, err := r.uvarint()
	if err != nil {
		return err
	}
	nLeaves, err := r.uvarint()
	if err != nil {
		return err
	}
	if nParens != 2*nOpens || nOpens == 0 || nLeaves >= nOpens {
		return fmt.Errorf("storage: implausible structure shape (%d parens, %d opens, %d leaves)",
			nParens, nOpens, nLeaves)
	}
	if nParens/8 > uint64(len(r.data)) {
		return fmt.Errorf("storage: implausible paren count %d", nParens)
	}
	nNodes := nOpens - nLeaves
	parens, err := r.packedBits(int(nParens))
	if err != nil {
		return err
	}
	marks, err := r.packedBits(int(nOpens))
	if err != nil {
		return err
	}
	// Every node's tag and every leaf's value index is at least a byte.
	if nOpens > uint64(len(r.data)-r.pos) {
		return fmt.Errorf("storage: %d tree nodes exceed what the remaining %d bytes can hold", nOpens, len(r.data)-r.pos)
	}
	a := &succinctArrays{
		parens:  parens,
		nParens: int(nParens),
		marks:   marks,
		nOpens:  int(nOpens),
		tags:    make([]uint16, nNodes),
		valCont: make([]int32, nLeaves),
		valIdx:  make([]int32, nLeaves),
	}
	for i := range a.tags {
		t, ok := r.uvarint2()
		if !ok {
			if t, err = r.uvarint(); err != nil {
				return err
			}
		}
		if t >= uint64(len(s.Names)) {
			return fmt.Errorf("storage: node %d has unknown tag %d", i+1, t)
		}
		a.tags[i] = uint16(t)
	}
	for i := range a.valIdx {
		v, ok := r.uvarint2()
		if !ok {
			if v, err = r.uvarint(); err != nil {
				return err
			}
		}
		if v >= uint64(len(r.data))+uint64(nOpens) {
			return fmt.Errorf("storage: implausible value index %d", v)
		}
		a.valCont[i] = -1 // resolved by deriveFromSuccinct
		a.valIdx[i] = int32(v)
	}
	t := a.build()
	if t.isNode.Ones() != int(nNodes) || t.pv.Ones() != int(nOpens) {
		return fmt.Errorf("storage: structure bit counts disagree with the header")
	}
	s.succ = t
	return nil
}

// packedBits reads ceil(nBits/8) bytes written by appendPackedBits back
// into bit words.
func (r *reader) packedBits(nBits int) ([]uint64, error) {
	nBytes := (nBits + 7) / 8
	if r.pos+nBytes > len(r.data) {
		return nil, fmt.Errorf("storage: truncated bit section")
	}
	words := make([]uint64, (nBits+63)/64)
	src := r.data[r.pos : r.pos+nBytes]
	full := nBytes / 8
	for w := range full {
		words[w] = binary.LittleEndian.Uint64(src[8*w:])
	}
	for i := 8 * full; i < nBytes; i++ {
		words[i>>3] |= uint64(src[i]) << (8 * (uint(i) & 7))
	}
	r.pos += nBytes
	return words, nil
}

func isAttrName(tag string) bool { return len(tag) > 0 && tag[0] == '@' }

// SaveFile writes the repository to a file.
func (s *Store) SaveFile(path string) error {
	return os.WriteFile(path, s.AppendBinary(nil), 0o644)
}

// OpenFile loads a repository from a file.
func OpenFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadBinary(data)
}
