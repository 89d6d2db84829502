package storage

import (
	"fmt"

	"xquec/internal/compress"
)

// Store is a loaded compressed repository: dictionary, structure tree,
// containers, structure summary and source models.
//
// The structure tree is the balanced-parentheses self-index
// (SuccinctStructure); each structural accessor below is one call into
// it. The paper's per-node records and their B+ index (§2.2) are what
// its rank/select identities implement (DESIGN.md "Storage model").
type Store struct {
	// Names is the node-name dictionary: tag code -> name. Attribute
	// names are stored with an '@' prefix; "#text" is the value tag.
	Names   []string
	nameIdx map[string]uint16
	attrs   []uint64 // per tag code, one bit: the name is an attribute's (attrFlags)

	succ *SuccinctStructure

	Containers []*Container
	Sum        *Summary

	// Models maps source-model group name -> (algorithm, codec).
	Models map[string]GroupModel

	// OriginalSize is the byte size of the loaded XML document.
	OriginalSize int

	// Build records the ingestion pipeline's phase timings and worker
	// count. Zero for repositories opened from disk.
	Build BuildStats
}

// GroupModel is one shared source model.
type GroupModel struct {
	Algorithm string
	Codec     compress.Codec
}

// Code returns the dictionary code for a name.
func (s *Store) Code(name string) (uint16, bool) {
	c, ok := s.nameIdx[name]
	return c, ok
}

// Name returns the name for a dictionary code.
func (s *Store) Name(code uint16) string { return s.Names[code] }

// attrFlags returns the attribute bit of every name, by tag code: what the
// serializing sweep reads per node instead of the name's first byte.
func attrFlags(names []string) []uint64 {
	flags := make([]uint64, (len(names)+63)/64)
	for code, name := range names {
		if isAttrName(name) {
			flags[code/64] |= 1 << (code % 64)
		}
	}
	return flags
}

// dictionary builds a name dictionary: codes in first-seen order, which
// is the order every builder of one has to agree on (Load, a pre-seeded
// dictionary, the names of a file). Tag codes are 16-bit, so the
// 65 537th name is an error, not a wrapped code.
type dictionary struct {
	names []string
	idx   map[string]uint16 // by dictionary name: "tag", "@attr"
	attrs map[string]uint16 // attribute codes by bare name: a parsed attribute is looked up without building "@"+name
}

func newDictionary() *dictionary {
	return &dictionary{idx: map[string]uint16{}, attrs: map[string]uint16{}}
}

// add returns the code of a dictionary name, assigning the next one to a
// name not seen before.
func (d *dictionary) add(name string) (uint16, error) {
	if c, ok := d.idx[name]; ok {
		return c, nil
	}
	if len(d.names) == maxNames {
		return 0, errTooManyNames(len(d.names) + 1)
	}
	c := uint16(len(d.names))
	d.names = append(d.names, name)
	d.idx[name] = c
	return c, nil
}

// elem returns the code of an element name as the parser delivers it.
func (d *dictionary) elem(name []byte) (uint16, error) {
	if c, ok := d.idx[string(name)]; ok {
		return c, nil
	}
	return d.add(string(name))
}

// attr returns the code of "@"+name for a parsed attribute name.
func (d *dictionary) attr(name []byte) (uint16, error) {
	if c, ok := d.attrs[string(name)]; ok {
		return c, nil
	}
	c, err := d.add("@" + string(name))
	if err != nil {
		return 0, err
	}
	d.attrs[string(name)] = c
	return c, nil
}

// maxNames is the size of the 16-bit tag space.
const maxNames = 1 << 16

func errTooManyNames(n int) error {
	return fmt.Errorf("storage: %d names exceed the 16-bit tag space", n)
}

// StructureStats reports the succinct encoding's resident size in bits:
// the BP proper (the paren bitvector and its rank/select directories —
// nothing else is built over the parens), the node-mark bitvector, and
// the tree node count they encode (elements + attributes + immediate
// text values).
func (s *Store) StructureStats() (bpBits, markBits, treeNodes int) {
	bp, marks, _ := s.succ.footprintBytes()
	return 8 * bp, 8 * marks, s.succ.isNode.Len()
}

// NumNodes returns the number of element+attribute nodes.
func (s *Store) NumNodes() int { return s.succ.numNodes() }

// TagCodeOf returns the dictionary code of the node's tag.
func (s *Store) TagCodeOf(id NodeID) uint16 { return s.succ.tags[id-1] }

// TagOf returns the tag name of a node.
func (s *Store) TagOf(id NodeID) string { return s.Names[s.TagCodeOf(id)] }

// IsAttr reports whether the node is an attribute node.
func (s *Store) IsAttr(id NodeID) bool {
	code := s.TagCodeOf(id)
	return s.attrs[code>>6]>>(code&63)&1 == 1
}

// HasText reports whether the node has at least one immediate text
// value (for attribute nodes: the attribute value). c, when not nil, is
// the caller's cursor (TextCursor), as for Text.
func (s *Store) HasText(c *TextCursor, id NodeID) bool { return s.succ.hasText(c, id) }

// ScanNodes calls fn for every node in pre-order (= ID order) with its
// depth (the root is 1; an attribute sits one below its owner element)
// — one forward sweep over the parens.
func (s *Store) ScanNodes(fn func(id NodeID, level uint16)) { s.succ.scanNodes(fn) }

// Container returns the i-th container.
func (s *Store) Container(i int32) *Container { return s.Containers[i] }

// ContainerByPath returns the container storing the values of a path
// such as /site/people/person/name/#text.
func (s *Store) ContainerByPath(path string) (*Container, bool) {
	for _, c := range s.Containers {
		if c.Path == path {
			return c, true
		}
	}
	return nil, false
}

// Text appends the decompressed concatenation of the node's immediate
// text values (for attribute nodes, the attribute value). c, when not
// nil, is the caller's cursor: a run that looks nodes up in document
// order passes the same one every time, and each lookup picks up where
// the previous one left off (TextCursor). Without one the lookup starts
// cold. The answer is the same either way.
func (s *Store) Text(c *TextCursor, dst []byte, id NodeID) ([]byte, error) {
	return s.succ.text(c, s.Containers, dst, id)
}

// SoleText is Text for an instance of a summary node whose Shape is
// Sole: its one value, found with no walk over its children. The
// answer for any other node is undefined.
func (s *Store) SoleText(c *TextCursor, dst []byte, id NodeID) ([]byte, error) {
	return s.succ.soleText(c, s.Containers, dst, id)
}

// TextRefs appends the references of the values Text would decode, in
// document order, without decoding them: none when the node has no
// immediate text, one for an attribute. c is as for Text.
func (s *Store) TextRefs(c *TextCursor, dst []ValueRef, id NodeID) []ValueRef {
	return s.succ.textRefs(c, dst, id)
}

// DeepText appends the decompressed concatenation of every text value in
// the subtree of id (document order) — the string value of an element.
// c is as for Text: the sweep's start is located through it.
func (s *Store) DeepText(c *TextCursor, dst []byte, id NodeID) ([]byte, error) {
	return s.succ.sweep(c, s.Names, s.attrs, s.Containers, dst, id, false)
}

// Serialize appends the XML reconstruction of the subtree rooted at id.
// This is the XMLSerialize operator's core: the only place where whole
// subtrees are decompressed. c, when not nil, is the caller's cursor, as
// for Text: a run that serializes the subtrees a FOR hands out in
// document order passes the same one every time, and each sweep finds
// its start by walking forward from the previous one (TextCursor).
// Without one the sweep is located cold. The bytes are the same either
// way.
func (s *Store) Serialize(c *TextCursor, dst []byte, id NodeID) ([]byte, error) {
	return s.succ.sweep(c, s.Names, s.attrs, s.Containers, dst, id, true)
}
