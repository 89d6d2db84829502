// Package hutucker implements the Hu–Tucker optimal alphabetic
// (order-preserving) binary code. The paper (§2.1) cites Hu–Tucker as the
// order-preserving alternative that ALM was measured against; we provide
// it both as a usable codec and as the ablation baseline for the
// "ALM outperforms Hu-Tucker" claim.
//
// The alphabet is EOS < 0x00 < 0x01 < ... < 0xff (257 symbols); every
// value is terminated with EOS, which sorts below every byte, so
// bytewise comparison of encoded values equals lexicographic comparison
// of plaintexts — including the proper-prefix case ("ab" < "abc").
package hutucker

import (
	"errors"
	"fmt"

	"xquec/internal/compress"
	"xquec/internal/compress/bitio"
)

const (
	numSymbols = 257 // EOS + 256 byte values; alphabet index 0 is EOS
	maxBits    = 57

	// tableBits sizes the primary decode table (see huffman): one
	// Peek(tableBits) resolves every code of length ≤ tableBits. Longer
	// codes resume a tree walk from a pre-descended depth-tableBits node.
	tableBits = 11

	longCodeMark = 0xff // table entry length marking a long-code subtree
)

func init() {
	compress.RegisterLoader("hutucker", func(data []byte) (compress.Codec, error) {
		return loadModel(data)
	})
}

// Codec is a trained Hu-Tucker coder. Safe for concurrent use.
type Codec struct {
	codes   [numSymbols]uint64
	lengths [numSymbols]uint8
	root    *treeNode // alphabetic decode tree
	// table is the primary word-at-a-time decode table: indexed by the
	// next tableBits bits, each entry packs sym<<8 | codeLen for codes
	// of length ≤ tableBits. Entries with length longCodeMark pack
	// subtreeIndex<<8 instead: the walk resumes at longNodes[index],
	// the tree node reached after the first tableBits bits.
	table     [1 << tableBits]uint32
	longNodes []*treeNode
}

type treeNode struct {
	symbol      int // -1 for internal nodes
	left, right *treeNode
}

// Trainer builds Hu-Tucker codecs from sample values.
type Trainer struct{}

// Name implements compress.Trainer.
func (Trainer) Name() string { return "hutucker" }

// Train implements compress.Trainer.
func (Trainer) Train(values [][]byte) (compress.Codec, error) { return Train(values) }

// Train builds a Codec from sample values.
func Train(values [][]byte) (*Codec, error) {
	var freq [numSymbols]uint64
	for _, v := range values {
		for _, b := range v {
			freq[int(b)+1]++
		}
		freq[0]++ // EOS
	}
	for i := range freq {
		if freq[i] == 0 {
			freq[i] = 1
		}
	}
	for attempt := 0; ; attempt++ {
		levels := combineAndLevel(freq[:])
		deepest := uint8(0)
		for _, l := range levels {
			if l > deepest {
				deepest = l
			}
		}
		if deepest <= maxBits {
			c := &Codec{}
			copy(c.lengths[:], levels)
			if err := c.rebuild(); err != nil {
				return nil, err
			}
			return c, nil
		}
		if attempt == 64 {
			return nil, errors.New("hutucker: could not bound code depth")
		}
		for i := range freq {
			freq[i] = freq[i]/2 + 1
		}
	}
}

// htNode is a working node of the combination phase.
type htNode struct {
	weight uint64
	leaf   bool
	index  int // original symbol index for leaves
	left   *htNode
	right  *htNode
}

// combineAndLevel runs phase 1 (minimum compatible pair combination) and
// phase 2 (level assignment) of the Hu-Tucker algorithm, returning the
// level (code length) of each symbol in alphabet order.
func combineAndLevel(freq []uint64) []uint8 {
	nodes := make([]*htNode, len(freq))
	for i, f := range freq {
		nodes[i] = &htNode{weight: f, leaf: true, index: i}
	}
	// Two nodes are compatible if no *leaf* node lies strictly between
	// them in the working sequence. Repeatedly merge the compatible pair
	// with minimal combined weight (ties: leftmost i, then leftmost j).
	for len(nodes) > 1 {
		bestI, bestJ := -1, -1
		var bestW uint64
		for i := 0; i < len(nodes)-1; i++ {
			for j := i + 1; j < len(nodes); j++ {
				w := nodes[i].weight + nodes[j].weight
				if bestI < 0 || w < bestW {
					bestI, bestJ, bestW = i, j, w
				}
				if nodes[j].leaf {
					break // a leaf blocks compatibility past position j
				}
			}
		}
		merged := &htNode{weight: bestW, left: nodes[bestI], right: nodes[bestJ]}
		nodes[bestI] = merged
		nodes = append(nodes[:bestJ], nodes[bestJ+1:]...)
	}
	levels := make([]uint8, len(freq))
	var walk func(n *htNode, depth uint8)
	walk = func(n *htNode, depth uint8) {
		if n.leaf {
			if depth == 0 {
				depth = 1
			}
			levels[n.index] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(nodes[0], 0)
	return levels
}

// rebuild runs phase 3: reconstruct an alphabetic tree from the levels
// with the classic stack algorithm, then assign codes by tree walk.
func (c *Codec) rebuild() error {
	type stackEntry struct {
		node  *treeNode
		level uint8
	}
	var stack []stackEntry
	for sym := 0; sym < numSymbols; sym++ {
		l := c.lengths[sym]
		if l == 0 || l > maxBits {
			return fmt.Errorf("hutucker: invalid level %d for symbol %d", l, sym)
		}
		stack = append(stack, stackEntry{&treeNode{symbol: sym}, l})
		for len(stack) >= 2 &&
			stack[len(stack)-1].level == stack[len(stack)-2].level {
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, stackEntry{
				&treeNode{symbol: -1, left: a.node, right: b.node}, a.level - 1})
		}
	}
	if len(stack) != 1 || stack[0].level != 0 {
		return errors.New("hutucker: levels do not form a complete alphabetic tree")
	}
	c.root = stack[0].node
	c.table = [1 << tableBits]uint32{}
	c.longNodes = c.longNodes[:0]
	var walk func(n *treeNode, code uint64, depth uint8)
	walk = func(n *treeNode, code uint64, depth uint8) {
		if n.symbol >= 0 {
			c.codes[n.symbol] = code
			// lengths already hold the level; sanity: must equal depth
			// Primary table: every tableBits-bit window starting with
			// this code resolves to (symbol, depth) in one lookup.
			if depth <= tableBits {
				entry := uint32(n.symbol)<<8 | uint32(depth)
				base := code << (tableBits - depth)
				for i := uint64(0); i < 1<<(tableBits-depth); i++ {
					c.table[base+i] = entry
				}
			}
			return
		}
		if depth == tableBits {
			// Long-code subtree: the table entry records where the tree
			// walk resumes after the first tableBits bits are consumed.
			// Keep walking below to assign the deep codes themselves.
			c.table[code] = uint32(len(c.longNodes))<<8 | longCodeMark
			c.longNodes = append(c.longNodes, n)
		}
		walk(n.left, code<<1, depth+1)
		walk(n.right, code<<1|1, depth+1)
	}
	walk(c.root, 0, 0)
	return nil
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "hutucker" }

// Props implements compress.Codec. The alphabetic code is fully
// order-preserving, so equality, inequality and prefix matching all work
// on encoded bytes.
func (c *Codec) Props() compress.Properties {
	return compress.Properties{Eq: true, Wild: true, OrderPreserving: true}
}

// ModelSize implements compress.Codec.
func (c *Codec) ModelSize() int { return numSymbols }

// DecodeCost implements compress.Codec: slightly worse than Huffman
// because alphabetic codes are a bit longer on average and deep codes
// fall back to a tree walk. Measured vs huffman = 1.0: 119.27 vs 154.20
// MB/s (EXPERIMENTS.md "Re-derived DecodeCost constants",
// `go test -run '^$' -bench 'BenchmarkCodecDecode' -benchmem .`).
func (c *Codec) DecodeCost() float64 { return 1.293 }

// Encode implements compress.Codec.
func (c *Codec) Encode(dst, value []byte) ([]byte, error) {
	w := bitio.GetWriter(len(value)/2 + 2)
	for _, b := range value {
		sym := int(b) + 1
		w.WriteBits(c.codes[sym], int(c.lengths[sym]))
	}
	w.WriteBits(c.codes[0], int(c.lengths[0])) // EOS
	dst = append(dst, w.Bytes()...)
	bitio.PutWriter(w)
	return dst, nil
}

// Decode implements compress.Codec using the primary lookup table; a
// code longer than tableBits resumes the alphabetic tree walk from its
// pre-descended depth-tableBits node. Because the alphabetic tree is
// complete, every bit window resolves to exactly one code, so output
// and errors are identical to the bit-at-a-time DecodeReference
// (reference_test.go).
func (c *Codec) Decode(dst, enc []byte) ([]byte, error) {
	// Value Reader + Init keeps the reader on the stack; NewReader would
	// heap-allocate one per decoded value.
	var r bitio.Reader
	r.Init(enc, -1)
	for {
		r.Refill()
		e := c.table[r.Peek(tableBits)]
		l := int(e & 0xff)
		if l != longCodeMark {
			if l > r.Remaining() {
				return dst, fmt.Errorf("hutucker: truncated value: %w", r.ErrTruncated())
			}
			r.Consume(l)
			sym := e >> 8
			if sym == 0 { // EOS
				return dst, nil
			}
			dst = append(dst, byte(sym-1))
			continue
		}
		if r.Remaining() <= tableBits {
			// Any long code needs more than tableBits bits; mirror the
			// reference walk's truncation error.
			return dst, fmt.Errorf("hutucker: truncated value: %w", r.ErrTruncated())
		}
		r.Consume(tableBits)
		n := c.longNodes[e>>8]
		for n.symbol < 0 {
			b, err := r.ReadBit()
			if err != nil {
				return dst, fmt.Errorf("hutucker: truncated value: %w", err)
			}
			if b == 0 {
				n = n.left
			} else {
				n = n.right
			}
		}
		if n.symbol == 0 { // EOS
			return dst, nil
		}
		dst = append(dst, byte(n.symbol-1))
	}
}

// AppendModel implements compress.Codec: the model is the 257 levels.
func (c *Codec) AppendModel(dst []byte) []byte {
	return append(dst, c.lengths[:]...)
}

func loadModel(data []byte) (*Codec, error) {
	if len(data) != numSymbols {
		return nil, fmt.Errorf("hutucker: model must be %d bytes, got %d", numSymbols, len(data))
	}
	c := &Codec{}
	copy(c.lengths[:], data)
	if err := c.rebuild(); err != nil {
		return nil, err
	}
	return c, nil
}
