package hutucker

import (
	"fmt"

	"xquec/internal/compress/bitio"
)

const (
	numSymbols = 257 // EOS + 256 byte values; alphabet index 0 is EOS
	maxBits    = 57
	tableBits  = 11 // width of bitio.PrefixCode's primary decode table
)

// reference is the bit-at-a-time Hu-Tucker code: the alphabetic tree
// rebuilt from a codec's levels by the classic stack algorithm, sharing
// nothing with bitio.PrefixCode. It is the oracle of the differential
// tests.
type reference struct {
	root   *treeNode
	codes  [numSymbols]uint64
	levels []uint8
}

type treeNode struct {
	symbol      int // -1 for internal nodes
	left, right *treeNode
}

// referenceOf runs phase 3 of Hu-Tucker: push the leaves in alphabet
// order, merging the top two stack entries while they sit on the same
// level, then assign each leaf the code of its root-to-leaf path.
func referenceOf(c *Codec) (*reference, error) {
	type stackEntry struct {
		node  *treeNode
		level uint8
	}
	r := &reference{levels: c.AppendModel(nil)}
	var stack []stackEntry
	for sym, l := range r.levels {
		if l == 0 || l > maxBits {
			return nil, fmt.Errorf("invalid level %d for symbol %d", l, sym)
		}
		stack = append(stack, stackEntry{&treeNode{symbol: sym}, l})
		for len(stack) >= 2 && stack[len(stack)-1].level == stack[len(stack)-2].level {
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], stackEntry{&treeNode{symbol: -1, left: a.node, right: b.node}, a.level - 1})
		}
	}
	if len(stack) != 1 || stack[0].level != 0 {
		return nil, fmt.Errorf("levels do not form a complete alphabetic tree")
	}
	r.root = stack[0].node
	var walk func(n *treeNode, code uint64)
	walk = func(n *treeNode, code uint64) {
		if n.symbol >= 0 {
			r.codes[n.symbol] = code
			return
		}
		walk(n.left, code<<1)
		walk(n.right, code<<1|1)
	}
	walk(r.root, 0)
	return r, nil
}

// encode writes one WriteBit per code bit.
func (r *reference) encode(value []byte) []byte {
	w := bitio.NewWriter(len(value)/2 + 2)
	emit := func(sym int) {
		for i := int(r.levels[sym]) - 1; i >= 0; i-- {
			w.WriteBit(uint(r.codes[sym]>>uint(i)) & 1)
		}
	}
	for _, b := range value {
		emit(int(b) + 1)
	}
	emit(0) // EOS
	return append([]byte(nil), w.Bytes()...)
}

// decode walks the tree one bit at a time.
func (r *reference) decode(dst, enc []byte) ([]byte, error) {
	var br bitio.Reader
	br.Init(enc, -1)
	for {
		n := r.root
		for n.symbol < 0 {
			b, err := br.ReadBit()
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
