package huffman

import (
	"errors"
	"fmt"

	"xquec/internal/compress/bitio"
)

const (
	numSymbols = 257 // 256 byte values + EOS
	eosSymbol  = 256
	maxBits    = 57
	tableBits  = 11 // width of bitio.PrefixCode's primary decode table
)

// reference is the bit-at-a-time canonical Huffman code, rebuilt from a
// codec's model by the textbook recurrence and sharing nothing with
// bitio.PrefixCode: the oracle of the differential tests.
type reference struct {
	codes   [numSymbols]uint64
	lengths []uint8
	sym     map[[2]uint64]int // (length, code) → symbol
}

// referenceOf hands out canonical codes: by length, then symbol, each
// one more than the last, shifted left whenever the length grows.
func referenceOf(c *Codec) *reference {
	r := &reference{lengths: c.AppendModel(nil), sym: map[[2]uint64]int{}}
	var code uint64
	prev := uint8(0)
	for l := uint8(1); l <= maxBits; l++ {
		for s, sl := range r.lengths {
			if sl != l {
				continue
			}
			code <<= l - prev
			prev = l
			r.codes[s] = code
			r.sym[[2]uint64{uint64(l), code}] = s
			code++
		}
	}
	return r
}

// encode writes one WriteBit per code bit.
func (r *reference) encode(value []byte) []byte {
	w := bitio.NewWriter(len(value)/2 + 2)
	emit := func(s int) {
		for i := int(r.lengths[s]) - 1; i >= 0; i-- {
			w.WriteBit(uint(r.codes[s]>>uint(i)) & 1)
		}
	}
	for _, b := range value {
		emit(int(b))
	}
	emit(eosSymbol)
	return append([]byte(nil), w.Bytes()...)
}

// decode reads one bit at a time until the bits read so far are a code.
func (r *reference) decode(dst, enc []byte) ([]byte, error) {
	var br bitio.Reader
	br.Init(enc, -1)
	for {
		sym, err := r.decodeSymbol(&br)
		if err != nil {
			return dst, err
		}
		if sym == eosSymbol {
			return dst, nil
		}
		dst = append(dst, byte(sym))
	}
}

func (r *reference) decodeSymbol(br *bitio.Reader) (int, error) {
	var code uint64
	for l := 1; l <= maxBits; l++ {
		b, err := br.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("huffman: truncated value: %w", err)
		}
		code = code<<1 | uint64(b)
		if s, ok := r.sym[[2]uint64{uint64(l), code}]; ok {
			return s, nil
		}
	}
	return 0, errors.New("huffman: invalid code")
}
