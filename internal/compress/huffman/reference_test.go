package huffman

import (
	"errors"
	"fmt"

	"xquec/internal/compress/bitio"
)

// DecodeReference is the bit-at-a-time decoder: the differential-test
// oracle for the table-driven Decode.
func (c *Codec) DecodeReference(dst, enc []byte) ([]byte, error) {
	var r bitio.Reader
	r.Init(enc, -1)
	for {
		sym, err := c.decodeSymbolRef(&r)
		if err != nil {
			return dst, err
		}
		if sym == eosSymbol {
			return dst, nil
		}
		dst = append(dst, byte(sym))
	}
}

func (c *Codec) decodeSymbolRef(r *bitio.Reader) (int, error) {
	var code uint64
	for l := 1; l <= maxBits; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("huffman: truncated value: %w", err)
		}
		code = code<<1 | uint64(b)
		if n := c.countAtLen[l]; n > 0 {
			first := c.firstCode[l]
			if code >= first && code < first+uint64(n) {
				return int(c.symByCode[c.firstIndex[l]+int(code-first)]), nil
			}
		}
	}
	return 0, errors.New("huffman: invalid code")
}
