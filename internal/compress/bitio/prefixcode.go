package bitio

import (
	"fmt"
	"slices"
	"sort"
)

const (
	numSymbols = 257 // the 256 byte values and EOS
	eosValue   = 256 // EOS among the values a PrefixCode decodes to

	// maxCodeLen bounds a code so Decode reads any one with a single
	// Peek after a Refill.
	maxCodeLen = MaxPeek

	// tableBits sizes the primary decode table: one Peek(tableBits)
	// resolves every code of length ≤ tableBits in a single lookup.
	tableBits = 11
)

// PrefixCode is a complete binary prefix code over the 256 byte values
// and an EOS symbol that ends every value: the code behind both entropy
// coders of §2.1. A value is coded as the MSB-first concatenation of its
// bytes' codes and the EOS code, zero-padded to a byte boundary, so the
// coded form is self-delimiting and injective, and its prefixes can be
// matched on the packed bits.
//
// The coders differ only in how the 257 code lengths are chosen and in
// the order codes are handed out. A canonical code (Huffman) assigns them
// by length, then symbol; byte b is symbol b and EOS is symbol 256. An
// alphabetic code (Hu-Tucker) assigns them in symbol order; EOS is symbol
// 0 and byte b is symbol b+1, so EOS sorts below every byte and bytewise
// comparison of coded values is plaintext order.
//
// A PrefixCode is safe for concurrent use.
type PrefixCode struct {
	name  string            // the codec family, prefixing every error
	model [numSymbols]uint8 // code lengths in symbol order, as persisted

	// codes and lens give the right-aligned code of each value: byte b
	// at b, EOS at eosValue.
	codes [numSymbols]uint64
	lens  [numSymbols]uint8

	// starts holds, in code order, each code left-justified in
	// maxCodeLen bits — the first point of the code space [0,
	// 2^maxCodeLen) it covers — and entries its value<<8 | length.
	// Codes tile the space in this order, so starts is ascending.
	starts  [numSymbols]uint64
	entries [numSymbols]uint32

	// table maps the next tableBits bits to the entry of the code they
	// begin with. A window of longer codes only has length 0 and holds
	// the code-order index of the first of them and their number instead:
	// n<<17 | first<<8.
	table [1 << tableBits]uint32
}

// NewPrefixCode builds the code with the given 257 code lengths in symbol
// order (see PrefixCode), canonical or alphabetic. It fails unless every
// length is in 1..57 and the codes, handed out one after another, each
// start on a multiple of their own size and fill the code space exactly:
// lengths that do not form a complete prefix code in that order. name is
// the codec family that prefixes the errors.
func NewPrefixCode(name string, lengths []uint8, alphabetic bool) (*PrefixCode, error) {
	if len(lengths) != numSymbols {
		return nil, fmt.Errorf("%s: model must be %d bytes, got %d", name, numSymbols, len(lengths))
	}
	p := &PrefixCode{name: name}
	copy(p.model[:], lengths)
	order := make([]int, numSymbols) // symbols in code order
	for s := range order {
		order[s] = s
	}
	if !alphabetic {
		sort.SliceStable(order, func(i, j int) bool { return lengths[order[i]] < lengths[order[j]] })
	}
	var next uint64 // the first point of the code space not yet handed out
	for i, s := range order {
		l := lengths[s]
		if l < 1 || l > maxCodeLen {
			return nil, fmt.Errorf("%s: invalid code length %d for symbol %d", name, l, s)
		}
		size := uint64(1) << (maxCodeLen - l)
		if next&(size-1) != 0 || next+size > 1<<maxCodeLen {
			return nil, fmt.Errorf("%s: code lengths do not form a complete prefix code", name)
		}
		v := valueOf(s, alphabetic)
		p.codes[v], p.lens[v] = next>>(maxCodeLen-l), l
		p.starts[i], p.entries[i] = next, uint32(v)<<8|uint32(l)
		next += size
	}
	if next != 1<<maxCodeLen {
		return nil, fmt.Errorf("%s: code lengths do not form a complete prefix code", name)
	}
	const window = 1 << (maxCodeLen - tableBits) // code space under one table entry
	for i, e := range p.entries {
		w := p.starts[i] / window
		if l := e & 0xff; l <= tableBits {
			for k := uint64(0); k < 1<<(tableBits-l); k++ {
				p.table[w+k] = e
			}
		} else if p.starts[i]%window == 0 {
			p.table[w] = 1<<17 | uint32(i)<<8
		} else {
			p.table[w] += 1 << 17
		}
	}
	return p, nil
}

// TrainPrefixCode builds a code from the byte frequencies of the sample
// values, one EOS per value and every frequency floored at 1 so unseen
// bytes stay encodable. lengthsOf turns frequencies in symbol order into
// code lengths (the coder's own algorithm); while the deepest exceeds 57
// bits, the frequencies are halved and it runs again.
func TrainPrefixCode(name string, values [][]byte, alphabetic bool, lengthsOf func(freq []uint64) []uint8) (*PrefixCode, error) {
	var count [numSymbols]uint64 // by value
	for _, v := range values {
		for _, b := range v {
			count[b]++
		}
		count[eosValue]++
	}
	freq := make([]uint64, numSymbols) // by symbol
	for s := range freq {
		freq[s] = max(count[valueOf(s, alphabetic)], 1)
	}
	for attempt := 0; attempt < 64; attempt++ {
		lengths := lengthsOf(freq)
		if slices.Max(lengths) <= maxCodeLen {
			return NewPrefixCode(name, lengths, alphabetic)
		}
		for s := range freq {
			freq[s] = freq[s]/2 + 1
		}
	}
	return nil, fmt.Errorf("%s: could not bound code depth", name)
}

// valueOf maps symbol s to its value: byte b, or eosValue for EOS.
func valueOf(s int, alphabetic bool) int {
	if alphabetic {
		return (s + numSymbols - 1) % numSymbols
	}
	return s
}

// ModelSize is the model's footprint: one length byte per symbol.
func (p *PrefixCode) ModelSize() int { return numSymbols }

// AppendModel appends the model: the 257 code lengths in symbol order.
func (p *PrefixCode) AppendModel(dst []byte) []byte { return append(dst, p.model[:]...) }

// Encode appends the coded form of value to dst. It never fails; the
// error is compress.Codec's.
func (p *PrefixCode) Encode(dst, value []byte) ([]byte, error) {
	w := GetWriter(len(value)/2 + 2)
	for _, b := range value {
		w.WriteBits(p.codes[b], int(p.lens[b]))
	}
	w.WriteBits(p.codes[eosValue], int(p.lens[eosValue]))
	dst = append(dst, w.Bytes()...)
	PutWriter(w)
	return dst, nil
}

// EncodePrefix codes value without the EOS code, returning the packed
// bits and their number: every coded value that starts with value starts
// with those bits.
func (p *PrefixCode) EncodePrefix(value []byte) (bits []byte, nbits int) {
	w := NewWriter(len(value)/2 + 2)
	for _, b := range value {
		w.WriteBits(p.codes[b], int(p.lens[b]))
	}
	return w.Bytes(), w.Len() // aliases w's buffer: not poolable
}

// Decode appends the value coded in enc to dst. One Peek(tableBits)
// resolves a short code; a longer one is found by a binary search of the
// starts of the codes in its window. The code is complete, so
// every bit window lies in exactly one code: the output and the error on
// truncated or corrupt input are those of a bit-at-a-time decoder.
func (p *PrefixCode) Decode(dst, enc []byte) ([]byte, error) {
	// Value Reader + Init keeps the reader on the stack; NewReader would
	// heap-allocate one per decoded value.
	var r Reader
	r.Init(enc, -1)
	for {
		r.Refill()
		e := p.table[r.Peek(tableBits)]
		if e&0xff == 0 {
			first := int(e >> 8 & 0x1ff)
			e = p.long(r.Peek(maxCodeLen), first, first+int(e>>17))
		}
		l := int(e & 0xff)
		if l > r.Remaining() {
			return dst, fmt.Errorf("%s: truncated value: %w", p.name, r.ErrTruncated())
		}
		r.Consume(l)
		if e>>8 == eosValue {
			return dst, nil
		}
		dst = append(dst, byte(e>>8))
	}
}

// long returns the entry of the code that covers point v of the code
// space, one of the codes [lo, hi) of v's window.
func (p *PrefixCode) long(v uint64, lo, hi int) uint32 {
	for hi-lo > 1 { // starts[lo] ≤ v, and code hi (if any) starts past v
		mid := int(uint(lo+hi) >> 1)
		if p.starts[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return p.entries[lo]
}
