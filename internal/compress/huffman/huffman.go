// Package huffman implements the classical (static, character-level)
// Huffman coder XQueC uses as its order-agnostic string compressor
// (§2.1). Codes are canonical, so a source model is fully described by
// the code length of each symbol.
//
// Every value is terminated by an out-of-band EOS symbol before coding.
// This makes the coded form self-delimiting and injective: two distinct
// plaintexts always differ at a bit position that is a real code bit in
// both encodings, so equality — and prefix matching — can be evaluated
// directly on the packed compressed bytes (eq = true, wild = true,
// ineq = false in the paper's capability triple).
package huffman

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"xquec/internal/compress"
	"xquec/internal/compress/bitio"
)

const (
	numSymbols = 257 // 256 byte values + EOS
	eosSymbol  = 256
	maxBits    = 57 // keep codes in a uint64 with room to spare

	// tableBits sizes the primary decode table: one Peek(tableBits)
	// classifies every code of length ≤ tableBits in a single lookup.
	// Longer codes fall back to the canonical per-length scan.
	tableBits = 11
)

func init() {
	compress.RegisterLoader("huffman", func(data []byte) (compress.Codec, error) {
		return loadModel(data)
	})
}

// Codec is a trained Huffman coder. It is safe for concurrent use.
type Codec struct {
	codes   [numSymbols]uint64 // canonical code, right-aligned
	lengths [numSymbols]uint8  // code length in bits; 0 = symbol absent
	// canonical decoding tables, indexed by code length 1..maxBits
	firstCode  [maxBits + 1]uint64 // smallest code of this length
	firstIndex [maxBits + 1]int    // index into symByCode of that code
	countAtLen [maxBits + 1]int
	symByCode  []uint16 // symbols in canonical code order
	// table is the primary word-at-a-time decode table: indexed by the
	// next tableBits bits, each entry packs sym<<8 | codeLen for codes
	// of length ≤ tableBits. Zero entries mark long codes (decodeLong).
	table       [1 << tableBits]uint32
	modelBytes  int
	trainedSize int // total sample bytes, for stats
}

// Trainer builds Huffman codecs from sample values.
type Trainer struct{}

// Name implements compress.Trainer.
func (Trainer) Name() string { return "huffman" }

// Train builds a canonical Huffman code from the byte frequencies of the
// sample values (plus one EOS per value).
func (Trainer) Train(values [][]byte) (compress.Codec, error) {
	return Train(values)
}

// Train builds a Codec from sample values.
func Train(values [][]byte) (*Codec, error) {
	var freq [numSymbols]uint64
	total := 0
	for _, v := range values {
		for _, b := range v {
			freq[b]++
		}
		freq[eosSymbol]++
		total += len(v)
	}
	// Every symbol must be encodable even if unseen: give unseen byte
	// symbols frequency 0 but still assign them codes via a +1 floor on
	// demand is wasteful; instead include only seen symbols plus EOS and
	// a single escape-free guarantee: unseen symbols get the longest
	// codes by flooring all frequencies at 1.
	for i := range freq {
		if freq[i] == 0 {
			freq[i] = 1
		}
	}
	lengths, err := codeLengths(freq[:])
	if err != nil {
		return nil, err
	}
	c := &Codec{trainedSize: total}
	copy(c.lengths[:], lengths)
	c.buildCanonical()
	return c, nil
}

// huffNode / huffHeap implement the classic two-queue-free heap build.
type huffNode struct {
	freq        uint64
	symbol      int // -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	// Tie-break on symbol for determinism.
	return h[i].symbol < h[j].symbol
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// codeLengths computes Huffman code lengths, rescaling frequencies until
// the deepest code fits in maxBits.
func codeLengths(freq []uint64) ([]uint8, error) {
	f := make([]uint64, len(freq))
	copy(f, freq)
	for attempt := 0; attempt < 64; attempt++ {
		lengths := buildLengths(f)
		deepest := uint8(0)
		for _, l := range lengths {
			if l > deepest {
				deepest = l
			}
		}
		if deepest <= maxBits {
			return lengths, nil
		}
		for i := range f {
			f[i] = f[i]/2 + 1
		}
	}
	return nil, errors.New("huffman: could not bound code depth")
}

func buildLengths(freq []uint64) []uint8 {
	h := make(huffHeap, 0, len(freq))
	for s, fq := range freq {
		h = append(h, &huffNode{freq: fq, symbol: s})
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*huffNode)
		b := heap.Pop(&h).(*huffNode)
		heap.Push(&h, &huffNode{freq: a.freq + b.freq, symbol: -1, left: a, right: b})
	}
	root := h[0]
	lengths := make([]uint8, len(freq))
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.symbol >= 0 {
			if depth == 0 {
				depth = 1 // degenerate single-symbol alphabet
			}
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// buildCanonical assigns canonical codes from c.lengths and prepares the
// decoding tables.
func (c *Codec) buildCanonical() {
	type symLen struct {
		sym uint16
		l   uint8
	}
	order := make([]symLen, 0, numSymbols)
	for s := 0; s < numSymbols; s++ {
		if c.lengths[s] > 0 {
			order = append(order, symLen{uint16(s), c.lengths[s]})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].l != order[j].l {
			return order[i].l < order[j].l
		}
		return order[i].sym < order[j].sym
	})
	c.symByCode = make([]uint16, len(order))
	var code uint64
	prevLen := uint8(0)
	for i, sl := range order {
		code <<= uint(sl.l - prevLen)
		if prevLen != sl.l {
			c.firstCode[sl.l] = code
			c.firstIndex[sl.l] = i
		}
		c.countAtLen[sl.l]++
		c.codes[sl.sym] = code
		c.symByCode[i] = sl.sym
		code++
		prevLen = sl.l
	}
	// Primary decode table: every tableBits-bit window whose prefix is a
	// short code maps straight to (symbol, length).
	for _, sl := range order {
		if sl.l > tableBits {
			break // order is sorted by length; the rest are long codes
		}
		entry := uint32(sl.sym)<<8 | uint32(sl.l)
		base := c.codes[sl.sym] << (tableBits - uint(sl.l))
		for i := uint64(0); i < 1<<(tableBits-sl.l); i++ {
			c.table[base+i] = entry
		}
	}
	// model footprint: one length byte per symbol
	c.modelBytes = numSymbols
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "huffman" }

// Props implements compress.Codec.
func (c *Codec) Props() compress.Properties {
	return compress.Properties{Eq: true, Ineq: false, Wild: true, OrderPreserving: false}
}

// ModelSize implements compress.Codec.
func (c *Codec) ModelSize() int { return c.modelBytes }

// DecodeCost implements compress.Codec. Huffman is the normalization
// baseline (1.0) for the measured costs in BENCH_codec.json; even
// table-driven, entropy decode is slower than dictionary coders that
// emit whole tokens.
func (c *Codec) DecodeCost() float64 { return 1.0 }

// Encode implements compress.Codec. The encoded form is the bit
// concatenation of the per-byte codes followed by the EOS code, packed
// MSB-first and zero-padded to a byte boundary.
func (c *Codec) Encode(dst, value []byte) ([]byte, error) {
	w := bitio.GetWriter(len(value)/2 + 2)
	for _, b := range value {
		w.WriteBits(c.codes[b], int(c.lengths[b]))
	}
	w.WriteBits(c.codes[eosSymbol], int(c.lengths[eosSymbol]))
	dst = append(dst, w.Bytes()...)
	bitio.PutWriter(w)
	return dst, nil
}

// EncodePrefix encodes value without the EOS terminator, returning the
// packed bits and the bit length. Used for prefix (wildcard) matching in
// the compressed domain.
func (c *Codec) EncodePrefix(value []byte) (bits []byte, nbits int) {
	w := bitio.NewWriter(len(value)/2 + 2)
	for _, b := range value {
		w.WriteBits(c.codes[b], int(c.lengths[b]))
	}
	return w.Bytes(), w.Len() // aliases w's buffer: not poolable
}

// MatchesPrefix reports whether the encoded value enc starts with the
// given packed bit prefix.
func MatchesPrefix(enc, prefixBits []byte, nbits int) bool {
	if nbits > 8*len(enc) {
		return false
	}
	full := nbits / 8
	if !bytes.Equal(enc[:full], prefixBits[:full]) {
		return false
	}
	rem := nbits % 8
	if rem == 0 {
		return true
	}
	mask := byte(0xff << (8 - uint(rem)))
	return enc[full]&mask == prefixBits[full]&mask
}

// Decode implements compress.Codec using table-driven canonical
// decoding: one Peek(tableBits) classifies each short code, long codes
// take the per-length canonical scan on the same peeked word. Because
// a complete prefix-free code has exactly one match per bit window,
// the result — including the error on truncated or corrupt input — is
// identical to the bit-at-a-time DecodeReference (reference_test.go).
func (c *Codec) Decode(dst, enc []byte) ([]byte, error) {
	// Value Reader + Init keeps the reader on the stack; NewReader would
	// heap-allocate one per decoded value.
	var r bitio.Reader
	r.Init(enc, -1)
	for {
		r.Refill()
		if e := c.table[r.Peek(tableBits)]; e != 0 {
			l := int(e & 0xff)
			if l > r.Remaining() {
				return dst, fmt.Errorf("huffman: truncated value: %w", r.ErrTruncated())
			}
			r.Consume(l)
			sym := e >> 8
			if sym == eosSymbol {
				return dst, nil
			}
			dst = append(dst, byte(sym))
			continue
		}
		sym, err := c.decodeLong(&r)
		if err != nil {
			return dst, err
		}
		if sym == eosSymbol {
			return dst, nil
		}
		dst = append(dst, byte(sym))
	}
}

// decodeLong resolves a code longer than tableBits via the canonical
// per-length tables, scanning the already-refilled lookahead word.
func (c *Codec) decodeLong(r *bitio.Reader) (int, error) {
	v := r.Peek(maxBits)
	for l := tableBits + 1; l <= maxBits; l++ {
		if n := c.countAtLen[l]; n > 0 {
			code := v >> uint(maxBits-l)
			first := c.firstCode[l]
			if code >= first && code < first+uint64(n) {
				if l > r.Remaining() {
					return 0, fmt.Errorf("huffman: truncated value: %w", r.ErrTruncated())
				}
				r.Consume(l)
				return int(c.symByCode[c.firstIndex[l]+int(code-first)]), nil
			}
		}
	}
	// Unreachable for complete codes (Kraft equality is enforced on
	// load); mirror the reference decoder's two failure modes anyway.
	if r.Remaining() < maxBits {
		return 0, fmt.Errorf("huffman: truncated value: %w", r.ErrTruncated())
	}
	return 0, errors.New("huffman: invalid code")
}

// AppendModel implements compress.Codec: the model is the 257 code
// lengths.
func (c *Codec) AppendModel(dst []byte) []byte {
	return append(dst, c.lengths[:]...)
}

func loadModel(data []byte) (*Codec, error) {
	if len(data) != numSymbols {
		return nil, fmt.Errorf("huffman: model must be %d bytes, got %d", numSymbols, len(data))
	}
	c := &Codec{}
	copy(c.lengths[:], data)
	if !validLengths(c.lengths[:]) {
		return nil, errors.New("huffman: persisted code lengths violate Kraft inequality")
	}
	c.buildCanonical()
	return c, nil
}

// validLengths checks the Kraft–McMillan equality that a complete
// canonical code must satisfy.
func validLengths(lengths []uint8) bool {
	const limit = uint64(1) << maxBits
	var kraft uint64 // in units of 2^-maxBits
	any := false
	for _, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxBits {
			return false
		}
		any = true
		kraft += uint64(1) << (maxBits - l)
		if kraft > limit {
			return false // checked per-step so the sum cannot overflow
		}
	}
	return any
}
