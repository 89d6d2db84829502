// Package blob implements an LZSS sliding-window compressor used where
// the paper reaches for a general-purpose, order-unaware algorithm
// (bzip2/gzip): containers that no query touches (§3.3), the XMill-like
// baseline's container back-end, and the initial "blind" configuration
// of the greedy search. Nothing can be evaluated on blob-compressed
// bytes (eq = ineq = wild = false).
package blob

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"xquec/internal/compress"
)

const (
	windowBits = 16
	windowSize = 1 << windowBits // 64 KiB sliding window
	minMatch   = 4
	maxMatch   = minMatch + 255 // length fits one byte
	hashBits   = 15
	maxChain   = 32 // match-search effort bound
)

func init() {
	compress.RegisterLoader("blob", func([]byte) (compress.Codec, error) { return Codec{}, nil })
}

// Codec is the stateless LZSS coder.
//
// Format: groups of up to 8 tokens, each group preceded by a flag byte
// (bit i set = token i is a match). Literal token: 1 raw byte. Match
// token: 2-byte little-endian distance (1-based) + 1-byte length-minMatch.
type Codec struct{}

// Trainer returns the stateless codec (no source model to learn).
type Trainer struct{}

// Name implements compress.Trainer.
func (Trainer) Name() string { return "blob" }

// Train implements compress.Trainer.
func (Trainer) Train([][]byte) (compress.Codec, error) { return Codec{}, nil }

// Name implements compress.Codec.
func (Codec) Name() string { return "blob" }

// Props implements compress.Codec: nothing evaluates on compressed bytes.
func (Codec) Props() compress.Properties { return compress.Properties{} }

// ModelSize implements compress.Codec.
func (Codec) ModelSize() int { return 0 }

// DecodeCost implements compress.Codec: byte-copy decoding is fast, but
// the whole value must be reconstructed for any predicate. Measured vs
// huffman = 1.0: 532.30 vs 154.20 MB/s (EXPERIMENTS.md "Re-derived
// DecodeCost constants", `go test -run '^$' -bench 'BenchmarkCodecDecode' -benchmem .`).
func (Codec) DecodeCost() float64 { return 0.29 }

// Encode implements compress.Codec.
func (Codec) Encode(dst, value []byte) ([]byte, error) {
	return Compress(dst, value), nil
}

// Decode implements compress.Codec.
func (Codec) Decode(dst, enc []byte) ([]byte, error) {
	return Decompress(dst, enc)
}

// AppendModel implements compress.Codec.
func (Codec) AppendModel(dst []byte) []byte { return dst }

// Compress appends the LZSS-compressed form of src to dst.
func Compress(dst, src []byte) []byte {
	var head [1 << hashBits]int32
	var chain []int32
	if len(src) >= minMatch {
		chain = make([]int32, len(src))
	}
	for i := range head {
		head[i] = -1
	}

	var (
		flagPos  = -1
		flagBit  = 8
		emitFlag = func(match bool) {
			if flagBit == 8 {
				dst = append(dst, 0)
				flagPos = len(dst) - 1
				flagBit = 0
			}
			if match {
				dst[flagPos] |= 1 << uint(flagBit)
			}
			flagBit++
		}
	)

	insert := func(i int) {
		if i+minMatch > len(src) {
			return
		}
		h := hash4(src[i:])
		chain[i] = head[h]
		head[h] = int32(i)
	}

	i := 0
	for i < len(src) {
		bestLen, bestDist := 0, 0
		if i+minMatch <= len(src) {
			h := hash4(src[i:])
			cand := head[h]
			for depth := 0; cand >= 0 && depth < maxChain; depth++ {
				j := int(cand)
				if i-j > windowSize {
					break
				}
				l := matchLen(src, j, i)
				if l > bestLen {
					bestLen, bestDist = l, i-j
					if l >= maxMatch {
						break
					}
				}
				cand = chain[j]
			}
		}
		if bestLen >= minMatch {
			if bestLen > maxMatch {
				bestLen = maxMatch
			}
			emitFlag(true)
			var d [3]byte
			binary.LittleEndian.PutUint16(d[:2], uint16(bestDist-1))
			d[2] = byte(bestLen - minMatch)
			dst = append(dst, d[:]...)
			for k := 0; k < bestLen; k++ {
				insert(i + k)
			}
			i += bestLen
		} else {
			emitFlag(false)
			dst = append(dst, src[i])
			insert(i)
			i++
		}
	}
	return dst
}

// Decompress appends the decompressed form of enc to dst. A first pass
// over the tokens checks every one and sums the output's length, so dst
// grows once, and a corrupt enc is refused before anything is appended;
// the second pass copies a match whose source ends before it starts with
// one copy, and an overlapping one by doubling the copied prefix of its
// period.
func Decompress(dst, enc []byte) ([]byte, error) {
	size, err := decodedLen(enc)
	if err != nil {
		return dst, err
	}
	o := len(dst)
	dst = slices.Grow(dst, size)[:o+size]
	i := 0
	for i < len(enc) {
		flags := enc[i]
		i++
		if flags == 0 && i+8 <= len(enc) { // eight literals
			o += copy(dst[o:], enc[i:i+8])
			i += 8
			continue
		}
		for bit := 0; bit < 8 && i < len(enc); bit++ {
			if flags&(1<<uint(bit)) == 0 {
				dst[o] = enc[i]
				o++
				i++
				continue
			}
			dist := int(binary.LittleEndian.Uint16(enc[i:])) + 1
			length := int(enc[i+2]) + minMatch
			i += 3
			from, to := o-dist, o+length
			for o < to {
				o += copy(dst[o:to], dst[from:o])
			}
		}
	}
	return dst, nil
}

// decodedLen checks enc's tokens — each match whole and reaching back
// no further than the output before it — and returns the length they
// decode to.
func decodedLen(enc []byte) (int, error) {
	n, i := 0, 0
	for i < len(enc) {
		flags := enc[i]
		i++
		if flags == 0 && i+8 <= len(enc) {
			n += 8
			i += 8
			continue
		}
		for bit := 0; bit < 8 && i < len(enc); bit++ {
			if flags&(1<<uint(bit)) == 0 {
				n++
				i++
				continue
			}
			if i+3 > len(enc) {
				return 0, fmt.Errorf("blob: truncated match token at %d", i)
			}
			dist := int(binary.LittleEndian.Uint16(enc[i:])) + 1
			if dist > n {
				return 0, fmt.Errorf("blob: match distance %d before start", dist)
			}
			n += int(enc[i+2]) + minMatch
			i += 3
		}
	}
	return n, nil
}

func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - hashBits)
}

// matchLen returns how many bytes, up to maxMatch, the string at j
// shares with the one at i > j, comparing eight at a time.
func matchLen(src []byte, j, i int) int {
	limit := min(len(src)-i, maxMatch)
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(src[i+n:]) ^ binary.LittleEndian.Uint64(src[j+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && src[j+n] == src[i+n] {
		n++
	}
	return n
}
