// Package succinct provides the bit-level building blocks of the
// succinct structural self-index: a bitvector with constant-time rank
// and near-constant-time select (two-level directory + math/bits
// popcount kernels), and a balanced-parentheses tree (bp.go) whose
// navigation primitives run on a range min-max tree over the paren
// excess. The encodings follow Arroyuelo et al. ("Fast In-Memory XPath
// Search over Compressed Text and Tree Indexes") and Maneth &
// Sebastian ("Fast and Tiny Structural Self-Indexes for XML"): ~2-3
// bits per tree node with o(n) directories.
package succinct

import "math/bits"

// Directory geometry. A superblock holds the absolute rank as uint64;
// a block holds a uint16 offset within its superblock. 256-bit blocks
// keep the final popcount to at most four words while the directory
// stays at 16/256 + 64/65536 ≈ 6.3% of the bitvector.
const (
	superBits = 1 << 16 // bits per superblock
	blockBits = 256     // bits per block
	selSample = 512     // ones per select hint
)

// Bitvector is an immutable bit sequence with rank/select support.
type Bitvector struct {
	n     int
	words []uint64
	super []uint64 // ones before superblock s
	block []uint16 // ones inside the superblock before block b
	ones  int
	hint1 []uint32 // block index containing the (j*selSample)-th one
}

// BitBuilder accumulates bits; Build freezes them into a Bitvector.
type BitBuilder struct {
	words []uint64
	n     int
}

// NewBitBuilder returns a builder with capacity for capBits bits.
func NewBitBuilder(capBits int) *BitBuilder {
	return &BitBuilder{words: make([]uint64, 0, (capBits+63)/64)}
}

// Append adds one bit.
func (b *BitBuilder) Append(bit bool) {
	if b.n&63 == 0 {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[b.n>>6] |= 1 << (b.n & 63)
	}
	b.n++
}

// AppendRange adds bits [from, to) of words, a source word at a time,
// each shifted to the builder's offset and split over at most two words.
func (b *BitBuilder) AppendRange(words []uint64, from, to int) {
	for n := 0; from < to; from, b.n = from+n, b.n+n {
		n = min(64-from&63, to-from)
		w := words[from>>6] >> (uint(from) & 63) & (1<<uint(n) - 1)
		if off := uint(b.n) & 63; off == 0 {
			b.words = append(b.words, w)
		} else if b.words[len(b.words)-1] |= w << off; int(off)+n > 64 {
			b.words = append(b.words, w>>(64-off))
		}
	}
}

// Len returns the number of bits appended so far.
func (b *BitBuilder) Len() int { return b.n }

// Words returns the packed bit words accumulated so far (shared
// backing; bits past Len are zero).
func (b *BitBuilder) Words() []uint64 { return b.words }

// Build freezes the builder into a Bitvector with directories.
func (b *BitBuilder) Build() *Bitvector {
	return NewBitvector(b.words, b.n)
}

// NewBitvector builds the rank/select directories over words[0:n bits].
// Bit i is words[i/64]>>(i%64)&1. The word slice is retained.
func NewBitvector(words []uint64, n int) *Bitvector {
	nBlocks := (n + blockBits - 1) / blockBits
	v := &Bitvector{
		n:     n,
		words: words,
		super: make([]uint64, n/superBits+1),
		block: make([]uint16, nBlocks),
	}
	// Mask stray bits past n so popcounts never overcount.
	if n&63 != 0 && len(words) > 0 {
		words[len(words)-1] &= (1 << (n & 63)) - 1
	}
	blockCount := func(blk int) int {
		lo := blk * (blockBits / 64)
		hi := lo + blockBits/64
		if hi > len(words) {
			hi = len(words)
		}
		c := 0
		for _, w := range words[lo:hi] {
			c += bits.OnesCount64(w)
		}
		return c
	}
	ones, sinceSuper := 0, 0
	for blk := 0; blk < nBlocks; blk++ {
		if blk*blockBits%superBits == 0 {
			v.super[blk*blockBits/superBits] = uint64(ones)
			sinceSuper = 0
		}
		v.block[blk] = uint16(sinceSuper)
		c := blockCount(blk)
		ones += c
		sinceSuper += c
	}
	v.ones = ones
	// Select hints: block containing the (j*selSample)-th one (0-based).
	v.hint1 = make([]uint32, v.ones/selSample+2)
	j, cnt := 0, 0
	for blk := 0; blk < nBlocks && j < len(v.hint1); blk++ {
		c := blockCount(blk)
		for j < len(v.hint1) && j*selSample >= cnt && j*selSample < cnt+c {
			v.hint1[j] = uint32(blk)
			j++
		}
		cnt += c
	}
	for ; j < len(v.hint1); j++ {
		if nBlocks > 0 {
			v.hint1[j] = uint32(nBlocks - 1)
		}
	}
	return v
}

// Len returns the bit length.
func (v *Bitvector) Len() int { return v.n }

// Words returns the packed bit words (shared backing, do not mutate).
func (v *Bitvector) Words() []uint64 { return v.words }

// Ones returns the total number of set bits.
func (v *Bitvector) Ones() int { return v.ones }

// Get returns bit i.
func (v *Bitvector) Get(i int) bool {
	return v.words[i>>6]>>(uint(i)&63)&1 == 1
}

// Rank1 returns the number of set bits in [0, i).
func (v *Bitvector) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= v.n {
		return v.ones
	}
	blk := i / blockBits
	r := int(v.super[i/superBits]) + int(v.block[blk])
	w := blk * (blockBits / 64)
	last := i >> 6
	for ; w < last; w++ {
		r += bits.OnesCount64(v.words[w])
	}
	if i&63 != 0 {
		r += bits.OnesCount64(v.words[last] & ((1 << (uint(i) & 63)) - 1))
	}
	return r
}

// Rank0 returns the number of clear bits in [0, i).
func (v *Bitvector) Rank0(i int) int {
	if i < 0 {
		i = 0
	}
	if i > v.n {
		i = v.n
	}
	return i - v.Rank1(i)
}

// rankAtBlock returns the number of ones before block blk.
func (v *Bitvector) rankAtBlock(blk int) int {
	return int(v.super[blk*blockBits/superBits]) + int(v.block[blk])
}

// Select1 returns the position of the k-th set bit (0-based). k must be
// in [0, Ones()); out-of-range k returns -1.
func (v *Bitvector) Select1(k int) int {
	if k < 0 || k >= v.ones {
		return -1
	}
	// Hint-bounded binary search for the last block whose preceding
	// rank is <= k.
	lo := int(v.hint1[k/selSample])
	hi := int(v.hint1[k/selSample+1]) + 1
	nBlocks := (v.n + blockBits - 1) / blockBits
	if hi > nBlocks-1 {
		hi = nBlocks - 1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v.rankAtBlock(mid) <= k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	r := k - v.rankAtBlock(lo)
	w := lo * (blockBits / 64)
	for {
		c := bits.OnesCount64(v.words[w])
		if r < c {
			return w*64 + selectWord(v.words[w], r)
		}
		r -= c
		w++
	}
}

// selByte[b][r] is the position of the r-th (0-based) set bit of byte
// b (8 when b has fewer than r+1 set bits).
var selByte [256][8]uint8

func init() {
	for b := 0; b < 256; b++ {
		r := 0
		for j := 0; j < 8; j++ {
			selByte[b][j] = 8
		}
		for j := 0; j < 8; j++ {
			if b>>uint(j)&1 == 1 {
				selByte[b][r] = uint8(j)
				r++
			}
		}
	}
}

// selectWord returns the position of the r-th (0-based) set bit of w
// (-1 when w has fewer than r+1 set bits). Branchless byte narrowing
// in the style of Vigna's select-in-word: a SWAR popcount left as
// per-byte counts, a multiply that turns them into per-byte prefix
// sums, and a parallel compare that counts the bytes wholly before the
// target; a table lookup finishes inside the byte.
func selectWord(w uint64, r int) int {
	const (
		l8 = 0x0101010101010101
		h8 = 0x8080808080808080
	)
	s := w - (w>>1)&0x5555555555555555
	s = s&0x3333333333333333 + (s>>2)&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	s *= l8 // byte j = popcount of bytes 0..j
	// High bit of byte j set iff prefix sum >= r+1 (no inter-byte
	// borrow: every byte of s|h8 is >= 0x80 and every subtrahend byte
	// is < 0x80). The clear high bits count the bytes whose prefix is
	// still <= r — exactly the index of the byte holding the target.
	t := (s | h8) - uint64(r+1)*l8
	byteIdx := 8 - bits.OnesCount64(t&h8)
	if byteIdx == 8 {
		return -1
	}
	// s<<8 aligns byte j with the prefix sum of bytes 0..j-1.
	byteRank := r - int((s<<8)>>uint(byteIdx*8)&0xff)
	return byteIdx*8 + int(selByte[byte(w>>uint(byteIdx*8))][byteRank])
}

// FootprintBytes returns the resident size of the bitvector including
// its rank/select directories.
func (v *Bitvector) FootprintBytes() int {
	return 8*len(v.words) + 8*len(v.super) + 2*len(v.block) + 4*len(v.hint1)
}
