package succinct

// BP is a balanced-parentheses sequence (bit 1 = open, 0 = close) with
// the navigation primitives of a succinct ordinal tree: FindClose and
// Enclose run a forward/backward excess search over a
// range min-max tree of 1024-bit blocks, with byte-granular excess
// tables inside a block. Excess(i) is the number of opens minus closes
// in [0, i] — the depth after processing position i.
type BP struct {
	bv *Bitvector

	// rmM tree: a perfect binary heap over blocks; node 1 is the root,
	// leaves start at leafBase. minEx/maxEx hold the min/max Excess
	// value reached inside the node's block range.
	minEx    []int32
	maxEx    []int32
	leafBase int
}

const rmmBlockBits = 1024

// Byte excess tables: for a byte b (bit 0 processed first), exDelta is
// the total excess change, exMin/exMax the min/max running excess
// relative to 0 reached after processing each of its 8 bits.
var exDelta, exMin, exMax [256]int8

func init() {
	for b := 0; b < 256; b++ {
		e, mn, mx := 0, 127, -127
		for j := 0; j < 8; j++ {
			if b>>uint(j)&1 == 1 {
				e++
			} else {
				e--
			}
			if e < mn {
				mn = e
			}
			if e > mx {
				mx = e
			}
		}
		exDelta[b] = int8(e)
		exMin[b] = int8(mn)
		exMax[b] = int8(mx)
	}
}

// NewBP builds the navigation structure over a paren bitvector.
func NewBP(bv *Bitvector) *BP {
	n := bv.Len()
	nBlocks := (n + rmmBlockBits - 1) / rmmBlockBits
	leafBase := 1
	for leafBase < nBlocks {
		leafBase <<= 1
	}
	// The heap is truncated past the last real leaf: indexes ≥ len cover
	// only padding blocks and are treated as empty (see qualifies).
	heapLen := leafBase + nBlocks
	if heapLen < 2 {
		heapLen = 2
	}
	b := &BP{
		bv:       bv,
		minEx:    make([]int32, heapLen),
		maxEx:    make([]int32, heapLen),
		leafBase: leafBase,
	}
	const inf = int32(1) << 30
	for i := range b.minEx {
		b.minEx[i] = inf
		b.maxEx[i] = -inf
	}
	// Leaves: scan each block bytewise.
	e := 0
	for blk := 0; blk < nBlocks; blk++ {
		lo := blk * rmmBlockBits
		hi := lo + rmmBlockBits
		if hi > n {
			hi = n
		}
		mn, mx := int32(inf), int32(-inf)
		for p := lo; p < hi; p += 8 {
			byteVal := b.byteAt(p)
			width := hi - p
			if width >= 8 {
				if v := int32(e) + int32(exMin[byteVal]); v < mn {
					mn = v
				}
				if v := int32(e) + int32(exMax[byteVal]); v > mx {
					mx = v
				}
				e += int(exDelta[byteVal])
			} else {
				for j := 0; j < width; j++ {
					if byteVal>>uint(j)&1 == 1 {
						e++
					} else {
						e--
					}
					if int32(e) < mn {
						mn = int32(e)
					}
					if int32(e) > mx {
						mx = int32(e)
					}
				}
			}
		}
		b.minEx[leafBase+blk] = mn
		b.maxEx[leafBase+blk] = mx
	}
	for i := leafBase - 1; i >= 1; i-- {
		if v := b.heapMin(2 * i); v < b.minEx[i] {
			b.minEx[i] = v
		}
		if v := b.heapMin(2*i + 1); v < b.minEx[i] {
			b.minEx[i] = v
		}
		if v := b.heapMax(2 * i); v > b.maxEx[i] {
			b.maxEx[i] = v
		}
		if v := b.heapMax(2*i + 1); v > b.maxEx[i] {
			b.maxEx[i] = v
		}
	}
	return b
}

// heapMin/heapMax read an rmM node, treating truncated (padding-only)
// indexes as empty ranges.
func (b *BP) heapMin(node int) int32 {
	if node >= len(b.minEx) {
		return int32(1) << 30
	}
	return b.minEx[node]
}

func (b *BP) heapMax(node int) int32 {
	if node >= len(b.maxEx) {
		return -(int32(1) << 30)
	}
	return b.maxEx[node]
}

// qualifies reports whether target occurs as an excess value somewhere
// in the rmM node's block range.
func (b *BP) qualifies(node, target int) bool {
	return b.heapMin(node) <= int32(target) && int32(target) <= b.heapMax(node)
}

// byteAt returns 8 bits starting at position p (zero-padded past Len).
func (b *BP) byteAt(p int) byte {
	w := b.bv.words[p>>6]
	shift := uint(p & 63)
	v := byte(w >> shift)
	if shift > 56 && p>>6+1 < len(b.bv.words) {
		v |= byte(b.bv.words[p>>6+1] << (64 - shift))
	}
	return v
}

// Len returns the sequence length in parens.
func (b *BP) Len() int { return b.bv.Len() }

// Bitvector exposes the underlying paren bitvector (for rank/select by
// the structure layer).
func (b *BP) Bitvector() *Bitvector { return b.bv }

// Excess returns the excess after processing position i (the depth of
// the node opened at i, when i is an open paren). Excess(-1) is 0.
func (b *BP) Excess(i int) int {
	return 2*b.bv.Rank1(i+1) - (i + 1)
}

// FindClose returns the position of the close paren matching the open
// paren at i.
func (b *BP) FindClose(i int) int {
	// Leaf fast path: "()" — the very next paren is the match.
	if i+1 < b.bv.Len() && !b.bv.Get(i+1) {
		return i + 1
	}
	e := b.Excess(i)
	return b.fwdSearch(i, e, e-1)
}

// FindCloseAt is FindClose for callers that already know Excess(i),
// sparing the rank behind Excess.
func (b *BP) FindCloseAt(i, excess int) int {
	if i+1 < b.bv.Len() && !b.bv.Get(i+1) {
		return i + 1
	}
	return b.fwdSearch(i, excess, excess-1)
}

// Enclose returns the position of the open paren of the closest
// enclosing pair of the open paren at i, or -1 for the root.
func (b *BP) Enclose(i int) int {
	if i == 0 {
		return -1
	}
	// First-child fast path: "((" — the preceding open is the parent.
	if b.bv.Get(i - 1) {
		return i - 1
	}
	return b.EncloseAt(i, b.Excess(i))
}

// EncloseAt is Enclose for callers that already know Excess(i), sparing
// the rank behind Excess.
func (b *BP) EncloseAt(i, excess int) int {
	if i == 0 || excess <= 1 {
		return -1
	}
	if b.bv.Get(i - 1) {
		return i - 1
	}
	j := b.bwdSearch(i, excess-2)
	if j == -2 {
		return -1
	}
	return j + 1
}

// fwdSearch returns the smallest j > i with Excess(j) == target, or
// Len() if none exists. e is Excess(i), supplied by the caller.
func (b *BP) fwdSearch(i, e, target int) int {
	n := b.bv.Len()
	p := i + 1
	blk := i / rmmBlockBits
	// Scan the rest of the current block bytewise — but only when the
	// block can contain the target excess at all.
	if b.qualifies(b.leafBase+blk, target) {
		blockEnd := (blk + 1) * rmmBlockBits
		if blockEnd > n {
			blockEnd = n
		}
		if j, ok := b.scanFwd(p, blockEnd, e, target); ok {
			return j
		}
	}
	// Climb the rmM tree for the next block range containing target.
	node := b.leafBase + blk
	for node > 1 {
		for node&1 == 0 { // left child: try the right sibling
			sib := node + 1
			if b.qualifies(sib, target) {
				// Descend to the leftmost qualifying leaf.
				node = sib
				for node < b.leafBase {
					if b.qualifies(2*node, target) {
						node = 2 * node
					} else {
						node = 2*node + 1
					}
				}
				tb := node - b.leafBase
				lo := tb * rmmBlockBits
				hi := lo + rmmBlockBits
				if hi > n {
					hi = n
				}
				eb := b.Excess(lo - 1)
				if j, ok := b.scanFwd(lo, hi, eb, target); ok {
					return j
				}
				return n // unreachable for balanced input
			}
			node = sib
		}
		node >>= 1
	}
	return n
}

// bwdSearch returns the largest j < i with Excess(j) == target; the
// virtual position -1 has excess 0, so a search for 0 may return -1.
// Returns -2 when no such position exists.
func (b *BP) bwdSearch(i, target int) int {
	blk := i / rmmBlockBits
	// Scan back through the current block — but only when the block can
	// contain the target excess at all (Excess(i-1) is the excess after
	// position i-1, the scan's starting value).
	if b.qualifies(b.leafBase+blk, target) {
		blockStart := blk * rmmBlockBits
		if j, ok := b.scanBwd(blockStart, i, b.Excess(i-1), target); ok {
			return j
		}
	}
	node := b.leafBase + blk
	for node > 1 {
		for node&1 == 1 && node != 1 { // right child: try the left sibling
			sib := node - 1
			if b.qualifies(sib, target) {
				node = sib
				for node < b.leafBase {
					if b.qualifies(2*node+1, target) {
						node = 2*node + 1
					} else {
						node = 2 * node
					}
				}
				tb := node - b.leafBase
				lo := tb * rmmBlockBits
				hi := lo + rmmBlockBits
				if hi > b.bv.Len() {
					hi = b.bv.Len()
				}
				eb := b.Excess(hi - 1)
				if j, ok := b.scanBwd(lo, hi, eb, target); ok {
					return j
				}
				return -2 // unreachable for balanced input
			}
			node = sib
		}
		node >>= 1
	}
	if target == 0 {
		return -1
	}
	return -2
}

// scanFwd scans positions [p, hi) for the first j with Excess(j) ==
// target, where e is Excess(p-1).
func (b *BP) scanFwd(p, hi, e, target int) (int, bool) {
	words := b.bv.words
	for p < hi {
		if p&7 == 0 && hi-p >= 8 {
			// Byte-aligned reads never straddle a word boundary.
			byteVal := byte(words[p>>6] >> uint(p&63))
			if e+int(exMin[byteVal]) <= target && target <= e+int(exMax[byteVal]) {
				for j := 0; j < 8; j++ {
					if byteVal>>uint(j)&1 == 1 {
						e++
					} else {
						e--
					}
					if e == target {
						return p + j, true
					}
				}
			}
			e += int(exDelta[byteVal])
			p += 8
			continue
		}
		if b.bv.Get(p) {
			e++
		} else {
			e--
		}
		if e == target {
			return p, true
		}
		p++
	}
	return 0, false
}

// scanBwd scans positions [lo, i) backward for the largest j with
// Excess(j) == target, where e is Excess(i-1).
func (b *BP) scanBwd(lo, i, e, target int) (int, bool) {
	words := b.bv.words
	p := i - 1 // last position to test is p itself (Excess(p))
	for p >= lo {
		if p&7 == 7 && p-7 >= lo {
			// Byte-aligned reads never straddle a word boundary.
			byteVal := byte(words[(p-7)>>6] >> uint((p-7)&63))
			e0 := e - int(exDelta[byteVal]) // excess before the byte
			if e0+int(exMin[byteVal]) <= target && target <= e0+int(exMax[byteVal]) {
				for j := 7; j >= 0; j-- {
					if e == target {
						return p - 7 + j, true
					}
					if byteVal>>uint(j)&1 == 1 {
						e--
					} else {
						e++
					}
				}
			} else {
				e = e0
			}
			p -= 8
			continue
		}
		if e == target {
			return p, true
		}
		if b.bv.Get(p) {
			e--
		} else {
			e++
		}
		p--
	}
	return 0, false
}

// FootprintBytes returns the resident size of the BP including the
// paren bitvector and the rmM tree.
func (b *BP) FootprintBytes() int {
	return b.bv.FootprintBytes() + 4*len(b.minEx) + 4*len(b.maxEx)
}
