package succinct

// A balanced-parentheses sequence (bit 1 = open, 0 = close) is a
// Bitvector read by forward sweeps only: rank and select place a node's
// open paren, and everything after it is read in order. Excess — opens
// minus closes up to a position, the depth there — is never searched
// for, so no directory beyond rank/select is built over the parens.

// Byte excess tables: for a byte b (bit 0 processed first), exDelta is
// the excess change over its 8 bits and exMin the lowest running excess
// reached after any of them, both relative to 0 before the byte.
var exDelta, exMin [256]int8

func init() {
	for b := 0; b < 256; b++ {
		e, mn := 0, 127
		for j := 0; j < 8; j++ {
			if b>>uint(j)&1 == 1 {
				e++
			} else {
				e--
			}
			mn = min(mn, e)
		}
		exDelta[b] = int8(e)
		exMin[b] = int8(mn)
	}
}

// FindClose returns the position of the close paren matching the open
// paren at i, or Len() when none follows.
func (v *Bitvector) FindClose(i int) int { return v.ScanClose(i+1, v.n, 1) }

// ScanClose returns the first position in [from, to) at which the excess
// falls d below its value before from — the close of the d-th innermost
// node open there — or to when it does not fall that far before to.
// It scans forward, a whole byte at a time wherever exMin shows the
// running excess cannot fall that far inside it, so it costs time linear
// in the span it crosses and reads no directory.
func (v *Bitvector) ScanClose(from, to, d int) int {
	words := v.words
	e := d // how far the excess may still fall
	for p := from; p < to; p++ {
		if p&7 == 0 && to-p >= 8 {
			// Byte-aligned reads never straddle a word boundary.
			if b := byte(words[p>>6] >> uint(p&63)); e+int(exMin[b]) > 0 {
				e += int(exDelta[b])
				p += 7
				continue
			}
		}
		if words[p>>6]>>(uint(p)&63)&1 == 1 {
			e++
		} else if e--; e == 0 {
			return p
		}
	}
	return to
}
