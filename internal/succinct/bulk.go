package succinct

import "math/bits"

// Bulk scanners: cursors over a bitvector (or the paren sequence) that
// answer ascending Select1 queries by walking the words forward from
// the previous answer instead of re-running the directory search each
// time. Sorted pre-order inputs — the algebra invariant — make the
// whole batch one sequential pass: total work is O(words traversed +
// queries), one popcount per word, so dense batches cost a few ns per
// item where scalar Select1 costs tens. A query far ahead of the
// cursor re-seeds via the scalar directories, so sparse batches never
// degrade below the scalar path.

// selReseedGap is the minimum ones-distance between the cursor and the
// target before a scanner abandons the sequential walk and re-seeds
// with scalar Select1. The walk costs one popcount per 64 bits, so it
// beats the directory search (a few dozen ns) only while the gap stays
// within a few hundred ones.
const selReseedGap = 512

// SelectScanner answers ascending Select1 queries over a bitvector.
type SelectScanner struct {
	v    *Bitvector
	w    int // next word to examine
	rank int // ones before word w
}

// NewSelectScanner returns a scanner positioned at the start.
func NewSelectScanner(v *Bitvector) SelectScanner {
	return SelectScanner{v: v}
}

// Seek returns the position of the k-th set bit (0-based). Successive
// calls must not decrease k.
func (s *SelectScanner) Seek(k int) int {
	if k-s.rank > selReseedGap {
		p := s.v.Select1(k)
		s.w = p >> 6
		// Ones before word w: k minus the ones of word w preceding p.
		s.rank = k - bits.OnesCount64(s.v.words[s.w]&(1<<uint(p&63)-1))
		return p
	}
	words := s.v.words
	for {
		c := bits.OnesCount64(words[s.w])
		if s.rank+c > k {
			return s.w<<6 + selectWord(words[s.w], k-s.rank)
		}
		s.rank += c
		s.w++
	}
}
