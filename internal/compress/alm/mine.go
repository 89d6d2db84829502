package alm

import (
	"bytes"
	"cmp"
	"hash/maphash"
	"slices"
)

// mineTokens extracts a dictionary of candidate tokens from sample
// values. Candidates are:
//
//   - whole values (great for categorical containers: dates, names),
//   - maximal alphanumeric runs, optionally with their trailing space
//     (great for prose), and
//   - common prefixes of lexicographically adjacent distinct values
//     (great for generated identifiers like "person12345").
//
// Each candidate is scored by its net saving: occurrences × (token length
// − code width) minus the dictionary storage it costs. The top maxTokens
// positive-saving candidates are returned, best first, as views of the
// values.
func mineTokens(values [][]byte, maxTokens int) [][]byte {
	const (
		maxValueTok  = 64
		maxDistinct  = 256
		assumedWidth = 2
	)
	t := newTokenTable(values)
	short := make([]int32, 0, len(values)) // the values compared for common prefixes
	for vi, v := range values {
		if len(v) <= maxValueTok {
			t.bump(vi, 0, len(v))
		}
		if len(v) <= maxDistinct {
			short = append(short, int32(vi))
		}
		// alphanumeric runs
		i := 0
		for i < len(v) {
			if !isAlnum(v[i]) {
				i++
				continue
			}
			j := i
			for j < len(v) && isAlnum(v[j]) {
				j++
			}
			t.bump(vi, i, j-i)
			if j < len(v) && v[j] == ' ' {
				t.bump(vi, i, j+1-i) // word plus trailing space
			}
			i = j
		}
	}
	// common prefixes of adjacent distinct values: in sorted order equal
	// values are neighbours, so the unequal neighbour pairs — those whose
	// common prefix is shorter than the greater value — are the adjacent
	// distinct ones.
	slices.SortFunc(short, func(a, b int32) int { return bytes.Compare(values[a], values[b]) })
	for i := 1; i < len(short); i++ {
		a, b := values[short[i-1]], values[short[i]]
		if cp := commonPrefixLen(a, b); cp >= 3 && cp < len(b) {
			t.bump(int(short[i]), 0, cp)
		}
	}

	type scored struct {
		tok  []byte
		gain int64
	}
	cands := make([]scored, 0, t.used)
	for i := range t.slots {
		if e := &t.slots[i]; e.n != 0 {
			gain := int64(e.count)*int64(e.n-assumedWidth) - int64(e.n+4)
			if gain > 0 {
				cands = append(cands, scored{t.token(e), gain})
			}
		}
	}
	slices.SortFunc(cands, func(a, b scored) int {
		if a.gain != b.gain {
			return cmp.Compare(b.gain, a.gain)
		}
		return bytes.Compare(a.tok, b.tok)
	})
	if len(cands) > maxTokens {
		cands = cands[:maxTokens]
	}
	out := make([][]byte, len(cands))
	for i, c := range cands {
		out[i] = c.tok
	}
	return out
}

// maxTokenLen bounds a candidate token; shorter than two bytes it saves
// nothing over the single-byte tokens.
const maxTokenLen = 64

// tokenTable counts candidate tokens: an open-addressing hash table whose
// keys are (value, offset, length) triples into the values being mined, so
// that counting copies no token and the table holds no pointers for the
// collector to trace. It starts small — most containers are — and
// doubles when half full.
type tokenTable struct {
	values [][]byte
	slots  []tokenSlot
	used   int
}

// tokenSlot is 24 bytes. Its 32-bit fields bound the training input to
// 2^32 values and 2^32 occurrences of one token — more than 8 GB of
// values, which an in-memory loader does not meet.
type tokenSlot struct {
	off   int // values[vi][off:off+n] is the token's first occurrence
	vi    uint32
	n     uint32 // 0 marks a free slot
	hash  uint32
	count uint32
}

var tokenSeed = maphash.MakeSeed()

func newTokenTable(values [][]byte) *tokenTable {
	size := 16
	for size < 2*len(values) && size < 1<<12 {
		size *= 2
	}
	return &tokenTable{values: values, slots: make([]tokenSlot, size)}
}

func (t *tokenTable) token(e *tokenSlot) []byte {
	return t.values[e.vi][e.off : e.off+int(e.n) : e.off+int(e.n)]
}

// bump counts one occurrence of the token values[vi][off:off+n].
func (t *tokenTable) bump(vi, off, n int) {
	if n < 2 || n > maxTokenLen {
		return
	}
	tok := t.values[vi][off : off+n]
	h := uint32(maphash.Bytes(tokenSeed, tok))
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.n == 0 {
			*e = tokenSlot{off: off, vi: uint32(vi), n: uint32(n), hash: h, count: 1}
			if t.used++; 2*t.used > len(t.slots) {
				t.grow()
			}
			return
		}
		if e.hash == h && int(e.n) == n && bytes.Equal(t.token(e), tok) {
			e.count++
			return
		}
	}
}

func (t *tokenTable) grow() {
	old := t.slots
	t.slots = make([]tokenSlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, e := range old {
		if e.n == 0 {
			continue
		}
		i := int(e.hash) & mask
		for t.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

func isAlnum(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// Compare compares two ALM-encoded values; because the scheme is
// order-preserving this is simply bytes.Compare, exposed for clarity at
// call sites.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }
