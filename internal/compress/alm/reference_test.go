package alm

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// The reference implementation: the original map-dedup / sort /
// prefix-forest / recursive-emit construction with one heap slice per
// interval, and sort.Search-based coders over that list. The production
// builder, encode automaton and flattened decode table are all checked
// against it; it shares nothing with them but the codec's token set.

type interval struct {
	lo     []byte
	prefix []byte
}

type refCodec struct {
	intervals []interval
	codeWidth int
	byFirst   [257]int
}

var refCodecs sync.Map // *Codec -> *refCodec

// reference returns the reference codec over c's dictionary.
func reference(c *Codec) *refCodec {
	if r, ok := refCodecs.Load(c); ok {
		return r.(*refCodec)
	}
	var toks [][]byte
	for t := range c.tokens() {
		toks = append(toks, t)
	}
	r, _ := refCodecs.LoadOrStore(c, buildReference(toks))
	return r.(*refCodec)
}

func buildReference(extra [][]byte) *refCodec {
	seen := make(map[string]bool, len(extra)+256)
	tokens := make([][]byte, 0, len(extra)+256)
	for b := 0; b < 256; b++ {
		t := []byte{byte(b)}
		seen[string(t)] = true
		tokens = append(tokens, t)
	}
	for _, t := range extra {
		if len(t) < 2 || seen[string(t)] {
			continue
		}
		seen[string(t)] = true
		tokens = append(tokens, append([]byte(nil), t...))
	}
	sort.Slice(tokens, func(i, j int) bool { return bytes.Compare(tokens[i], tokens[j]) < 0 })

	// Build the prefix forest: in lexicographic order a token's parent is
	// the nearest preceding token that prefixes it.
	type node struct {
		tok      []byte
		children []int
	}
	nodes := make([]node, len(tokens))
	roots := make([]int, 0, 256)
	var stack []int
	for i, t := range tokens {
		nodes[i].tok = t
		for len(stack) > 0 && !bytes.HasPrefix(t, nodes[stack[len(stack)-1]].tok) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, i)
		} else {
			p := stack[len(stack)-1]
			nodes[p].children = append(nodes[p].children, i)
		}
		stack = append(stack, i)
	}

	r := &refCodec{}
	// emit recursively: for each token range [tok, succ(tok)), interleave
	// gap intervals (carrying the parent prefix) with child sub-ranges.
	var emit func(idx int)
	emit = func(idx int) {
		n := nodes[idx]
		cur := n.tok
		for _, ch := range n.children {
			chLo := nodes[ch].tok
			if bytes.Compare(cur, chLo) < 0 {
				r.intervals = append(r.intervals, interval{lo: cur, prefix: n.tok})
			}
			emit(ch)
			cur = appendSucc(nil, nodes[ch].tok)
			if cur == nil {
				return // child range extends to +inf
			}
		}
		hi := appendSucc(nil, n.tok)
		if hi == nil || bytes.Compare(cur, hi) < 0 {
			r.intervals = append(r.intervals, interval{lo: cur, prefix: n.tok})
		}
	}
	for _, root := range roots {
		emit(root)
	}
	r.codeWidth = 1
	if len(r.intervals) > 256 {
		r.codeWidth = 2
	}
	i := 0
	for b := 0; b < 256; b++ {
		r.byFirst[b] = i
		for i < len(r.intervals) && r.intervals[i].lo[0] == byte(b) {
			i++
		}
	}
	r.byFirst[256] = len(r.intervals)
	return r
}

// locate returns the index of the interval containing s, searching only
// the bucket of s's first byte.
func (r *refCodec) locate(s []byte) (int, error) {
	lo, hi := r.byFirst[s[0]], r.byFirst[int(s[0])+1]
	idx := lo + sort.Search(hi-lo, func(i int) bool {
		return bytes.Compare(r.intervals[lo+i].lo, s) > 0
	}) - 1
	if idx < lo {
		return 0, fmt.Errorf("alm: string %q below interval space", s)
	}
	return idx, nil
}

func (c *Codec) locate(s []byte) (int, error) { return reference(c).locate(s) }

// EncodeReference is the sort.Search-based encoder.
func (c *Codec) EncodeReference(dst, value []byte) ([]byte, error) {
	r := reference(c)
	s := value
	for len(s) > 0 {
		idx, err := r.locate(s)
		if err != nil {
			return dst, err
		}
		p := r.intervals[idx].prefix
		if !bytes.HasPrefix(s, p) {
			return dst, fmt.Errorf("alm: internal error: interval %d prefix %q does not prefix %q", idx, p, s)
		}
		if r.codeWidth == 2 {
			dst = append(dst, byte(idx>>8), byte(idx))
		} else {
			dst = append(dst, byte(idx))
		}
		s = s[len(p):]
	}
	return dst, nil
}

// DecodeReference is the per-interval-slice decoder.
func (c *Codec) DecodeReference(dst, enc []byte) ([]byte, error) {
	r := reference(c)
	if len(enc)%r.codeWidth != 0 {
		return dst, fmt.Errorf("alm: encoded length %d not a multiple of code width %d", len(enc), r.codeWidth)
	}
	for i := 0; i < len(enc); i += r.codeWidth {
		var idx int
		if r.codeWidth == 2 {
			idx = int(enc[i])<<8 | int(enc[i+1])
		} else {
			idx = int(enc[i])
		}
		if idx >= len(r.intervals) {
			return dst, fmt.Errorf("alm: code %d out of range (%d intervals)", idx, len(r.intervals))
		}
		dst = append(dst, r.intervals[idx].prefix...)
	}
	return dst, nil
}

// mineTokensReference is the miner the open-addressing token table
// replaced: candidates counted in a map[string]int64 keyed by a copy of
// each token, distinct values collected in a map[string]bool. Same
// candidates, same scores, same tie-break — the oracle of TestMineTokens.
func mineTokensReference(values [][]byte, maxTokens int) [][]byte {
	const (
		maxTokenLen  = 64
		maxValueTok  = 64
		assumedWidth = 2
	)
	counts := make(map[string]int64, 1<<12)
	bump := func(tok []byte) {
		if len(tok) >= 2 && len(tok) <= maxTokenLen {
			counts[string(tok)]++
		}
	}
	distinct := make(map[string]bool, len(values))
	for _, v := range values {
		if len(v) <= maxValueTok {
			bump(v)
		}
		if len(v) <= 256 {
			distinct[string(v)] = true
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
			bump(v[i:j])
			if j < len(v) && v[j] == ' ' {
				bump(v[i : j+1]) // word plus trailing space
			}
			i = j
		}
	}
	// common prefixes of adjacent distinct values
	sorted := make([]string, 0, len(distinct))
	for s := range distinct {
		sorted = append(sorted, s)
	}
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		cp := sorted[i][:commonPrefixLen(sorted[i-1], sorted[i])]
		if len(cp) >= 3 && len(cp) <= maxTokenLen {
			counts[cp]++
		}
	}

	type scored struct {
		tok  string
		gain int64
	}
	cands := make([]scored, 0, len(counts))
	for tok, n := range counts {
		gain := n*int64(len(tok)-assumedWidth) - int64(len(tok)+4)
		if gain > 0 {
			cands = append(cands, scored{tok, gain})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		return cands[i].tok < cands[j].tok
	})
	if len(cands) > maxTokens {
		cands = cands[:maxTokens]
	}
	out := make([][]byte, len(cands))
	for i, c := range cands {
		out[i] = []byte(c.tok)
	}
	return out
}
