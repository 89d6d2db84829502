package alm

import (
	"bytes"
	"sort"
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
// positive-saving candidates are returned.
func mineTokens(values [][]byte, maxTokens int) [][]byte {
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

func isAlnum(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// Compare compares two ALM-encoded values; because the scheme is
// order-preserving this is simply bytes.Compare, exposed for clarity at
// call sites.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }
