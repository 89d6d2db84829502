package alm

import "fmt"

// MaxMatchLiteral is the longest literal a Matcher takes: its states,
// 0 to the literal's length, fit a byte.
const MaxMatchLiteral = 254

// Matcher tests encoded values for one literal without decoding them:
// contains, or — built with suffix — ends-with. Decode only concatenates
// the prefixes of the codes, so the KMP automaton of the literal, run
// over a code's prefix from each state, gives the code's transition
// δ(state, code), and a value costs one table lookup per code (compressed
// pattern matching over a dictionary code, as in Shibata et al.'s
// byte-pair matching). Safe for concurrent use.
type Matcher struct {
	// tab[code*stride+state] is δ(state, code), code-major, so the
	// states of one code share a cache line.
	tab    []uint8
	stride int   // states: the literal's length + 1
	accept uint8 // the literal's length
	width  int   // bytes per code
	n      int   // codes
}

// MatcherBytes is the table size of a matcher for a literal of n bytes.
func (c *Codec) MatcherBytes(n int) int {
	c.index()
	return c.n * (n + 1)
}

// Matcher builds the matcher of p, 1 to MaxMatchLiteral bytes long. For
// contains the accepting state absorbs; for ends-with (suffix) it does
// not, and a value matches when it ends in it.
func (c *Codec) Matcher(p []byte, suffix bool) (*Matcher, error) {
	if len(p) == 0 || len(p) > MaxMatchLiteral {
		return nil, fmt.Errorf("alm: a matcher takes 1 to %d bytes, not %d", MaxMatchLiteral, len(p))
	}
	c.index()
	m := len(p)
	stride := m + 1
	// The byte automaton, dfa[state<<8|b]: state s has read p[:s], and x
	// is the state of the longest proper border of p[:s].
	dfa := make([]uint8, stride<<8)
	dfa[int(p[0])] = 1
	x := 0
	for s := 1; s <= m; s++ {
		row := dfa[s<<8 : (s+1)<<8]
		switch {
		case s < m:
			copy(row, dfa[x<<8:(x+1)<<8])
			row[p[s]] = uint8(s + 1)
			x = int(dfa[x<<8|int(p[s])])
		case suffix:
			copy(row, dfa[x<<8:(x+1)<<8])
		default:
			for b := range row {
				row[b] = uint8(m)
			}
		}
	}
	tab := make([]uint8, c.n*stride)
	var path []uint8 // the states of the run from state 0 over a token
	for code := 0; code < c.n; code++ {
		tok := c.prefix(code)
		path = path[:0]
		st := 0
		for _, b := range tok {
			st = int(dfa[st<<8|int(b)])
			path = append(path, uint8(st))
		}
		row := tab[code*stride : (code+1)*stride]
		row[0] = uint8(st)
		// The run from any other state ends where state 0's does once the
		// two meet, most often after a byte.
		for s := 1; s < stride; s++ {
			st := s
			for k, b := range tok {
				if st = int(dfa[st<<8|int(b)]); st == int(path[k]) {
					st = int(path[len(path)-1])
					break
				}
			}
			row[s] = uint8(st)
		}
	}
	return &Matcher{tab: tab, stride: stride, accept: uint8(m), width: c.codeWidth, n: c.n}, nil
}

// SizeBytes is the size of the matcher's table.
func (m *Matcher) SizeBytes() int { return len(m.tab) }

// Match reports whether the value enc encodes contains the literal (ends
// with it, for a suffix matcher). It fails as Decode does, and on the
// same inputs: a ragged length or a code out of range is an error, never
// an answer.
func (m *Matcher) Match(enc []byte) (bool, error) {
	if len(enc)%m.width != 0 {
		return false, fmt.Errorf("alm: encoded length %d not a multiple of code width %d", len(enc), m.width)
	}
	tab, stride, st := m.tab, m.stride, 0
	if m.width == 1 {
		for _, b := range enc {
			if int(b) >= m.n {
				return false, fmt.Errorf("alm: code %d out of range (%d intervals)", b, m.n)
			}
			st = int(tab[int(b)*stride+st])
		}
		return st == int(m.accept), nil
	}
	for i := 0; i+1 < len(enc); i += 2 {
		code := int(enc[i])<<8 | int(enc[i+1])
		if code >= m.n {
			return false, fmt.Errorf("alm: code %d out of range (%d intervals)", code, m.n)
		}
		st = int(tab[code*stride+st])
	}
	return st == int(m.accept), nil
}
