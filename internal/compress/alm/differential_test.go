package alm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

func assertSameDecode(t *testing.T, c *Codec, enc []byte) {
	t.Helper()
	got, errGot := c.Decode(nil, enc)
	ref, errRef := c.DecodeReference(nil, enc)
	if !bytes.Equal(got, ref) || !sameError(errGot, errRef) {
		t.Fatalf("decode mismatch on %x:\n fast %q err=%v\n ref  %q err=%v",
			enc, got, errGot, ref, errRef)
	}
	// Decode writes words into dst's spare capacity: what is already in
	// dst must survive whether there is no room, a little, or plenty.
	const head = "kept"
	for _, room := range []int{0, 3, decodeSlack, 4096} {
		dst := append(make([]byte, 0, len(head)+room), head...)
		got, errGot := c.Decode(dst, enc)
		if string(got) != head+string(ref) || !sameError(errGot, errRef) {
			t.Fatalf("decode of %x into a buffer with room %d: %q err=%v, reference %q err=%v",
				enc, room, got, errGot, ref, errRef)
		}
	}
}

// appendCode appends the code of interval idx.
func (c *Codec) appendCode(dst []byte, idx int) []byte {
	if c.codeWidth == 2 {
		dst = append(dst, byte(idx>>8))
	}
	return append(dst, byte(idx))
}

// diffValues mixes corpus-like strings with unseen and binary values so
// the automaton is tested inside and outside the mined distribution.
func diffValues(rng *rand.Rand, corpus [][]byte, n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			out = append(out, corpus[rng.Intn(len(corpus))])
		case 1: // mutated corpus value
			v := append([]byte(nil), corpus[rng.Intn(len(corpus))]...)
			if len(v) > 0 {
				v[rng.Intn(len(v))] = byte(rng.Intn(256))
			}
			out = append(out, v)
		case 2: // random binary, including NULs and 0xff
			v := make([]byte, rng.Intn(40))
			rng.Read(v)
			out = append(out, v)
		default: // random ASCII
			v := make([]byte, rng.Intn(60))
			for j := range v {
				v[j] = byte(' ' + rng.Intn(95))
			}
			out = append(out, v)
		}
	}
	return out
}

// TestDifferentialAutomaton locks the encode automaton and flattened
// decode table to the retained reference implementations:
// byte-identical encodes, identical decodes, identical errors on
// truncated and corrupt input.
func TestDifferentialAutomaton(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	corpora := map[string][][]byte{
		"prose": proseSample,
	}

	urls := make([][]byte, 200)
	parts := []string{"http://", "www.", "example", ".com/", "item", "bid", "?id="}
	for i := range urls {
		var b []byte
		for j := 0; j < 1+rng.Intn(6); j++ {
			b = append(b, parts[rng.Intn(len(parts))]...)
		}
		urls[i] = b
	}
	corpora["urls"] = urls

	binary := make([][]byte, 150)
	for i := range binary {
		b := make([]byte, rng.Intn(30))
		for j := range b {
			b[j] = byte(rng.Intn(8)) * 0x21 // sparse byte alphabet with 0x00
		}
		binary[i] = b
	}
	corpora["binary"] = binary

	for name, corpus := range corpora {
		t.Run(name, func(t *testing.T) {
			c := train(t, corpus)
			for _, v := range diffValues(rng, corpus, 400) {
				enc, err := c.Encode(nil, v)
				ref, errRef := c.EncodeReference(nil, v)
				if !bytes.Equal(enc, ref) || !sameError(err, errRef) {
					t.Fatalf("encode mismatch for %q:\n fast %x err=%v\n ref  %x err=%v",
						v, enc, err, ref, errRef)
				}
				if err != nil {
					continue
				}
				assertSameDecode(t, c, enc)
				// Truncations at every byte boundary (for codeWidth 2 this
				// includes odd lengths, which must error identically).
				for cut := 0; cut < len(enc); cut++ {
					assertSameDecode(t, c, enc[:cut])
				}
				// Corruptions, including codes pushed out of range.
				for k := 0; k < 4 && len(enc) > 0; k++ {
					bad := append([]byte(nil), enc...)
					bad[rng.Intn(len(bad))] ^= byte(1 << uint(rng.Intn(8)))
					assertSameDecode(t, c, bad)
				}
			}
			// Values of no, one and two tokens.
			assertSameDecode(t, c, nil)
			for idx := 0; idx < c.n; idx += 1 + c.n/97 {
				one := c.appendCode(nil, idx)
				assertSameDecode(t, c, one)
				assertSameDecode(t, c, c.appendCode(one, c.n-1-idx))
			}
			// Pure-garbage code streams.
			for k := 0; k < 100; k++ {
				garbage := make([]byte, rng.Intn(12))
				rng.Read(garbage)
				assertSameDecode(t, c, garbage)
			}
		})
	}
}

// TestSecondLevelIndexAgreesWithLocate cross-checks the automaton's
// bucketed binary search against the reference locate() on adversarial
// suffixes around every interval boundary.
func TestSecondLevelIndexAgreesWithLocate(t *testing.T) {
	corpus := make([][]byte, 0, 64)
	for _, w := range []string{"their", "there", "these", "the", "them", "then",
		"that", "this", "those", "thou", "through", "throw"} {
		for i := 0; i < 5; i++ {
			corpus = append(corpus, []byte(w))
		}
	}
	c := train(t, corpus)
	probe := func(s []byte) {
		t.Helper()
		want, err := c.locate(s)
		if err != nil {
			t.Fatalf("locate(%q): %v", s, err)
		}
		enc, encErr := c.Encode(nil, s)
		refEnc, refErr := c.EncodeReference(nil, s)
		if !sameError(encErr, refErr) || !bytes.Equal(enc, refEnc) {
			t.Fatalf("probe %q: fast %x (%v) vs ref %x (%v); locate=%d",
				s, enc, encErr, refEnc, refErr, want)
		}
	}
	for i := 0; i < c.n; i++ {
		lo := c.lo(i)
		probe(lo)
		probe(append(append([]byte(nil), lo...), 0x00))
		probe(append(append([]byte(nil), lo...), 0xff))
		if n := len(lo); n > 0 {
			below := append([]byte(nil), lo...)
			if below[n-1] > 0 {
				below[n-1]--
				probe(below)
			}
			above := append([]byte(nil), lo...)
			if above[n-1] < 0xff {
				above[n-1]++
				probe(above)
			}
		}
	}
}

// mineCorpora are the value-list shapes the miner's three candidate
// kinds each respond to, plus the degenerate ones.
func mineCorpora(rng *rand.Rand) map[string][][]byte {
	words := []string{"the", "quick", "auction", "of", "gold", "and", "silver", "mine", "zephyr", "a", "an", "1999", "x86"}
	corpora := map[string][][]byte{
		"empty":    nil,
		"one-byte": {[]byte("a"), []byte(""), []byte("b"), []byte("a")},
		"one":      {[]byte("solitary value")},
	}
	var random, prose, ids, enum, long [][]byte
	for i := 0; i < 400; i++ {
		v := make([]byte, rng.Intn(40))
		for j := range v {
			v[j] = "ab1 -\x00\xc3"[rng.Intn(7)] // few enough symbols that runs repeat
		}
		random = append(random, v)

		var sb []byte
		for n := 1 + rng.Intn(30); n > 0; n-- {
			sb = append(sb, words[rng.Intn(len(words))]...)
			sb = append(sb, " ,.-"[rng.Intn(4)])
			if rng.Intn(3) > 0 {
				sb = append(sb, ' ')
			}
		}
		prose = append(prose, sb)

		ids = append(ids, []byte(fmt.Sprintf("person%d", rng.Intn(3000))))
		enum = append(enum, []byte([]string{"Yes", "No", "Creditcard", "Cash", "Money order"}[rng.Intn(5)]))
		// Past the whole-value, distinct-value and token length limits.
		long = append(long, bytes.Repeat([]byte(words[rng.Intn(len(words))]), 1+rng.Intn(90)))
	}
	corpora["random"], corpora["prose"], corpora["identifiers"] = random, prose, ids
	corpora["enumeration"], corpora["long"] = enum, long
	corpora["mixed"] = slices.Concat(prose[:50], ids[:100], enum[:30], random[:20], long[:10])
	return corpora
}

// TestMineTokens checks the token table against the map-based miner it
// replaced: the same tokens in the same order, at caps that cut the
// candidate list and caps that do not.
func TestMineTokens(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for name, values := range mineCorpora(rand.New(rand.NewSource(seed))) {
			for _, max := range []int{0, 1, 7, 100, DefaultMaxTokens} {
				got, want := mineTokens(values, max), mineTokensReference(values, max)
				if len(got) != len(want) {
					t.Fatalf("%s (seed %d, max %d): %d tokens, reference %d", name, seed, max, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s (seed %d, max %d): token %d = %q, reference %q", name, seed, max, i, got[i], want[i])
					}
				}
			}
		}
	}
}
