package xmlparser

import (
	"bytes"
	"testing"
)

// escapeOracle escapes b one byte at a time through the replacement
// table — what the escapers did before they skipped words.
func escapeOracle(b []byte, esc *[256]uint8) []byte {
	var out []byte
	for _, c := range b {
		if e := esc[c]; e != 0 {
			out = append(out, escapes[e]...)
		} else {
			out = append(out, c)
		}
	}
	return out
}

// checkEscape holds EscapeTextFrom and EscapeAttrFrom to the oracle on b
// from every offset: below it the bytes stay as they are.
func checkEscape(t *testing.T, b []byte) {
	t.Helper()
	for _, e := range []struct {
		name string
		fn   func([]byte, int) []byte
		esc  *[256]uint8
	}{{"text", EscapeTextFrom, &textEsc}, {"attr", EscapeAttrFrom, &attrEsc}} {
		for from := 0; from <= len(b); from++ {
			got := e.fn(append([]byte(nil), b...), from)
			want := append(append([]byte(nil), b[:from]...), escapeOracle(b[from:], e.esc)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s from %d of %q:\n got %q\nwant %q", e.name, from, b, got, want)
			}
		}
	}
}

// escapeSeeds are the inputs the word skip has edges at: every length up
// to eight words and one longer, each special byte alone at every place
// in the first two words, and bytes at and above 0x80 around them.
func escapeSeeds() [][]byte {
	var seeds [][]byte
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ab 0\xc3\xa9\x80\xff"[i%8]
		}
		return b
	}
	for n := 0; n <= 64; n++ {
		seeds = append(seeds, fill(n))
	}
	seeds = append(seeds, fill(200))
	for _, c := range []byte("<>&\"\t\n\r") {
		for at := 0; at < 16; at++ {
			b := fill(24)
			b[at] = c
			seeds = append(seeds, b)
		}
		b := fill(200)
		b[199] = c
		seeds = append(seeds, b)
	}
	// Bytes one bit from a special, which the folded comparisons must
	// let through.
	seeds = append(seeds, []byte("=?$'\x0b\x08\x0c\x0e:;<\x8c\xbc\xbe\xa6xxxxxxxx"))
	return seeds
}

func TestEscapeWords(t *testing.T) {
	for _, b := range escapeSeeds() {
		checkEscape(t, b)
	}
	for c := 0; c < 256; c++ {
		b := bytes.Repeat([]byte{'x'}, 17)
		b[9] = byte(c)
		checkEscape(t, b)
	}
}

// FuzzEscape holds the escapers to the byte-at-a-time oracle from every
// offset of a fuzzed value.
func FuzzEscape(f *testing.F) {
	for _, b := range escapeSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 512 {
			b = b[:512]
		}
		checkEscape(t, b)
	})
}
