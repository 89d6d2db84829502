package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("abc"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte(strings.Repeat("abcabcabc", 100)),
		[]byte("no repeats here!?"),
		bytes.Repeat([]byte{0x00}, 1000),
	}
	for _, v := range cases {
		enc := Compress(nil, v)
		dec, err := Decompress(nil, enc)
		if err != nil {
			t.Fatalf("Decompress(%q...): %v", truncate(v), err)
		}
		if !bytes.Equal(dec, v) {
			t.Fatalf("round trip failed for %q", truncate(v))
		}
	}
}

func truncate(v []byte) []byte {
	if len(v) > 24 {
		return v[:24]
	}
	return v
}

func TestCompressesRepetitiveData(t *testing.T) {
	v := []byte(strings.Repeat("<item id=\"42\"><name>gold ring</name></item>", 200))
	enc := Compress(nil, v)
	if len(enc) > len(v)/4 {
		t.Fatalf("repetitive XML compressed to %d of %d bytes; want <= 25%%", len(enc), len(v))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(v []byte) bool {
		enc := Compress(nil, v)
		dec, err := Decompress(nil, enc)
		return err == nil && bytes.Equal(dec, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripLowEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(5000)
		v := make([]byte, n)
		for i := range v {
			v[i] = byte('a' + rng.Intn(4)) // low-entropy -> many matches
		}
		enc := Compress(nil, v)
		dec, err := Decompress(nil, enc)
		if err != nil || !bytes.Equal(dec, v) {
			t.Fatalf("trial %d: round trip failed (n=%d, err=%v)", trial, n, err)
		}
	}
}

func TestLongMatchesSpanWindow(t *testing.T) {
	// Repetition with period near the window boundary.
	unit := make([]byte, windowSize-7)
	rng := rand.New(rand.NewSource(9))
	for i := range unit {
		unit[i] = byte(rng.Intn(256))
	}
	v := append(append([]byte{}, unit...), unit...)
	enc := Compress(nil, v)
	dec, err := Decompress(nil, enc)
	if err != nil || !bytes.Equal(dec, v) {
		t.Fatal("window-boundary round trip failed")
	}
	if len(enc) > len(v)*3/4 {
		t.Fatalf("period-%d repetition should compress; got %d of %d", len(unit), len(enc), len(v))
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	// Match token referring before the start of output.
	bad := []byte{0x01, 0xff, 0xff, 0x00}
	if _, err := Decompress(nil, bad); err == nil {
		t.Fatal("invalid back-reference accepted")
	}
	// Truncated match token.
	bad2 := []byte{0x01, 0x00}
	if _, err := Decompress(nil, bad2); err == nil {
		t.Fatal("truncated token accepted")
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	prefix := []byte("prefix:")
	enc := Compress(nil, []byte("hello hello hello hello"))
	out, err := Decompress(append([]byte{}, prefix...), enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) || string(out[len(prefix):]) != "hello hello hello hello" {
		t.Fatalf("append semantics broken: %q", out)
	}
}

func TestCodecInterface(t *testing.T) {
	c := Codec{}
	if c.Name() != "blob" {
		t.Fatalf("Name = %q", c.Name())
	}
	p := c.Props()
	if p.Eq || p.Wild || p.OrderPreserving {
		t.Fatalf("blob must support nothing in the compressed domain: %+v", p)
	}
	enc, err := c.Encode(nil, []byte("xyzzy xyzzy"))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(nil, enc)
	if err != nil || string(dec) != "xyzzy xyzzy" {
		t.Fatalf("codec round trip: %q %v", dec, err)
	}
}

func BenchmarkCompressXMLish(b *testing.B) {
	v := []byte(strings.Repeat("<person id=\"p123\"><name>Jo Doe</name><city>Rome</city></person>", 500))
	b.SetBytes(int64(len(v)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = Compress(dst[:0], v)
	}
}

func BenchmarkDecompressXMLish(b *testing.B) {
	v := []byte(strings.Repeat("<person id=\"p123\"><name>Jo Doe</name><city>Rome</city></person>", 500))
	enc := Compress(nil, v)
	b.SetBytes(int64(len(v)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst, _ = Decompress(dst[:0], enc)
	}
}

// decompressRef is the byte-at-a-time decoder: every byte of a match is
// appended from dist bytes back, so an overlapping match repeats its
// period by construction. Decompress is held to it.
func decompressRef(dst, enc []byte) ([]byte, error) {
	base := len(dst)
	for i := 0; i < len(enc); {
		flags := enc[i]
		i++
		for bit := 0; bit < 8 && i < len(enc); bit++ {
			if flags&(1<<uint(bit)) == 0 {
				dst = append(dst, enc[i])
				i++
				continue
			}
			if i+3 > len(enc) {
				return dst, errRef
			}
			dist := int(binary.LittleEndian.Uint16(enc[i:])) + 1
			length := int(enc[i+2]) + minMatch
			i += 3
			start := len(dst) - dist
			if start < base {
				return dst, errRef
			}
			for k := 0; k < length; k++ {
				dst = append(dst, dst[start+k])
			}
		}
	}
	return dst, nil
}

var errRef = errors.New("corrupt")

// token is one LZSS token: a literal byte when dist is 0, else a match.
type token struct {
	lit          byte
	dist, length int
}

func literals(b []byte) []token {
	ts := make([]token, len(b))
	for i, c := range b {
		ts[i] = token{lit: c}
	}
	return ts
}

// encodeTokens writes tokens in the codec's format, eight to a flag byte.
func encodeTokens(ts []token) []byte {
	var enc []byte
	flagPos := 0
	for i, t := range ts {
		if i%8 == 0 {
			flagPos = len(enc)
			enc = append(enc, 0)
		}
		if t.dist == 0 {
			enc = append(enc, t.lit)
			continue
		}
		enc[flagPos] |= 1 << uint(i%8)
		enc = binary.LittleEndian.AppendUint16(enc, uint16(t.dist-1))
		enc = append(enc, byte(t.length-minMatch))
	}
	return enc
}

// checkAgainstRef decodes enc with Decompress and with decompressRef,
// into an empty dst and behind a prefix, and fails on any difference in
// output or in whether an error occurred.
func checkAgainstRef(t *testing.T, name string, enc []byte) {
	t.Helper()
	for _, prefix := range [][]byte{nil, []byte("prefix:")} {
		want, wantErr := decompressRef(append([]byte(nil), prefix...), enc)
		got, err := Decompress(append([]byte(nil), prefix...), enc)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s (prefix %q): err = %v, reference err = %v", name, prefix, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s (prefix %q): Decompress differs from the byte-at-a-time reference", name, prefix)
		}
		if err != nil && !bytes.Equal(got, prefix) {
			t.Fatalf("%s (prefix %q): a refused input appended %d bytes", name, prefix, len(got)-len(prefix))
		}
	}
}

// TestDecompressMatchesReference holds the word-copying decoder to the
// byte-at-a-time one on the match shapes where a copy can go wrong:
// overlapping matches (distance 1, distance below the length), the
// boundary where source and target touch (distance = length), the
// longest match and the farthest distance.
func TestDecompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	far := literals(random(windowSize))
	cases := []struct {
		name string
		toks []token
	}{
		{"distance 1", append(literals([]byte("a")), token{dist: 1, length: 10})},
		{"distance 1, length 259", append(literals([]byte("z")), token{dist: 1, length: maxMatch})},
		{"distance < length", append(literals([]byte("abc")), token{dist: 3, length: 20})},
		{"distance 7 < length 259", append(literals(random(7)), token{dist: 7, length: maxMatch})},
		{"distance = length", append(literals([]byte("abcd")), token{dist: 4, length: 4})},
		{"distance = length 259", append(literals(random(maxMatch)), token{dist: maxMatch, length: maxMatch})},
		{"length 259, far source", append(literals(random(300)), token{dist: 300, length: maxMatch})},
		{"distance 65536", append(append([]token(nil), far...), token{dist: windowSize, length: maxMatch}, token{dist: windowSize, length: minMatch})},
		{"chained matches", append(literals([]byte("xy")), token{dist: 2, length: 9}, token{dist: 1, length: 5}, token{lit: 'q'}, token{dist: 11, length: 11})},
		{"distance past the start", append(literals([]byte("ab")), token{dist: 3, length: 4})},
	}
	for _, c := range cases {
		checkAgainstRef(t, c.name, encodeTokens(c.toks))
	}
	for _, enc := range [][]byte{{0x01, 0x00}, {0x02, 'a', 0x00, 0x00}, {0x00}, {0xff}} {
		checkAgainstRef(t, "truncated", enc)
	}
}

// FuzzLZSS: Decompress inverts Compress on any input, and on arbitrary
// bytes returns an error or the reference's output, never a panic.
func FuzzLZSS(f *testing.F) {
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 600))
	f.Add([]byte{0x01, 0x00, 0x00, 0x05})
	f.Add(encodeTokens(append(literals([]byte("ab")), token{dist: 2, length: maxMatch})))
	f.Fuzz(func(t *testing.T, data []byte) {
		enc := Compress(nil, data)
		dec, err := Decompress(nil, enc)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("round trip of %d bytes: err %v, equal %v", len(data), err, bytes.Equal(dec, data))
		}
		checkAgainstRef(t, "garbage", data)
	})
}

// TestMatchLenMatchesReference: the word-at-a-time match length equals
// the byte-at-a-time count — capped at maxMatch and at the end of src —
// for every pair of positions in low-entropy inputs, so Compress's
// output is the one the byte loop produced.
func TestMatchLenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		src := make([]byte, 1+rng.Intn(700))
		for i := range src {
			src[i] = byte('a' + rng.Intn(1+trial%3))
		}
		for i := 1; i < len(src); i++ {
			for j := max(0, i-40); j < i; j++ {
				want := 0
				for i+want < len(src) && want < maxMatch && src[j+want] == src[i+want] {
					want++
				}
				if got := matchLen(src, j, i); got != want {
					t.Fatalf("matchLen(len %d, %d, %d) = %d, want %d", len(src), j, i, got, want)
				}
			}
		}
	}
}
