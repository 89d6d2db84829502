package blob

import (
	"bytes"
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
