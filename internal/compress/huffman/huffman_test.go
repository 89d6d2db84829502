package huffman

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xquec/internal/compress"
)

var sampleProse = [][]byte{
	[]byte("the quick brown fox jumps over the lazy dog"),
	[]byte("there are more things in heaven and earth"),
	[]byte("to be or not to be that is the question"),
	[]byte("all the world's a stage and all the men and women merely players"),
}

func train(t *testing.T, values [][]byte) *Codec {
	t.Helper()
	c, err := Train(values)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := train(t, sampleProse)
	for _, v := range append(sampleProse, []byte(""), []byte("x"), []byte("unseen Bytes 123!?")) {
		enc, err := c.Encode(nil, v)
		if err != nil {
			t.Fatalf("Encode(%q): %v", v, err)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", v, err)
		}
		if !bytes.Equal(dec, v) {
			t.Fatalf("round trip: got %q, want %q", dec, v)
		}
	}
}

func TestCompressesProse(t *testing.T) {
	c := train(t, sampleProse)
	total, ctotal := 0, 0
	for _, v := range sampleProse {
		enc, _ := c.Encode(nil, v)
		total += len(v)
		ctotal += len(enc)
	}
	if ctotal >= total {
		t.Fatalf("no compression: %d >= %d", ctotal, total)
	}
}

func TestEqualityOnEncodedBytes(t *testing.T) {
	c := train(t, sampleProse)
	// Distinct plaintexts must yield distinct padded encodings, including
	// the tricky proper-prefix cases.
	values := []string{"", "a", "ab", "abc", "abd", "b", "the", "thee", "them"}
	encs := make(map[string]string)
	for _, v := range values {
		enc, err := c.Encode(nil, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := encs[string(enc)]; dup {
			t.Fatalf("encoding collision: %q and %q both encode to %x", prev, v, enc)
		}
		encs[string(enc)] = v
	}
}

func TestDeterministicEncoding(t *testing.T) {
	c := train(t, sampleProse)
	a, _ := c.Encode(nil, []byte("determinism"))
	b, _ := c.Encode(nil, []byte("determinism"))
	if !bytes.Equal(a, b) {
		t.Fatal("same value encoded differently")
	}
}

func TestPrefixMatching(t *testing.T) {
	c := train(t, sampleProse)
	full, _ := c.Encode(nil, []byte("question"))
	bits, nbits := c.EncodePrefix([]byte("quest"))
	if !MatchesPrefix(full, bits, nbits) {
		t.Fatal("encoded prefix should match encoded full value")
	}
	bits2, nbits2 := c.EncodePrefix([]byte("quiz"))
	if MatchesPrefix(full, bits2, nbits2) {
		t.Fatal("non-prefix should not match")
	}
	// Whole value is a prefix of itself (without EOS).
	bits3, nbits3 := c.EncodePrefix([]byte("question"))
	if !MatchesPrefix(full, bits3, nbits3) {
		t.Fatal("value should match its own prefix encoding")
	}
}

func TestModelRoundTrip(t *testing.T) {
	c := train(t, sampleProse)
	model := c.AppendModel(nil)
	c2, err := compress.LoadModel("huffman", model)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	for _, v := range sampleProse {
		e1, _ := c.Encode(nil, v)
		e2, err := c2.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatal("reloaded model encodes differently")
		}
		d, err := c2.Decode(nil, e2)
		if err != nil || !bytes.Equal(d, v) {
			t.Fatalf("reloaded model decode mismatch: %q vs %q (%v)", d, v, err)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := loadModel([]byte{1, 2, 3}); err == nil {
		t.Fatal("short model accepted")
	}
	bad := bytes.Repeat([]byte{1}, numSymbols) // 257 codes of length 1 overfill the code space
	if _, err := loadModel(bad); err == nil {
		t.Fatal("Kraft-violating model accepted")
	}
	// 257 codes of 9 bits fill half the code space; with byte 'a' at
	// length 0 it would also encode "a" as "".
	incomplete := bytes.Repeat([]byte{9}, numSymbols)
	if _, err := loadModel(incomplete); err == nil {
		t.Fatal("incomplete model accepted")
	}
	incomplete['a'] = 0
	if _, err := loadModel(incomplete); err == nil {
		t.Fatal("model with a zero length accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	c := train(t, sampleProse)
	enc, _ := c.Encode(nil, []byte("some reasonably long value here"))
	if _, err := c.Decode(nil, enc[:1]); err == nil {
		// A 1-byte truncation can rarely still decode to a valid short
		// value; what must never happen is a panic. Force a harder case.
		if _, err2 := c.Decode(nil, []byte{}); err2 == nil {
			t.Fatal("empty encoding decoded without error")
		}
	}
}

func TestSkewedFrequenciesDepthBound(t *testing.T) {
	// Fibonacci-like frequencies drive plain Huffman trees deep; the
	// rescaling loop must keep codes within maxBits.
	values := make([][]byte, 0, 64)
	a, b := 1, 1
	for ch := byte('a'); ch <= 'z'; ch++ {
		values = append(values, bytes.Repeat([]byte{ch}, a))
		a, b = b, a+b
		if a > 1<<20 {
			a = 1 << 20
		}
	}
	c := train(t, values)
	for s, l := range c.AppendModel(nil) {
		if l > maxBits {
			t.Fatalf("symbol %d has depth %d > %d", s, l, maxBits)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := train(t, sampleProse)
	f := func(v []byte) bool {
		enc, err := c.Encode(nil, v)
		if err != nil {
			return false
		}
		dec, err := c.Decode(nil, enc)
		return err == nil && bytes.Equal(dec, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInjective(t *testing.T) {
	c := train(t, sampleProse)
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		ea, err1 := c.Encode(nil, a)
		eb, err2 := c.Encode(nil, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return !bytes.Equal(ea, eb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProps(t *testing.T) {
	c := train(t, sampleProse)
	p := c.Props()
	if !p.Eq || !p.Wild || p.OrderPreserving {
		t.Fatalf("unexpected properties %+v", p)
	}
	if c.Name() != "huffman" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.ModelSize() <= 0 {
		t.Fatal("ModelSize must be positive")
	}
}

func TestEmptySample(t *testing.T) {
	c, err := Train(nil)
	if err != nil {
		t.Fatalf("Train(nil): %v", err)
	}
	enc, err := c.Encode(nil, []byte("anything goes"))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(nil, enc)
	if err != nil || string(dec) != "anything goes" {
		t.Fatalf("round trip on untrained model failed: %q %v", dec, err)
	}
}

func BenchmarkEncodeProse(b *testing.B) {
	c, _ := Train(sampleProse)
	v := []byte(strings.Repeat("the quick brown fox ", 10))
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, _ = c.Encode(dst[:0], v)
	}
}

func BenchmarkDecodeProse(b *testing.B) {
	c, _ := Train(sampleProse)
	v := []byte(strings.Repeat("the quick brown fox ", 10))
	enc, _ := c.Encode(nil, v)
	var dst []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(v)))
	for i := 0; i < b.N; i++ {
		dst, _ = c.Decode(dst[:0], enc)
	}
}

func TestRandomCorpusRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"auction", "bidder", "price", "gold", "silver", "item", "the", "of", "and"}
	var corpus [][]byte
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		for j := 0; j < 8; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		corpus = append(corpus, []byte(sb.String()))
	}
	c := train(t, corpus)
	var orig, comp int
	for _, v := range corpus {
		enc, _ := c.Encode(nil, v)
		orig += len(v)
		comp += len(enc)
	}
	ratio := float64(comp) / float64(orig)
	if ratio > 0.75 {
		t.Fatalf("Huffman ratio on wordy prose = %.2f, want <= 0.75", ratio)
	}
}
