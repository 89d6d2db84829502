package hutucker

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xquec/internal/compress"
	"xquec/internal/compress/huffman"
)

var sample = [][]byte{
	[]byte("there"), []byte("their"), []byte("these"), []byte("theses"),
	[]byte("alpha"), []byte("beta"), []byte("gamma gamma gamma"),
	[]byte("the rain in spain stays mainly in the plain"),
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
	c := train(t, sample)
	for _, v := range append(sample, []byte(""), []byte("zzz unseen ZZZ 42")) {
		enc, err := c.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || !bytes.Equal(dec, v) {
			t.Fatalf("round trip %q -> %q (%v)", v, dec, err)
		}
	}
}

func TestOrderPreservation(t *testing.T) {
	c := train(t, sample)
	values := []string{"", "a", "ab", "abc", "abd", "b", "ba", "the", "their", "there", "these", "zz"}
	for i := 0; i < len(values); i++ {
		for j := 0; j < len(values); j++ {
			ei, _ := c.Encode(nil, []byte(values[i]))
			ej, _ := c.Encode(nil, []byte(values[j]))
			want := strings.Compare(values[i], values[j])
			got := bytes.Compare(ei, ej)
			if sign(got) != sign(want) {
				t.Fatalf("order(%q, %q): encoded %d, plaintext %d", values[i], values[j], got, want)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestQuickOrderPreservation(t *testing.T) {
	c := train(t, sample)
	f := func(a, b []byte) bool {
		ea, err1 := c.Encode(nil, a)
		eb, err2 := c.Encode(nil, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return sign(bytes.Compare(ea, eb)) == sign(bytes.Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := train(t, sample)
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

func TestKraftEquality(t *testing.T) {
	c := train(t, sample)
	// A complete alphabetic tree satisfies the Kraft equality exactly.
	var sum float64
	for s, l := range c.AppendModel(nil) {
		if l == 0 {
			t.Fatalf("symbol %d has no code", s)
		}
		sum += 1 / float64(uint64(1)<<l)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Fatalf("Kraft sum = %v, want 1", sum)
	}
}

func TestCostAtMostSlightlyWorseThanHuffman(t *testing.T) {
	// Hu-Tucker is the *optimal alphabetic* code: its expected length is
	// within one bit per symbol of the unconstrained Huffman optimum.
	prose := [][]byte{[]byte(strings.Repeat("abracadabra alakazam ", 50))}
	ht := train(t, prose)
	hf, err := huffman.Train(prose)
	if err != nil {
		t.Fatal(err)
	}
	v := []byte("abracadabra alakazam abracadabra")
	eht, _ := ht.Encode(nil, v)
	ehf, _ := hf.Encode(nil, v)
	if len(eht) > len(ehf)+len(v)/4+2 {
		t.Fatalf("Hu-Tucker much worse than Huffman: %d vs %d bytes", len(eht), len(ehf))
	}
}

func TestModelRoundTrip(t *testing.T) {
	c := train(t, sample)
	model := c.AppendModel(nil)
	c2, err := compress.LoadModel("hutucker", model)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sample {
		e1, _ := c.Encode(nil, v)
		e2, err := c2.Encode(nil, v)
		if err != nil || !bytes.Equal(e1, e2) {
			t.Fatalf("reloaded model mismatch on %q", v)
		}
	}
}

func TestLoadModelRejectsInvalid(t *testing.T) {
	if _, err := loadModel([]byte{3}); err == nil {
		t.Fatal("short model accepted")
	}
	bad := make([]byte, numSymbols)
	for i := range bad {
		bad[i] = 2 // 257 codes of length 2 cannot form a tree
	}
	if _, err := loadModel(bad); err == nil {
		t.Fatal("invalid level sequence accepted")
	}
	// Kraft-complete levels whose codes, handed out in symbol order,
	// would not nest: symbol 1's half of the code space would start a
	// quarter of the way in.
	misaligned := append([]byte{2, 1, 9}, bytes.Repeat([]byte{10}, numSymbols-3)...)
	if _, err := loadModel(misaligned); err == nil {
		t.Fatal("misaligned level sequence accepted")
	}
}

func TestProps(t *testing.T) {
	c := train(t, sample)
	p := c.Props()
	if !p.Eq || !p.Wild || !p.OrderPreserving {
		t.Fatalf("unexpected properties %+v", p)
	}
	if c.Name() != "hutucker" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestSkewedWeightsDepthBound(t *testing.T) {
	var values [][]byte
	n := 1
	for ch := byte('a'); ch <= 'p'; ch++ {
		values = append(values, bytes.Repeat([]byte{ch}, n))
		n *= 3
		if n > 1<<18 {
			n = 1 << 18
		}
	}
	c := train(t, values)
	for s, l := range c.AppendModel(nil) {
		if l > maxBits {
			t.Fatalf("symbol %d depth %d > %d", s, l, maxBits)
		}
	}
}

func TestRandomCorporaAgainstSortSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		var corpus [][]byte
		for i := 0; i < 50; i++ {
			n := rng.Intn(12)
			v := make([]byte, n)
			for j := range v {
				v[j] = byte('a' + rng.Intn(6))
			}
			corpus = append(corpus, v)
		}
		c := train(t, corpus)
		encs := make([][]byte, len(corpus))
		for i, v := range corpus {
			encs[i], _ = c.Encode(nil, v)
		}
		for i := range corpus {
			for j := range corpus {
				if sign(bytes.Compare(encs[i], encs[j])) != sign(bytes.Compare(corpus[i], corpus[j])) {
					t.Fatalf("trial %d: order violated for %q vs %q", trial, corpus[i], corpus[j])
				}
			}
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	c, _ := Train(sample)
	v := []byte(strings.Repeat("the rain in spain ", 10))
	enc, _ := c.Encode(nil, v)
	var dst []byte
	b.SetBytes(int64(len(v)))
	for i := 0; i < b.N; i++ {
		dst, _ = c.Decode(dst[:0], enc)
	}
}
