package alm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"xquec/internal/compress"
)

var proseSample = [][]byte{
	[]byte("there is a tide in the affairs of men"),
	[]byte("their hearts and their minds"),
	[]byte("these are the times that try souls"),
	[]byte("the evil that men do lives after them"),
	[]byte("there there there"),
}

func train(t *testing.T, values [][]byte) *Codec {
	t.Helper()
	c, err := Train(values, DefaultMaxTokens)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := train(t, proseSample)
	for _, v := range append(proseSample,
		[]byte(""), []byte("x"), []byte("completely unseen Words 42!"),
		[]byte{0x00, 0xff, 0x80}) {
		enc, err := c.Encode(nil, v)
		if err != nil {
			t.Fatalf("Encode(%q): %v", v, err)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || !bytes.Equal(dec, v) {
			t.Fatalf("round trip %q -> %q (%v)", v, dec, err)
		}
	}
}

func TestFigure2Scenario(t *testing.T) {
	// The paper's running example: their/there/these must encode in
	// strictly increasing order and round-trip.
	corpus := [][]byte{[]byte("their"), []byte("there"), []byte("these")}
	c := train(t, corpus)
	var encs [][]byte
	for _, v := range corpus {
		e, err := c.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, e)
	}
	if !(bytes.Compare(encs[0], encs[1]) < 0 && bytes.Compare(encs[1], encs[2]) < 0) {
		t.Fatalf("order not preserved: %x %x %x", encs[0], encs[1], encs[2])
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

func TestOrderPreservationDense(t *testing.T) {
	c := train(t, proseSample)
	values := []string{
		"", "a", "ab", "abc", "b", "th", "the", "thea", "their", "them",
		"there", "thereafter", "these", "they", "ti", "tide", "z",
	}
	encs := make([][]byte, len(values))
	for i, v := range values {
		e, err := c.Encode(nil, []byte(v))
		if err != nil {
			t.Fatalf("Encode(%q): %v", v, err)
		}
		encs[i] = e
	}
	for i := range values {
		for j := range values {
			if sign(bytes.Compare(encs[i], encs[j])) != sign(strings.Compare(values[i], values[j])) {
				t.Fatalf("order(%q,%q) violated: enc %x vs %x", values[i], values[j], encs[i], encs[j])
			}
		}
	}
}

func TestQuickOrderPreservation(t *testing.T) {
	c := train(t, proseSample)
	f := func(a, b []byte) bool {
		ea, err1 := c.Encode(nil, a)
		eb, err2 := c.Encode(nil, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return sign(bytes.Compare(ea, eb)) == sign(bytes.Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := train(t, proseSample)
	f := func(v []byte) bool {
		enc, err := c.Encode(nil, v)
		if err != nil {
			return false
		}
		dec, err := c.Decode(nil, enc)
		return err == nil && bytes.Equal(dec, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalsArePartition(t *testing.T) {
	c := train(t, proseSample)
	if c.n == 0 {
		t.Fatal("no intervals")
	}
	if !bytes.Equal(c.lo(0), []byte{0x00}) {
		t.Fatalf("first interval lo = %x, want 00", c.lo(0))
	}
	for i := 1; i < c.n; i++ {
		if bytes.Compare(c.lo(i-1), c.lo(i)) >= 0 {
			t.Fatalf("intervals not strictly increasing at %d", i)
		}
	}
	for i := 0; i < c.n; i++ {
		if len(c.prefix(i)) == 0 {
			t.Fatalf("interval %d has empty prefix", i)
		}
		// The prefix must prefix the lower bound (lo is in the interval).
		if !bytes.HasPrefix(c.lo(i), c.prefix(i)) {
			t.Fatalf("interval %d: prefix %q does not prefix lo %q", i, c.prefix(i), c.lo(i))
		}
	}
}

func TestCompressionOnCategorical(t *testing.T) {
	// Repeated categorical values (dates, enum-ish strings) should shrink
	// to roughly one code each.
	var corpus [][]byte
	dates := []string{"1998-01-12", "1999-07-30", "2000-12-25", "2001-02-14"}
	for i := 0; i < 100; i++ {
		corpus = append(corpus, []byte(dates[i%len(dates)]))
	}
	c := train(t, corpus)
	var orig, comp int
	for _, v := range corpus {
		e, _ := c.Encode(nil, v)
		orig += len(v)
		comp += len(e)
	}
	if ratio := float64(comp) / float64(orig); ratio > 0.35 {
		t.Fatalf("categorical ratio %.2f, want <= 0.35", ratio)
	}
}

func TestCompressionOnProse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := strings.Fields("the quick brown fox jumps over lazy dog gold silver auction item description")
	var corpus [][]byte
	for i := 0; i < 300; i++ {
		var sb strings.Builder
		for j := 0; j < 12; j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		corpus = append(corpus, []byte(sb.String()))
	}
	c := train(t, corpus)
	var orig, comp int
	for _, v := range corpus {
		e, _ := c.Encode(nil, v)
		orig += len(v)
		comp += len(e)
	}
	if ratio := float64(comp) / float64(orig); ratio > 0.70 {
		t.Fatalf("prose ratio %.2f, want <= 0.70", ratio)
	}
}

func TestSharedPrefixIdentifiers(t *testing.T) {
	var corpus [][]byte
	for i := 0; i < 500; i++ {
		corpus = append(corpus, []byte("person"+itoa(i)))
	}
	c := train(t, corpus)
	var orig, comp int
	for _, v := range corpus {
		e, _ := c.Encode(nil, v)
		orig += len(v)
		comp += len(e)
		d, err := c.Decode(nil, e)
		if err != nil || !bytes.Equal(d, v) {
			t.Fatalf("round trip %q", v)
		}
	}
	if comp >= orig {
		t.Fatalf("identifier corpus did not compress: %d >= %d", comp, orig)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestModelRoundTrip(t *testing.T) {
	c := train(t, proseSample)
	model := c.AppendModel(nil)
	c2, err := compress.LoadModel("alm", model)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range proseSample {
		e1, _ := c.Encode(nil, v)
		e2, err := c2.Encode(nil, v)
		if err != nil || !bytes.Equal(e1, e2) {
			t.Fatalf("reloaded model encodes %q differently", v)
		}
		d, err := c2.Decode(nil, e2)
		if err != nil || !bytes.Equal(d, v) {
			t.Fatalf("reloaded model decode mismatch %q", v)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := loadModel(nil); err == nil {
		t.Fatal("empty model accepted")
	}
	if _, err := loadModel([]byte{9, 1}); err == nil {
		t.Fatal("bad code width accepted")
	}
	// Non-increasing intervals.
	var m []byte
	m = compress.AppendUvarint(m, 1) // width
	m = compress.AppendUvarint(m, 2) // count
	m = compress.AppendBytes(m, []byte{0x10})
	m = compress.AppendBytes(m, []byte{0x10})
	m = compress.AppendBytes(m, []byte{0x05}) // lo goes backwards
	m = compress.AppendBytes(m, []byte{0x05})
	if _, err := loadModel(m); err == nil {
		t.Fatal("non-increasing intervals accepted")
	}
}

// TestLoadModelBoundsCounts: a token count read from hostile bytes must
// be checked against the bytes that remain before it sizes anything.
// The eight bytes below once panicked with "makeslice: cap out of
// range".
func TestLoadModelBoundsCounts(t *testing.T) {
	if _, err := loadModel([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("2^56-token model accepted")
	}
	// Front coding describes quadratically many token bytes: token i
	// extends token i-1 by one byte.
	var m []byte
	const n = 8000
	m = compress.AppendUvarint(m, n)
	m = compress.AppendUvarint(m, 0)
	m = compress.AppendBytes(m, []byte("ab"))
	for i := 1; i < n; i++ {
		m = compress.AppendUvarint(m, uint64(i+1))
		m = compress.AppendBytes(m, []byte("c"))
	}
	if _, err := loadModel(m); err == nil {
		t.Fatalf("%d-byte model expanding past %d bytes accepted", len(m), maxModelBytes)
	}
}

// TestBuildMatchesReference: the one-pass builder must produce exactly
// the partition of the reference construction, and a reloaded model
// exactly the trained one — on mined dictionaries and on adversarial
// token sets (0xff runs, deep prefix chains, adjacent siblings).
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := map[string][][]byte{
		"ff":       {{0xff, 0xff}, {0xff, 0xff, 0xff}, {0xfe, 0xff}, {0xfe, 0xff, 0xff}, {0xff, 0x00}},
		"chain":    {[]byte("ab"), []byte("abc"), []byte("abcd"), []byte("abce"), []byte("abd"), []byte("ac"), []byte("b\xff"), []byte("b\xff\xff")},
		"dupshort": {[]byte("x"), []byte("xy"), []byte("xy"), nil, []byte("xyz")},
	}
	var mined [][]byte
	for tok := range train(t, proseSample).tokens() {
		mined = append(mined, tok)
	}
	sets["prose"] = mined
	for k := 0; k < 20; k++ {
		var set [][]byte
		for i := 0; i < 1+rng.Intn(300); i++ {
			tok := make([]byte, 1+rng.Intn(5))
			for j := range tok {
				tok[j] = []byte{0x00, 0x01, 'a', 'b', 0xfe, 0xff}[rng.Intn(6)]
			}
			set = append(set, tok)
		}
		sets[fmt.Sprintf("random%d", k)] = set
	}
	for name, set := range sets {
		ref := buildReference(set)
		c, err := build(slices.Clone(set))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := loadModel(c.AppendModel(nil))
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		for _, c := range []*Codec{c, c2} {
			if c.n != len(ref.intervals) || c.codeWidth != ref.codeWidth {
				t.Fatalf("%s: %d intervals width %d, reference %d width %d",
					name, c.n, c.codeWidth, len(ref.intervals), ref.codeWidth)
			}
			for i, iv := range ref.intervals {
				if !bytes.Equal(c.lo(i), iv.lo) || !bytes.Equal(c.prefix(i), iv.prefix) {
					t.Fatalf("%s: interval %d = [%x | %x], reference [%x | %x]",
						name, i, c.lo(i), c.prefix(i), iv.lo, iv.prefix)
				}
			}
		}
		nTok := 0
		for range c.tokens() {
			nTok++
		}
		if limit := 256 + nTok + min(256+nTok, 2*nTok); c.n > limit {
			t.Fatalf("%s: %d intervals from %d tokens, above the builder's bound %d", name, c.n, nTok, limit)
		}
		if c.ModelSize() != c2.ModelSize() || c.ModelSize() != len(c.AppendModel(nil)) {
			t.Fatalf("%s: model size %d / %d, serialized %d", name, c.ModelSize(), c2.ModelSize(), len(c.AppendModel(nil)))
		}
	}
}

func TestDecodeRejectsBadCodes(t *testing.T) {
	c := train(t, proseSample)
	if c.codeWidth == 2 {
		if _, err := c.Decode(nil, []byte{0x01}); err == nil {
			t.Fatal("odd-length encoding accepted")
		}
		if _, err := c.Decode(nil, []byte{0xff, 0xff}); err == nil {
			t.Fatal("out-of-range code accepted")
		}
	}
}

func TestProps(t *testing.T) {
	c := train(t, proseSample)
	p := c.Props()
	if !p.Eq || !p.Ineq || p.Wild || !p.OrderPreserving {
		t.Fatalf("unexpected properties %+v", p)
	}
	if c.ModelSize() <= 0 {
		t.Fatal("ModelSize must be positive")
	}
}

func TestSucc(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("a"), []byte("b")},
		{[]byte("az"), []byte("a{")},
		{[]byte{0x61, 0xff}, []byte{0x62}},
		{[]byte{0xff, 0xff}, nil},
		{[]byte{0xff, 0x00}, []byte{0xff, 0x01}},
	}
	for _, c := range cases {
		got := appendSucc(nil, c.in)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("succ(%x) = %x, want %x", c.in, got, c.want)
		}
	}
}

func TestAllFFTokens(t *testing.T) {
	// Tokens ending in 0xff exercise the open-ended range path.
	c, err := build([][]byte{{0xff, 0xff}, {0xff, 0xff, 0xff}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range [][]byte{{0xff}, {0xff, 0xff}, {0xff, 0xff, 0xff, 0x01}, {0xfe, 0xff}} {
		enc, err := c.Encode(nil, v)
		if err != nil {
			t.Fatalf("Encode(%x): %v", v, err)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || !bytes.Equal(dec, v) {
			t.Fatalf("round trip %x -> %x", v, dec)
		}
	}
}

func BenchmarkEncodeProse(b *testing.B) {
	c, _ := Train(proseSample, DefaultMaxTokens)
	v := []byte(strings.Repeat("the affairs of men ", 10))
	var dst []byte
	b.SetBytes(int64(len(v)))
	for i := 0; i < b.N; i++ {
		dst, _ = c.Encode(dst[:0], v)
	}
}

func BenchmarkDecodeProse(b *testing.B) {
	c, _ := Train(proseSample, DefaultMaxTokens)
	v := []byte(strings.Repeat("the affairs of men ", 10))
	enc, _ := c.Encode(nil, v)
	var dst []byte
	b.SetBytes(int64(len(v)))
	for i := 0; i < b.N; i++ {
		dst, _ = c.Decode(dst[:0], enc)
	}
}
