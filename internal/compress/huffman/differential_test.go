package huffman

import (
	"bytes"
	"math/rand"
	"testing"
)

// diffCorpora returns randomized corpora with distinct byte
// distributions, so the differential tests cover shallow and deep code
// trees (prose-like, uniform binary, heavily skewed, zero-laden).
func diffCorpora(seed int64) map[string][][]byte {
	rng := rand.New(rand.NewSource(seed))
	corpora := map[string][][]byte{}

	prose := make([][]byte, 300)
	words := []string{"the", "auction", "of", "and", "bidder", "price", "a", "gold"}
	for i := range prose {
		var b []byte
		for j := 0; j < 1+rng.Intn(12); j++ {
			b = append(b, words[rng.Intn(len(words))]...)
			b = append(b, ' ')
		}
		prose[i] = b
	}
	corpora["prose"] = prose

	uniform := make([][]byte, 200)
	for i := range uniform {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		uniform[i] = b
	}
	corpora["uniform"] = uniform

	skewed := make([][]byte, 200)
	for i := range skewed {
		b := make([]byte, 1+rng.Intn(60))
		for j := range b {
			if rng.Intn(100) < 90 {
				b[j] = 'x'
			} else {
				b[j] = byte(rng.Intn(256))
			}
		}
		skewed[i] = b
	}
	corpora["skewed"] = skewed

	zeros := make([][]byte, 100)
	for i := range zeros {
		b := make([]byte, rng.Intn(40))
		for j := range b {
			b[j] = byte(rng.Intn(3)) // 0x00-0x02
		}
		zeros[i] = b
	}
	corpora["zeros"] = zeros
	return corpora
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestDifferentialKernels locks the shared word-at-a-time kernels of
// bitio.PrefixCode to the bit-at-a-time canonical reference:
// byte-identical encodes, identical decodes, and identical errors on
// truncated and bit-flipped input.
func TestDifferentialKernels(t *testing.T) {
	for name, corpus := range diffCorpora(41) {
		t.Run(name, func(t *testing.T) {
			c := train(t, corpus)
			ref := referenceOf(c)
			rng := rand.New(rand.NewSource(17))
			for _, v := range corpus {
				enc, err := c.Encode(nil, v)
				if err != nil {
					t.Fatalf("Encode(%q): %v", v, err)
				}
				if want := ref.encode(v); !bytes.Equal(enc, want) {
					t.Fatalf("encode mismatch for %q:\n fast %x\n ref  %x", v, enc, want)
				}
				assertSameDecode(t, c, ref, enc)
				// Truncations at every byte boundary.
				for cut := 0; cut < len(enc); cut++ {
					assertSameDecode(t, c, ref, enc[:cut])
				}
				// Bit-flip corruptions.
				for k := 0; k < 4 && len(enc) > 0; k++ {
					bad := append([]byte(nil), enc...)
					bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
					assertSameDecode(t, c, ref, bad)
				}
			}
		})
	}
}

func assertSameDecode(t *testing.T, c *Codec, ref *reference, enc []byte) {
	t.Helper()
	got, errGot := c.Decode(nil, enc)
	want, errRef := ref.decode(nil, enc)
	if !bytes.Equal(got, want) || !sameError(errGot, errRef) {
		t.Fatalf("decode mismatch on %x:\n fast %q err=%v\n ref  %q err=%v",
			enc, got, errGot, want, errRef)
	}
}

// TestMatchesPrefixBoundaries covers the byte-aligned (0-remainder) and
// maximally misaligned (7-remainder) prefix boundary cases.
func TestMatchesPrefixBoundaries(t *testing.T) {
	cases := []struct {
		name       string
		enc        []byte
		prefixBits []byte
		nbits      int
		want       bool
	}{
		{"zero-remainder match", []byte{0xab, 0xcd, 0xef}, []byte{0xab, 0xcd}, 16, true},
		{"zero-remainder mismatch last byte", []byte{0xab, 0xcd, 0xef}, []byte{0xab, 0xce}, 16, false},
		{"zero-remainder empty prefix", []byte{0xff}, nil, 0, true},
		{"seven-remainder match", []byte{0xab, 0b1101_0110}, []byte{0xab, 0b1101_0111}, 15, true},
		{"seven-remainder mismatch in tail", []byte{0xab, 0b1101_0110}, []byte{0xab, 0b1101_1110}, 15, false},
		{"seven-remainder ignores final bit", []byte{0b0000_0001}, []byte{0b0000_0000}, 7, true},
		{"seven-remainder mismatch in full byte", []byte{0xab, 0b1101_0110}, []byte{0xaa, 0b1101_0110}, 15, false},
		{"prefix longer than encoding", []byte{0xab}, []byte{0xab, 0x00}, 9, false},
		{"exact length boundary", []byte{0xab}, []byte{0xab}, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MatchesPrefix(tc.enc, tc.prefixBits, tc.nbits); got != tc.want {
				t.Fatalf("MatchesPrefix(%x, %x, %d) = %v, want %v",
					tc.enc, tc.prefixBits, tc.nbits, got, tc.want)
			}
		})
	}
}

// TestDecodeTableCoversAllLengths forces codes past tableBits so the
// long-code fallback path is exercised by the differential suite.
func TestDecodeTableCoversAllLengths(t *testing.T) {
	// Fibonacci-ish frequencies push rare symbols well past tableBits.
	values := make([][]byte, 0, 64)
	a, b := 1, 1
	for ch := byte('a'); ch <= 'z'; ch++ {
		values = append(values, bytes.Repeat([]byte{ch}, a))
		a, b = b, a+b
		if a > 1<<18 {
			a = 1 << 18
		}
	}
	c := train(t, values)
	ref := referenceOf(c)
	deep := uint8(0)
	for _, l := range ref.lengths {
		if l > deep {
			deep = l
		}
	}
	if deep <= tableBits {
		t.Fatalf("corpus only produced codes of length ≤ %d; long path untested", tableBits)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		v := make([]byte, rng.Intn(50))
		rng.Read(v)
		enc, err := c.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref.encode(v)) {
			t.Fatalf("deep-code encode mismatch for %x", v)
		}
		assertSameDecode(t, c, ref, enc)
		for cut := 0; cut < len(enc); cut++ {
			assertSameDecode(t, c, ref, enc[:cut])
		}
	}
}
