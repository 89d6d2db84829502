package hutucker

import (
	"bytes"
	"math/rand"
	"testing"
)

// mustReference is referenceOf for a codec whose levels must form an
// alphabetic tree.
func mustReference(t testing.TB, c *Codec) *reference {
	t.Helper()
	ref, err := referenceOf(c)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return ref
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
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

// TestDifferentialKernels locks bitio.PrefixCode's table-driven decode
// and batched encode to the tree-walk reference: byte-identical
// encodes, identical decodes, identical errors on truncated and
// bit-flipped input.
func TestDifferentialKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	corpora := map[string][][]byte{}

	prose := make([][]byte, 250)
	words := []string{"person", "item", "open", "bid", "europe", "mail", "id"}
	for i := range prose {
		var b []byte
		for j := 0; j < 1+rng.Intn(10); j++ {
			b = append(b, words[rng.Intn(len(words))]...)
			b = append(b, '/')
		}
		prose[i] = b
	}
	corpora["prose"] = prose

	uniform := make([][]byte, 200)
	for i := range uniform {
		b := make([]byte, rng.Intn(70))
		rng.Read(b)
		uniform[i] = b
	}
	corpora["uniform"] = uniform

	// Heavy skew forces rare symbols past tableBits, exercising the
	// long-code search.
	skewed := make([][]byte, 300)
	for i := range skewed {
		b := make([]byte, 1+rng.Intn(50))
		for j := range b {
			if rng.Intn(1000) < 985 {
				b[j] = 'e'
			} else {
				b[j] = byte(rng.Intn(256))
			}
		}
		skewed[i] = b
	}
	corpora["skewed"] = skewed

	for name, corpus := range corpora {
		t.Run(name, func(t *testing.T) {
			c := train(t, corpus)
			ref := mustReference(t, c)
			for _, v := range corpus {
				enc, err := c.Encode(nil, v)
				if err != nil {
					t.Fatalf("Encode(%q): %v", v, err)
				}
				if want := ref.encode(v); !bytes.Equal(enc, want) {
					t.Fatalf("encode mismatch for %q:\n fast %x\n ref  %x", v, enc, want)
				}
				assertSameDecode(t, c, ref, enc)
				for cut := 0; cut < len(enc); cut++ {
					assertSameDecode(t, c, ref, enc[:cut])
				}
				for k := 0; k < 4 && len(enc) > 0; k++ {
					bad := append([]byte(nil), enc...)
					bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
					assertSameDecode(t, c, ref, bad)
				}
			}
		})
	}
}

// TestLongCodePathExercised trains on an extreme distribution (one
// dominant symbol, everything else at the frequency floor) so rare
// codes are pushed past tableBits, then differentially checks the
// long-code search against the tree-walk reference.
func TestLongCodePathExercised(t *testing.T) {
	// A doubling frequency ladder on adjacent symbols forces a chain
	// rather than a balanced subtree, pushing rare codes deep.
	var values [][]byte
	for k := 0; k <= 16; k++ {
		values = append(values, bytes.Repeat([]byte{byte('a' + k)}, 1<<k))
	}
	c := train(t, values)
	ref := mustReference(t, c)
	long := 0
	for _, l := range ref.levels {
		if l > tableBits {
			long++
		}
	}
	if long < 2 {
		t.Fatalf("%d codes longer than tableBits %d; long-code search untested", long, tableBits)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		v := make([]byte, rng.Intn(40))
		for j := range v {
			if rng.Intn(4) == 0 {
				v[j] = 'e'
			} else {
				v[j] = byte(rng.Intn(256))
			}
		}
		enc, err := c.Encode(nil, v)
		if err != nil {
			t.Fatalf("Encode: %v", err)
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
