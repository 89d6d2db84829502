package hutucker

import (
	"bytes"
	"sync"
	"testing"
)

var fuzzCodec = sync.OnceValues(func() (*Codec, error) {
	return Train([][]byte{
		[]byte("the quick brown fox jumps over the lazy dog"),
		[]byte("person0 person1 person12 open_auction"),
		[]byte("<bidder><date>11/17/2000</date></bidder>"),
		{0x00, 0x01, 0xfe, 0xff},
	})
})

// fuzzRef is fuzzCodec's reference code.
var fuzzRef = sync.OnceValues(func() (*reference, error) {
	c, err := fuzzCodec()
	if err != nil {
		return nil, err
	}
	return referenceOf(c)
})

// fuzzPair returns the fuzz codec and its reference.
func fuzzPair(t *testing.T) (*Codec, *reference) {
	c, err := fuzzCodec()
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	ref, err := fuzzRef()
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return c, ref
}

// FuzzHuTuckerRoundtrip checks, for arbitrary byte strings, that the
// table-driven kernels round-trip, agree with the tree-walk references,
// and preserve byte order on encoded form. Seeds run under plain
// `go test`.
func FuzzHuTuckerRoundtrip(f *testing.F) {
	f.Add([]byte(""), []byte("a"))
	f.Add([]byte("abc"), []byte("abd"))
	f.Add([]byte("ab"), []byte("abc")) // proper-prefix ordering
	f.Add([]byte{0x00}, []byte{0xff})
	f.Add(bytes.Repeat([]byte("zq"), 40), []byte("zq"))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		c, ref := fuzzPair(t)
		assertRoundTripInOrder(t, c, ref, x, y)
	})
}

// assertRoundTripInOrder checks that x and y encode as the reference
// encodes them, that both decoders give them back, and that their coded
// forms compare as they do.
func assertRoundTripInOrder(t *testing.T, c *Codec, ref *reference, x, y []byte) {
	t.Helper()
	var encs [2][]byte
	for i, data := range [][]byte{x, y} {
		enc, err := c.Encode(nil, data)
		if err != nil {
			t.Fatalf("Encode(%q): %v", data, err)
		}
		if want := ref.encode(data); !bytes.Equal(enc, want) {
			t.Fatalf("encode mismatch: fast %x ref %x", enc, want)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("round trip %q -> %q (%v)", data, dec, err)
		}
		dec, err = ref.decode(nil, enc)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("reference decode %q -> %q (%v)", data, dec, err)
		}
		encs[i] = enc
	}
	if sign(bytes.Compare(encs[0], encs[1])) != sign(bytes.Compare(x, y)) {
		t.Fatalf("order not preserved: cmp(%q,%q)=%d but cmp(enc)=%d",
			x, y, bytes.Compare(x, y), bytes.Compare(encs[0], encs[1]))
	}
}

// FuzzHuTuckerDecodeGarbage feeds arbitrary bytes to both decoders and
// requires identical output and identical errors.
func FuzzHuTuckerDecodeGarbage(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, enc []byte) {
		c, ref := fuzzPair(t)
		assertSameDecode(t, c, ref, enc)
	})
}

// FuzzHuTuckerLoadModel feeds arbitrary level bytes to loadModel.
// Whatever it accepts must form an alphabetic tree under the stack
// algorithm, write the same model back, and round-trip arbitrary values
// in order, in agreement with that tree.
func FuzzHuTuckerLoadModel(f *testing.F) {
	c, err := fuzzCodec()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c.AppendModel(nil), []byte("person1"), []byte("person12"))
	f.Add(bytes.Repeat([]byte{9}, numSymbols), []byte("a"), []byte("")) // an incomplete code
	f.Fuzz(func(t *testing.T, model, x, y []byte) {
		c, err := loadModel(model)
		if err != nil {
			return
		}
		if out := c.AppendModel(nil); !bytes.Equal(out, model) {
			t.Fatalf("model %x writes %x", model, out)
		}
		assertRoundTripInOrder(t, c, mustReference(t, c), x, y)
	})
}
