package huffman

import (
	"bytes"
	"sync"
	"testing"
)

// fuzzCodec trains one codec for all fuzz iterations; training inside
// the fuzz function would dominate the run.
var fuzzCodec = sync.OnceValues(func() (*Codec, error) {
	return Train([][]byte{
		[]byte("the quick brown fox jumps over the lazy dog"),
		[]byte("pack my box with five dozen liquor jugs"),
		[]byte("<item id=\"42\"><name>gold watch</name></item>"),
		{0x00, 0x01, 0xfe, 0xff},
	})
})

// fuzzRef is fuzzCodec's reference code.
var fuzzRef = sync.OnceValue(func() *reference {
	c, err := fuzzCodec()
	if err != nil {
		panic(err)
	}
	return referenceOf(c)
})

// FuzzHuffmanRoundtrip checks, for arbitrary byte strings, that the
// word-at-a-time kernels round-trip and agree with the bit-at-a-time
// references byte for byte. Seeds run under plain `go test`.
func FuzzHuffmanRoundtrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("the quick brown fox"))
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f})
	f.Add(bytes.Repeat([]byte("zq"), 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := fuzzCodec()
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		assertRoundTrip(t, c, fuzzRef(), data)
	})
}

// assertRoundTrip checks that data encodes as the reference encodes it
// and that both decoders give it back.
func assertRoundTrip(t *testing.T, c *Codec, ref *reference, data []byte) {
	t.Helper()
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
}

// FuzzHuffmanDecodeGarbage feeds arbitrary bytes to both decoders and
// requires identical output and identical errors.
func FuzzHuffmanDecodeGarbage(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, enc []byte) {
		c, err := fuzzCodec()
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		assertSameDecode(t, c, fuzzRef(), enc)
	})
}

// FuzzHuffmanLoadModel feeds arbitrary model bytes to loadModel. Whatever
// it accepts must write the same model back and round-trip arbitrary
// values in agreement with the reference code built from it.
func FuzzHuffmanLoadModel(f *testing.F) {
	c, err := fuzzCodec()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c.AppendModel(nil), []byte("gold watch"))
	f.Add(bytes.Repeat([]byte{8}, numSymbols), []byte{0x00, 0xff}) // 256 codes of 8 bits, one left over
	f.Add(bytes.Repeat([]byte{9}, numSymbols), []byte("a"))        // an incomplete code
	f.Fuzz(func(t *testing.T, model, value []byte) {
		c, err := loadModel(model)
		if err != nil {
			return
		}
		if out := c.AppendModel(nil); !bytes.Equal(out, model) {
			t.Fatalf("model %x writes %x", model, out)
		}
		assertRoundTrip(t, c, referenceOf(c), value)
	})
}
