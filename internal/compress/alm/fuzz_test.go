package alm

import (
	"bytes"
	"sync"
	"testing"
)

var fuzzCodec = sync.OnceValues(func() (*Codec, error) {
	return Train([][]byte{
		[]byte("there is a tide in the affairs of men"),
		[]byte("their hearts and their minds"),
		[]byte("these are the times that try souls"),
		[]byte("http://www.example.com/item?id=42"),
		{0x00, 0x01, 0xfe, 0xff},
	}, DefaultMaxTokens)
})

// FuzzALMRoundtrip checks, for arbitrary byte strings, that the encode
// automaton round-trips and agrees with the reference encoder and
// decoder byte for byte. Seeds run under plain `go test`.
func FuzzALMRoundtrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("their"))
	f.Add([]byte("completely unseen Words 42!"))
	f.Add([]byte{0x00, 0xff, 0x80})
	f.Add(bytes.Repeat([]byte("the"), 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := fuzzCodec()
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		enc, err := c.Encode(nil, data)
		ref, refErr := c.EncodeReference(nil, data)
		if !bytes.Equal(enc, ref) || !sameError(err, refErr) {
			t.Fatalf("encode mismatch for %q:\n fast %x err=%v\n ref  %x err=%v",
				data, enc, err, ref, refErr)
		}
		if err != nil {
			return
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("round trip %q -> %q (%v)", data, dec, err)
		}
		refDec, refDecErr := c.DecodeReference(nil, enc)
		if refDecErr != nil || !bytes.Equal(refDec, data) {
			t.Fatalf("reference decode %q -> %q (%v)", data, refDec, refDecErr)
		}
	})
}

// FuzzALMOrder asserts the headline ALM property on arbitrary pairs:
// comparing encodings equals comparing plaintexts.
func FuzzALMOrder(f *testing.F) {
	f.Add([]byte("their"), []byte("there"))
	f.Add([]byte("the"), []byte("their")) // proper prefix
	f.Add([]byte(""), []byte("a"))
	f.Add([]byte{0x00}, []byte{0x00, 0x00})
	f.Add([]byte{0xff, 0xff}, []byte{0xff})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		c, err := fuzzCodec()
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		encX, errX := c.Encode(nil, x)
		encY, errY := c.Encode(nil, y)
		if errX != nil || errY != nil {
			t.Fatalf("encode: %v / %v", errX, errY)
		}
		if sign(bytes.Compare(encX, encY)) != sign(bytes.Compare(x, y)) {
			t.Fatalf("order not preserved: cmp(%q,%q)=%d but cmp(%x,%x)=%d",
				x, y, bytes.Compare(x, y), encX, encY, bytes.Compare(encX, encY))
		}
	})
}

// FuzzALMLoadModel feeds arbitrary model bytes to loadModel. Whatever it
// accepts must build on its first Decode without a panic, write a model
// of its ModelSize, and load again to a codec writing the same bytes.
func FuzzALMLoadModel(f *testing.F) {
	c, err := fuzzCodec()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c.AppendModel(nil), []byte{0x00, 0x01, 0xff})
	f.Add([]byte{0x02, 0x00, 0x02, 'a', 'b', 0x00, 0x03, 'a', 'b', 'c'}, []byte{0x00}) // prefix not shared
	f.Add([]byte{0x80, 0x00}, []byte{0x61})                                            // no tokens, padded count
	f.Fuzz(func(t *testing.T, model, enc []byte) {
		c, err := loadModel(model)
		if err != nil {
			return
		}
		dec, err := c.Decode(nil, enc)
		if err == nil {
			if _, err := c.Encode(nil, dec); err != nil {
				t.Fatalf("encode of a decoded value: %v", err)
			}
		}
		out := c.AppendModel(nil)
		if len(out) != c.ModelSize() || len(out) > len(model) {
			t.Fatalf("model of %d bytes writes %d, ModelSize %d", len(model), len(out), c.ModelSize())
		}
		again, err := loadModel(out)
		if err != nil {
			t.Fatalf("written model does not load: %v", err)
		}
		if !bytes.Equal(again.AppendModel(nil), out) {
			t.Fatalf("reloaded model writes %x, first load %x", again.AppendModel(nil), out)
		}
	})
}

// FuzzALMDecodeGarbage feeds arbitrary code streams to both decoders
// and requires identical output and identical errors.
func FuzzALMDecodeGarbage(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, enc []byte) {
		c, err := fuzzCodec()
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		got, errGot := c.Decode(nil, enc)
		ref, errRef := c.DecodeReference(nil, enc)
		if !bytes.Equal(got, ref) || !sameError(errGot, errRef) {
			t.Fatalf("decode mismatch on %x:\n fast %q err=%v\n ref  %q err=%v",
				enc, got, errGot, ref, errRef)
		}
	})
}

// narrowCodec has the 256 single-byte tokens alone: one-byte codes.
var narrowCodec = sync.OnceValues(func() (*Codec, error) { return Train(nil, DefaultMaxTokens) })

// FuzzALMMatch compares Match with Decode followed by bytes.Contains or
// bytes.HasSuffix: on the encoding of value, and on enc as a code stream
// of its own, where Match must fail exactly where Decode fails. narrow
// picks the codec of one-byte codes.
func FuzzALMMatch(f *testing.F) {
	f.Add([]byte("there is a tide in the affairs of men"), []byte("e is a t"), []byte{}, false, false) // spans tokens
	f.Add([]byte("their hearts and their minds"), []byte("the"), []byte{0x01, 0x02}, true, false)      // at a token edge
	f.Add([]byte("aaab"), []byte("aab"), []byte{0x00}, false, false)                                   // a repeated prefix
	f.Add([]byte("aaab"), []byte("aab"), []byte{0x61, 0x61, 0x62}, true, true)
	f.Add([]byte{0x00, 0x01, 0xfe, 0xff}, []byte{0xfe, 0xff}, []byte{0xff, 0xff, 0xff}, true, false) // bytes ≥ 0x80
	f.Add([]byte("ththeth"), []byte("th"), []byte{0xff, 0xff}, false, true)
	f.Fuzz(func(t *testing.T, value, lit, enc []byte, suffix, narrow bool) {
		c, err := fuzzCodec()
		if narrow {
			c, err = narrowCodec()
		}
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		m, err := c.Matcher(lit, suffix)
		if len(lit) == 0 || len(lit) > MaxMatchLiteral {
			if err == nil {
				t.Fatalf("a matcher of %d bytes", len(lit))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(m.tab) != c.MatcherBytes(len(lit)) {
			t.Fatalf("table of %d bytes, MatcherBytes %d", len(m.tab), c.MatcherBytes(len(lit)))
		}
		test := bytes.Contains
		if suffix {
			test = bytes.HasSuffix
		}
		own, err := c.Encode(nil, value)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range [][]byte{own, enc} {
			got, errGot := m.Match(e)
			dec, errDec := c.Decode(nil, e)
			if !sameError(errGot, errDec) || (errDec == nil && got != test(dec, lit)) {
				t.Fatalf("%x (%q) for %q, suffix %v: Match %v (%v), Decode %v", e, dec, lit, suffix, got, errGot, errDec)
			}
		}
	})
}
