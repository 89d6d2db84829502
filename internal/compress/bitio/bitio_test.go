package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("expected error reading past end")
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	cases := []struct {
		v uint64
		n int
	}{
		{0, 1}, {1, 1}, {0b101, 3}, {0xff, 8}, {0x1234, 16},
		{0xdeadbeef, 32}, {1<<57 - 1, 57}, {0, 64},
	}
	w := NewWriter(64)
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, c := range cases {
		var got uint64
		for n := c.n; n > 0; {
			k := min(n, 32)
			r.Refill()
			got = got<<uint(k) | r.Peek(k)
			r.Consume(k)
			n -= k
		}
		if got != c.v {
			t.Fatalf("case %d: got %x, want %x", i, got, c.v)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestMSBFirstPacking(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0b10110010, 8)
	if got := w.Bytes()[0]; got != 0b10110010 {
		t.Fatalf("packed byte = %08b, want 10110010", got)
	}
	// Partial byte zero-padded at the end.
	w2 := NewWriter(2)
	w2.WriteBits(0b101, 3)
	if got := w2.Bytes()[0]; got != 0b10100000 {
		t.Fatalf("partial byte = %08b, want 10100000", got)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xff, 8)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset did not clear writer")
	}
	w.WriteBit(1)
	if got := w.Bytes()[0]; got != 0x80 {
		t.Fatalf("after reset, byte = %02x, want 80", got)
	}
}

func TestQuickRandomBitstreams(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nbits := int(n%2000) + 1
		bits := make([]uint, nbits)
		w := NewWriter(nbits / 8)
		for i := range bits {
			bits[i] = uint(rng.Intn(2))
			w.WriteBit(bits[i])
		}
		r := NewReader(w.Bytes(), w.Len())
		for i := range bits {
			b, err := r.ReadBit()
			if err != nil || b != bits[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderNegativeLimit(t *testing.T) {
	r := NewReader([]byte{0xff, 0x00}, -1)
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d, want 16", r.Remaining())
	}
}

func TestReaderPos(t *testing.T) {
	r := NewReader([]byte{0xaa}, 8)
	for i := 0; i < 3; i++ {
		if _, err := r.ReadBit(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Pos() != 3 {
		t.Fatalf("Pos = %d, want 3", r.Pos())
	}
}

func TestBytesAliasAndPadding(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(1, 1) // 1000_0000
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0x80}) {
		t.Fatalf("Bytes = %x, want 80", got)
	}
}
