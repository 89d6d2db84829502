package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestWriteBitsMatchesWriteBitLoop checks that the word-at-a-time
// WriteBits produces byte-identical output to a per-bit WriteBit loop
// for random sequences of variable-width writes.
func TestWriteBitsMatchesWriteBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		fast := NewWriter(0)
		ref := NewWriter(0)
		for k := 0; k < 1+rng.Intn(20); k++ {
			n := 1 + rng.Intn(64)
			v := rng.Uint64()
			fast.WriteBits(v, n)
			for i := n - 1; i >= 0; i-- {
				ref.WriteBit(uint(v>>uint(i)) & 1)
			}
			if fast.Len() != ref.Len() {
				t.Fatalf("trial %d: Len %d vs %d", trial, fast.Len(), ref.Len())
			}
		}
		if !bytes.Equal(fast.Bytes(), ref.Bytes()) {
			t.Fatalf("trial %d: bytes %x vs %x", trial, fast.Bytes(), ref.Bytes())
		}
	}
}

// TestPeekConsumeMatchesReadBit drives Refill/Peek/Consume with random
// window widths and checks every bit against a ReadBit-loop reader over
// the same buffer.
func TestPeekConsumeMatchesReadBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		nbits := 8 * len(buf)
		if rng.Intn(2) == 0 && nbits > 0 {
			nbits -= rng.Intn(8) // ragged bit length
		}
		var fast, ref Reader
		fast.Init(buf, nbits)
		ref.Init(buf, nbits)
		for fast.Remaining() > 0 {
			fast.Refill()
			n := 1 + rng.Intn(MaxPeek)
			if n > fast.Remaining() {
				n = fast.Remaining()
			}
			got := fast.Peek(n)
			var want uint64
			for i := 0; i < n; i++ {
				b, err := ref.ReadBit()
				if err != nil {
					t.Fatalf("trial %d: reference ReadBit: %v", trial, err)
				}
				want = want<<1 | uint64(b)
			}
			if got != want {
				t.Fatalf("trial %d: Peek(%d) = %#x, want %#x (pos %d)",
					trial, n, got, want, ref.Pos()-n)
			}
			fast.Consume(n)
			if fast.Pos() != ref.Pos() || fast.Remaining() != ref.Remaining() {
				t.Fatalf("trial %d: position drift %d/%d vs %d/%d",
					trial, fast.Pos(), fast.Remaining(), ref.Pos(), ref.Remaining())
			}
		}
	}
}

// TestPeekZeroPaddedPastEnd verifies Peek returns zero bits beyond the
// physical end of input, which the table decoders rely on for their
// truncation checks.
func TestPeekZeroPaddedPastEnd(t *testing.T) {
	var r Reader
	r.Init([]byte{0xff}, -1)
	r.Refill()
	r.Consume(8)
	r.Refill()
	if got := r.Peek(MaxPeek); got != 0 {
		t.Fatalf("Peek past end = %#x, want 0", got)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

// TestRefillGuarantee checks the documented contract: after Refill,
// at least MaxPeek bits are accounted mid-stream.
func TestRefillGuarantee(t *testing.T) {
	buf := make([]byte, 64)
	rand.New(rand.NewSource(4)).Read(buf)
	var r Reader
	r.Init(buf, -1)
	for r.Remaining() > MaxPeek {
		r.Refill()
		if r.ncur < MaxPeek {
			t.Fatalf("after Refill at pos %d: ncur = %d < %d", r.Pos(), r.ncur, MaxPeek)
		}
		r.Consume(1 + r.pos%MaxPeek%7) // irregular consumption pattern
	}
}

// TestWriterPoolReuse checks GetWriter hands back a clean writer and
// PutWriter recycling does not leak bits between values.
func TestWriterPoolReuse(t *testing.T) {
	w := GetWriter(8)
	w.WriteBits(0xdead, 16)
	got := append([]byte(nil), w.Bytes()...)
	PutWriter(w)
	w2 := GetWriter(4)
	if w2.Len() != 0 || len(w2.Bytes()) != 0 {
		t.Fatalf("pooled writer not reset: len=%d bytes=%x", w2.Len(), w2.Bytes())
	}
	w2.WriteBits(0xbeef, 16)
	if !bytes.Equal(got, []byte{0xde, 0xad}) || !bytes.Equal(w2.Bytes(), []byte{0xbe, 0xef}) {
		t.Fatalf("pool leaked bits: first %x second %x", got, w2.Bytes())
	}
	PutWriter(w2)
}
