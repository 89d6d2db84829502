package bitio

import (
	"bytes"
	"strings"
	"testing"
)

// lengths returns 257 code lengths: head, then tail repeated to fill.
func lengths(head []uint8, tail uint8) []uint8 {
	return append(append([]uint8(nil), head...), bytes.Repeat([]byte{tail}, numSymbols-len(head))...)
}

// TestNewPrefixCodeChecksTheCodeSpace covers each way lengths can fail
// to form a complete prefix code, in both assignment orders: a length
// out of range, an overfull or underfull code space, and — alphabetic
// only — a code that would not start on a multiple of its size.
func TestNewPrefixCodeChecksTheCodeSpace(t *testing.T) {
	// 254 codes of 10 bits and one of 9 fill the last quarter, so
	// {2, 1, 9, 10…} meets Kraft's equality exactly.
	kraftComplete := lengths([]uint8{2, 1, 9}, 10)
	cases := []struct {
		name       string
		lengths    []uint8
		canonical  bool // accepted in canonical order
		alphabetic bool // accepted in alphabetic order
	}{
		{"short model", make([]uint8, 256), false, false},
		{"eight bits each, one left over", lengths(nil, 8), false, false},
		{"nine bits each", lengths(nil, 9), false, false},
		{"a zero length", lengths([]uint8{0, 1, 9}, 10), false, false},
		{"a length past 57", lengths([]uint8{58}, 9), false, false},
		{"misaligned in symbol order", kraftComplete, true, false},
		{"aligned in symbol order", lengths([]uint8{1, 2, 9}, 10), true, true},
	}
	for _, tc := range cases {
		for _, alphabetic := range []bool{false, true} {
			want := tc.canonical
			if alphabetic {
				want = tc.alphabetic
			}
			if _, err := NewPrefixCode("test", tc.lengths, alphabetic); (err == nil) != want {
				t.Errorf("%s (alphabetic %v): err = %v, want accepted = %v", tc.name, alphabetic, err, want)
			}
		}
	}
}

// TestPrefixCodeCodes pins the codes each order hands out for the same
// lengths, and that Decode inverts Encode through long codes.
func TestPrefixCodeCodes(t *testing.T) {
	l := lengths([]uint8{1, 2, 8}, 10)
	l[254], l[255], l[256] = 11, 12, 12 // the last two longer than tableBits
	canon, err := NewPrefixCode("test", l, false)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := NewPrefixCode("test", l, true)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical: byte 0 has the 1-bit code 0; byte 1 the 2-bit code 10.
	// Alphabetic: symbol 0 (EOS) has 0, byte 0 (symbol 1) has 10.
	if canon.codes[0] != 0 || canon.lens[0] != 1 || canon.codes[1] != 0b10 || canon.lens[1] != 2 {
		t.Fatalf("canonical codes: byte 0 %b/%d, byte 1 %b/%d", canon.codes[0], canon.lens[0], canon.codes[1], canon.lens[1])
	}
	if alpha.codes[eosValue] != 0 || alpha.lens[eosValue] != 1 || alpha.codes[0] != 0b10 || alpha.lens[0] != 2 {
		t.Fatalf("alphabetic codes: EOS %b/%d, byte 0 %b/%d", alpha.codes[eosValue], alpha.lens[eosValue], alpha.codes[0], alpha.lens[0])
	}
	value := []byte{0, 1, 2, 200, 253, 254, 255, 0}
	for _, p := range []*PrefixCode{canon, alpha} {
		enc, _ := p.Encode(nil, value)
		if dec, err := p.Decode(nil, enc); err != nil || !bytes.Equal(dec, value) {
			t.Fatalf("round trip %x -> %x (%v)", value, dec, err)
		}
		if _, err := p.Decode(nil, enc[:len(enc)-1]); err == nil || !strings.HasPrefix(err.Error(), "test: truncated value: ") {
			t.Fatalf("truncated decode: err = %v", err)
		}
	}
}
