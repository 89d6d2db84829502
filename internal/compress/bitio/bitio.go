// Package bitio provides bit-level writers and readers used by the
// entropy coders (Huffman, Hu-Tucker) in the XQueC compressor.
//
// Compressed values in XQueC are individually accessible, so a coded
// value is a self-contained bit string. Writer packs bits MSB-first
// into a byte slice; Reader consumes them in the same order. MSB-first
// packing has the property that, for prefix-free codes, bytewise
// comparison of the packed form equals bitwise comparison of the code
// sequence, which the order-preserving coders rely on.
//
// Both ends run word-at-a-time: Writer.WriteBits ORs a whole
// left-justified 64-bit window into the buffer instead of looping per
// bit, and Reader keeps a 64-bit lookahead (Refill/Peek/Consume) so
// table-driven decoders can classify a whole code with one load. The
// bit-at-a-time entry points (WriteBit/ReadBit) are retained — they
// interoperate with the word paths and serve as the differential-test
// reference.
//
// PrefixCode, built on both ends, is the one code table, encoder and
// decoder of the two entropy coders.
package bitio

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Writer accumulates bits MSB-first into an internal buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total number of bits written
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// writerPool recycles Writers across encoded values; the entropy
// coders' Encode grabs one per value, which used to be the dominant
// ingestion allocation (see GetWriter).
var writerPool = sync.Pool{New: func() interface{} { return new(Writer) }}

// GetWriter returns a reset pooled Writer whose buffer holds at least
// sizeHint bytes. Pair with PutWriter; the caller must copy Bytes()
// out before returning the writer to the pool.
func GetWriter(sizeHint int) *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	if cap(w.buf) < sizeHint {
		w.buf = make([]byte, 0, sizeHint)
	}
	return w
}

// PutWriter returns a Writer obtained from GetWriter to the pool.
func PutWriter(w *Writer) { writerPool.Put(w) }

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(bit uint) {
	w.WriteBits(uint64(bit&1), 1)
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n <= 0 {
		return
	}
	if n < 64 {
		v &= uint64(1)<<uint(n) - 1
	}
	off := w.nbit & 7
	if off+n > 64 {
		// Only possible for n > 57: split so each half fits one
		// 64-bit window.
		w.WriteBits(v>>32, n-32)
		w.WriteBits(v&0xffffffff, 32)
		return
	}
	// Left-justify v and shift it down to the current bit offset; the
	// whole code then ORs into at most 8 consecutive bytes.
	idx := w.nbit >> 3
	end := (w.nbit + n + 7) >> 3
	for len(w.buf) < end {
		w.buf = append(w.buf, 0)
	}
	word := v << uint(64-n) >> uint(off)
	for i := idx; word != 0; i++ {
		w.buf[i] |= byte(word >> 56)
		word <<= 8
	}
	w.nbit += n
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed bits. Trailing bits of the final byte are zero.
// The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Reader consumes bits MSB-first from a byte slice. It maintains a
// 64-bit lookahead word so decoders can Peek several code lengths'
// worth of bits at once: bits [pos, pos+ncur) sit left-justified in
// cur, and Refill tops the word up from buf in (at most) 8-byte loads.
type Reader struct {
	buf  []byte
	pos  int    // bit position of the next unconsumed bit
	end  int    // total bits available
	cur  uint64 // lookahead bits, left-justified
	ncur int    // number of accounted bits in cur
	next int    // index of the next byte of buf to load into cur
}

// NewReader returns a Reader over buf limited to nbits bits.
// If nbits is negative, all of buf (8*len(buf) bits) is available.
func NewReader(buf []byte, nbits int) *Reader {
	r := &Reader{}
	r.Init(buf, nbits)
	return r
}

// Init resets r to read buf, limited to nbits bits (negative means all
// of buf; values beyond 8*len(buf) are clamped). It lets decoders use a
// stack-allocated value Reader on hot paths instead of heap-allocating
// one per call via NewReader.
func (r *Reader) Init(buf []byte, nbits int) {
	if nbits < 0 || nbits > 8*len(buf) {
		nbits = 8 * len(buf)
	}
	*r = Reader{buf: buf, end: nbits}
}

// Refill tops the lookahead word up to at least 57 bits, or to the end
// of the input if fewer remain. Decoders call it once per symbol and
// may then Peek/Consume up to 57 bits (MaxPeek) without further checks
// against the physical buffer.
func (r *Reader) Refill() {
	if r.next+8 <= len(r.buf) {
		// Load 8 bytes and account as many whole bytes as fit above the
		// current fill level. The unaccounted low fragment holds correct
		// upcoming stream bits; later refills OR the same values over it.
		v := binary.BigEndian.Uint64(r.buf[r.next:])
		r.cur |= v >> uint(r.ncur)
		add := (64 - r.ncur) >> 3
		r.next += add
		r.ncur += add << 3
		return
	}
	for r.ncur <= 56 && r.next < len(r.buf) {
		r.cur |= uint64(r.buf[r.next]) << uint(56-r.ncur)
		r.next++
		r.ncur += 8
	}
}

// MaxPeek is the largest n that Peek/Consume support between two
// Refill calls.
const MaxPeek = 57

// Peek returns the next n bits (n ≤ MaxPeek) as the low bits of the
// result without consuming them. Past the end of input the bits are
// zero. Callers must Refill first and must bound any Consume that
// follows by Remaining(); Peek itself never fails.
func (r *Reader) Peek(n int) uint64 {
	return r.cur >> (64 - uint(n))
}

// Consume advances the reader by n bits, which must have been made
// available by the preceding Refill (n ≤ MaxPeek) and must not exceed
// Remaining().
func (r *Reader) Consume(n int) {
	r.cur <<= uint(n)
	r.ncur -= n
	r.pos += n
}

// ReadBit returns the next bit, or an error at end of input.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.end {
		return 0, r.errPastEnd()
	}
	if r.ncur <= 0 {
		r.Refill()
	}
	b := uint(r.cur >> 63)
	r.cur <<= 1
	r.ncur--
	r.pos++
	return b, nil
}

// errPastEnd is the end-of-input error; ErrTruncated exposes it so
// decoders can reproduce the exact bit-at-a-time error on their fast
// paths.
func (r *Reader) errPastEnd() error {
	return fmt.Errorf("bitio: read past end (%d bits)", r.end)
}

// ErrTruncated returns the error ReadBit reports at end of input,
// without consuming anything. Table-driven decoders use it when a
// matched code extends past Remaining(), so the word-at-a-time and
// bit-at-a-time kernels fail identically on truncated input.
func (r *Reader) ErrTruncated() error { return r.errPastEnd() }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.end - r.pos }

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }
