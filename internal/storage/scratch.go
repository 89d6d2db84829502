package storage

import (
	"sync"
	"sync/atomic"
)

// Scratch is a reusable decode buffer. Steady-state query evaluation
// decodes many values per operator call; routing those decodes through a
// pooled Scratch instead of a fresh `nil` destination makes the decode
// path allocation-free once the buffer has grown to the container's
// largest value. A Scratch must not be shared between goroutines; the
// pool hands each caller its own.
type Scratch struct {
	buf []byte
}

var (
	scratchPool = sync.Pool{New: func() any {
		scratchAllocs.Add(1)
		return &Scratch{buf: make([]byte, 0, 512)}
	}}
	scratchGets   atomic.Int64
	scratchAllocs atomic.Int64
)

// NewScratch returns a pooled scratch buffer. Callers should Release it
// when done so steady-state decoding allocates nothing.
func NewScratch() *Scratch {
	scratchGets.Add(1)
	return scratchPool.Get().(*Scratch)
}

// Release returns the scratch buffer to the pool. The slices previously
// returned by DecodeScratch/TextScratch alias the buffer and must not be
// used after Release.
func (s *Scratch) Release() {
	if s != nil {
		scratchPool.Put(s)
	}
}

// ScratchStats reports how many scratch buffers were handed out and how
// many had to be freshly allocated (pool misses). The gap between the
// two is the number of allocation-free reuses; the server exports both
// as decode-alloc counters.
func ScratchStats() (gets, allocs int64) {
	return scratchGets.Load(), scratchAllocs.Load()
}

// DecodeScratch decodes the i-th value into the scratch buffer and
// returns a view of it. The view is valid until the next call on the
// same Scratch (or its Release).
func (c *Container) DecodeScratch(s *Scratch, i int) ([]byte, error) {
	decodeOps.Add(1)
	var err error
	s.buf, err = c.codec.Decode(s.buf[:0], c.recs[i].Value)
	return s.buf, err
}

// decodeOps counts every value decompression in the process, whichever
// path it takes (plain Decode or DecodeScratch). It is the observable
// the streaming-result contract is tested against: stopping a result
// cursor after N items must stop the decode counter too.
var decodeOps atomic.Int64

// DecodeOps returns the process-wide number of value decodes performed
// so far. Monotonic; diff two readings to charge a code region.
func DecodeOps() int64 { return decodeOps.Load() }

// TextScratch is Text decoding into a scratch buffer (see DecodeScratch
// for the aliasing rules).
func (st *Store) TextScratch(s *Scratch, id NodeID) ([]byte, error) {
	var err error
	s.buf, err = st.Text(s.buf[:0], id)
	return s.buf, err
}
