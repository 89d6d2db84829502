// Package alm implements the ALM (Antoshenkov–Lomet–Murray)
// order-preserving dictionary compression scheme that XQueC uses for
// string containers involved in inequality predicates (§2.1, Fig. 2).
//
// The source model is a set of disjoint *partitioning intervals* covering
// the space of byte strings. Each interval carries a prefix token and a
// fixed-width code; codes are assigned in interval order. Encoding a
// string repeatedly locates the interval containing the (remaining)
// string, emits its code, and strips its prefix. Because one token may
// appear in several intervals with different codes (the "the" → c / e
// trick of the original paper), the scheme avoids the prefix-property
// pitfall of naive dictionary encodings and guarantees
//
//	bytes.Compare(Encode(x), Encode(y)) == bytes.Compare(x, y)
//
// so equality and inequality predicates — and therefore merge joins and
// range scans — run directly on compressed values.
package alm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"xquec/internal/compress"
)

// singles holds the 256 single-byte tokens every dictionary contains,
// so that every byte string is encodable.
var singles [256]byte

func init() {
	for i := range singles {
		singles[i] = byte(i)
	}
	compress.RegisterLoader("alm", func(data []byte) (compress.Codec, error) {
		return loadModel(data)
	})
}

// DefaultMaxTokens bounds the mined dictionary size (multi-byte tokens;
// the 256 single-byte tokens are always present).
const DefaultMaxTokens = 8192

// Codec is an ALM coder. Safe for concurrent use.
//
// The source model is the sorted mined multi-byte tokens, front-coded:
// model holds exactly the bytes AppendModel writes. The partitioning
// intervals tile ["\x00", +inf) contiguously, so upper bounds are
// implicit: interval i is [lo(i), lo(i+1)) and carries the prefix token
// prefix(i). The partition is a deterministic function of the tokens, so
// it is not stored: the flattened index below is built from the model —
// by Train at once, and for a codec loaded from a repository by its first
// Encode or Decode (see loadModel), so that opening a repository proves
// every model but builds only those its queries read.
type Codec struct {
	model      []byte // never changes once the codec is returned
	nTokens    int    // tokens in model
	tokenBytes int    // their total length
	once       sync.Once

	n         int // number of intervals
	codeWidth int // bytes per code: 1 or 2
	// byFirst[b] is the index of the first interval whose lower bound
	// starts with byte b; byFirst[256] = n. Because the 256 single-byte
	// tokens partition the top level, an interval never spans first
	// bytes, so locating a string only searches one bucket.
	byFirst [257]int32

	// Flattened interval index, the encode/decode hot-path layout: the
	// interval lower bounds and prefixes live in two concatenated blobs
	// with [offset, offset] pairs, so the kernels touch contiguous
	// memory instead of chasing one heap slice per interval. Interval i
	// has lower bound loBlob[loOff[i]:loOff[i+1]] and prefix
	// prefBlob[prefOff[i]:prefOff[i+1]].
	loBlob   []byte
	loOff    []int32
	prefBlob []byte
	prefOff  []int32

	// Second-level encode index: for a bucket b holding more than one
	// interval, sec[secOff[b]+c .. secOff[b]+c+1] brackets the intervals
	// whose lower bound starts with the two bytes [b, c] (every bound in
	// a bucket past the leading single-byte one has length ≥ 2 by
	// construction). The encode automaton uses it to narrow the binary
	// search to one two-byte prefix group and to skip the shared two
	// bytes in each comparison. secOff[b] < 0 marks singleton buckets.
	secOff [256]int32
	sec    []int32
	// loKey[i] is the zero-padded big-endian uint64 of interval i's
	// bound suffix past the shared two-byte group prefix. Search probes
	// compare keys; only ties (equal first 8 suffix bytes, or embedded
	// NULs at the suffix boundary) fall back to a full bytes.Compare.
	loKey []uint64
}

func (c *Codec) lo(i int) []byte     { return c.loBlob[c.loOff[i]:c.loOff[i+1]] }
func (c *Codec) prefix(i int) []byte { return c.prefBlob[c.prefOff[i]:c.prefOff[i+1]] }

// beKey returns the first 8 bytes of b as a zero-padded big-endian
// word. Key order agrees with bytes.Compare order except on ties,
// which callers must resolve with a full comparison.
func beKey(b []byte) uint64 {
	var v uint64
	n := len(b)
	if n >= 8 {
		return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	}
	for i := 0; i < n; i++ {
		v |= uint64(b[i]) << uint(56-8*i)
	}
	return v
}

// Trainer builds ALM codecs from sample values.
type Trainer struct {
	// MaxTokens caps the mined dictionary; 0 means DefaultMaxTokens.
	MaxTokens int
}

// Name implements compress.Trainer.
func (Trainer) Name() string { return "alm" }

// Train implements compress.Trainer.
func (t Trainer) Train(values [][]byte) (compress.Codec, error) {
	max := t.MaxTokens
	if max == 0 {
		max = DefaultMaxTokens
	}
	return Train(values, max)
}

// Train mines a token dictionary from the sample values and builds the
// partitioning-interval codec.
func Train(values [][]byte, maxTokens int) (*Codec, error) {
	return fromTokens(mineTokens(values, maxTokens))
}

// fromTokens builds the codec of an arbitrary token set: tokens shorter
// than two bytes are dropped (the 256 single-byte tokens are implicit),
// the rest sorted, deduplicated, front-coded into the model and fed to
// the builder at once. It reorders extra in place.
func fromTokens(extra [][]byte) (*Codec, error) {
	extra = slices.DeleteFunc(extra, func(t []byte) bool { return len(t) < 2 })
	slices.SortFunc(extra, bytes.Compare)
	extra = slices.CompactFunc(extra, bytes.Equal)
	c := &Codec{nTokens: len(extra)}
	for _, t := range extra {
		c.tokenBytes += len(t)
	}
	// Room for one-byte varints: mined tokens are at most 64 bytes long.
	c.model = make([]byte, 0, binary.MaxVarintLen64+2*len(extra)+c.tokenBytes)
	c.model = compress.AppendUvarint(c.model, uint64(len(extra)))
	b := newBuilder(c)
	var prev []byte
	for _, t := range extra {
		c.model = appendToken(c.model, t, commonPrefixLen(prev, t))
		b.add(t)
		prev = t
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// appendToken front-codes token t after a predecessor it shares lcp
// bytes with.
func appendToken(dst, t []byte, lcp int) []byte {
	dst = compress.AppendUvarint(dst, uint64(lcp))
	return compress.AppendBytes(dst, t[lcp:])
}

// index makes sure the interval index exists: a codec loaded with at
// most maxLazyTokens tokens builds it on the first call, from any
// goroutine; every other codec was built when it was made.
func (c *Codec) index() { c.once.Do(c.buildLoaded) }

func (c *Codec) buildLoaded() {
	if c.n > 0 {
		return
	}
	if err := c.build(); err != nil {
		// loadModel validated the model, and the token count bounds the
		// intervals within the code space.
		panic(fmt.Sprintf("alm: building a validated model: %v", err))
	}
}

// build derives the interval index from the model.
func (c *Codec) build() error {
	b := newBuilder(c)
	if _, err := decodeModel(c.model, func(t []byte, _ int) { b.add(t) }); err != nil {
		return err
	}
	return b.finish()
}

// builder constructs the interval partition in one pass over the mined
// tokens in strictly increasing order, writing the flattened index
// directly. In lexicographic order a token's parent in the prefix forest
// is the nearest preceding token that prefixes it, so the forest is the
// stack of tokens still open; each token's range [tok, succ(tok)) is cut
// into its children's ranges interleaved with gap intervals carrying
// the token itself as prefix.
type builder struct {
	c     *Codec
	stack [][]byte // open tokens, each a prefix of the next (aliases prefBlob)
	next  int      // next single-byte token to open
	succ  [2][]byte
	flip  int
}

// newBuilder sizes c's index for its model's tokens; the blobs grow if
// the estimate is short.
func newBuilder(c *Codec) *builder {
	// Every token, single bytes included, opens one interval. A gap
	// interval follows a closed token (at most one per token) and lies
	// between two children or after the last child of some token (at
	// most two per mined token, all of which are children).
	maxIntervals := 256 + c.nTokens + min(256+c.nTokens, 2*c.nTokens)
	blob := 256 + c.tokenBytes*3/2
	c.loBlob = make([]byte, 0, blob)
	c.loOff = make([]int32, 0, maxIntervals+1)
	c.prefBlob = make([]byte, 0, blob)
	c.prefOff = make([]int32, 0, maxIntervals+1)
	return &builder{c: c}
}

// add opens the next mined token (len ≥ 2, greater than every token
// added before), after any single-byte tokens that sort before it.
func (b *builder) add(t []byte) {
	for ; b.next <= int(t[0]); b.next++ {
		b.open(singles[b.next : b.next+1])
	}
	b.open(t)
}

func commonPrefixLen[T string | []byte](a, b T) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// open closes every open token that does not prefix t, emits the gap
// between the last closed sibling and t, and opens t with the interval
// [t, ...) whose prefix is t itself.
func (b *builder) open(t []byte) {
	var cur []byte // start of the pending gap under the top token; nil = none
	for len(b.stack) > 0 && !bytes.HasPrefix(t, b.stack[len(b.stack)-1]) {
		cur = b.close(cur)
	}
	if cur != nil && len(b.stack) > 0 && bytes.Compare(cur, t) < 0 {
		b.emit(cur, b.stack[len(b.stack)-1])
	}
	b.emit(t, t)
	c := b.c
	b.stack = append(b.stack, c.prefBlob[len(c.prefBlob)-len(t):len(c.prefBlob):len(c.prefBlob)])
}

// close pops the top token, emitting its trailing gap [cur, succ(tok))
// when one is pending and non-empty, and returns succ(tok) — the start
// of the parent's next gap, nil when the token's range extends to +inf.
func (b *builder) close(cur []byte) []byte {
	tok := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.flip ^= 1
	hi := appendSucc(b.succ[b.flip][:0], tok)
	if hi != nil {
		b.succ[b.flip] = hi
	}
	if cur != nil && (hi == nil || bytes.Compare(cur, hi) < 0) {
		b.emit(cur, tok)
	}
	return hi
}

func (b *builder) emit(lo, prefix []byte) {
	c := b.c
	c.loOff = append(c.loOff, int32(len(c.loBlob)))
	c.loBlob = append(c.loBlob, lo...)
	c.prefOff = append(c.prefOff, int32(len(c.prefBlob)))
	c.prefBlob = append(c.prefBlob, prefix...)
}

// finish opens the remaining single-byte tokens, closes everything and
// builds the search indexes.
func (b *builder) finish() error {
	for ; b.next < 256; b.next++ {
		b.open(singles[b.next : b.next+1])
	}
	var cur []byte
	for len(b.stack) > 0 {
		cur = b.close(cur)
	}
	c := b.c
	c.n = len(c.loOff)
	c.loOff = append(c.loOff, int32(len(c.loBlob)))
	c.prefOff = append(c.prefOff, int32(len(c.prefBlob)))
	c.prefBlob = append(c.prefBlob, make([]byte, decodeSlack)...) // Decode reads whole words
	if c.n <= 256 {
		c.codeWidth = 1
	} else if c.n <= 1<<16 {
		c.codeWidth = 2
	} else {
		return fmt.Errorf("alm: %d intervals exceed the 2-byte code space", c.n)
	}
	c.buildSearch()
	return nil
}

// buildSearch derives the first-byte buckets, the search keys and the
// second-level index from the flattened bounds.
func (c *Codec) buildSearch() {
	i := 0
	for b := 0; b < 256; b++ {
		c.byFirst[b] = int32(i)
		for i < c.n && c.loBlob[c.loOff[i]] == byte(b) {
			i++
		}
	}
	c.byFirst[256] = int32(c.n)

	c.loKey = make([]uint64, c.n)
	for i := range c.loKey {
		if lo := c.lo(i); len(lo) >= 2 {
			c.loKey[i] = beKey(lo[2:])
		}
	}

	// Second-level index over multi-interval buckets.
	multi := 0
	for b := 0; b < 256; b++ {
		if c.byFirst[b+1]-c.byFirst[b] > 1 {
			multi++
		}
	}
	c.sec = make([]int32, 257*multi)
	next := 0
	for b := 0; b < 256; b++ {
		lo, hi := int(c.byFirst[b]), int(c.byFirst[b+1])
		if hi-lo <= 1 {
			c.secOff[b] = -1
			continue
		}
		c.secOff[b] = int32(next)
		grp := c.sec[next : next+257]
		next += 257
		// Bucket bounds past the first are sorted by their second byte;
		// walk them once, recording where each second-byte group starts.
		i := lo + 1
		for cc := 0; cc < 256; cc++ {
			grp[cc] = int32(i)
			for i < hi && c.loBlob[c.loOff[i]+1] == byte(cc) {
				i++
			}
		}
		grp[256] = int32(hi)
	}
}

// appendSucc appends to dst the smallest byte string greater than every
// string with prefix t, or returns nil for +inf.
func appendSucc(dst, t []byte) []byte {
	for i := len(t) - 1; i >= 0; i-- {
		if t[i] != 0xff {
			dst = append(dst, t[:i+1]...)
			dst[len(dst)-1]++
			return dst
		}
	}
	return nil
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "alm" }

// Props implements compress.Codec. Per the paper: eq and ineq in the
// compressed domain, no wildcard (prefix) matching.
func (c *Codec) Props() compress.Properties {
	return compress.Properties{Eq: true, Wild: false, OrderPreserving: true}
}

// ModelSize implements compress.Codec.
func (c *Codec) ModelSize() int { return len(c.model) }

// DecodeCost implements compress.Codec. ALM emits multi-byte tokens per
// dictionary step, so it decompresses faster than bit-level entropy
// coders (the property §2.1 highlights). Measured vs huffman = 1.0:
// 529.23 vs 154.20 MB/s (EXPERIMENTS.md "Re-derived DecodeCost constants",
// `go test -run '^$' -bench 'BenchmarkCodecDecode' -benchmem .`).
func (c *Codec) DecodeCost() float64 { return 0.291 }

// Encode implements compress.Codec. The encoded form is the fixed-width
// code sequence of the intervals visited while consuming the value.
//
// The kernel is an automaton over the flattened interval index: the
// first byte selects a bucket; a bucket with one interval emits
// immediately (the byte has no mined tokens); otherwise a closure-free
// binary search over the contiguous lower-bound blob finds the last
// interval at or below the remaining string. The located interval's
// prefix is guaranteed to prefix s by the partition construction (see
// builder), so the consumed length comes straight from the offset table.
func (c *Codec) Encode(dst, value []byte) ([]byte, error) {
	c.index()
	s := value
	for len(s) > 0 {
		b := s[0]
		// Default: the bucket's leading interval, whose bound is the
		// single byte [b]. It is the answer for singleton buckets and
		// for one-byte remainders (every other bound in the bucket is
		// longer, hence greater).
		idx := int(c.byFirst[b])
		if base := c.secOff[b]; base >= 0 && len(s) >= 2 {
			lo := int(c.sec[int(base)+int(s[1])])
			hi := int(c.sec[int(base)+int(s[1])+1])
			// The group's bounds all start with s[:2]; compare the
			// remainders to find the last bound ≤ s. An empty group or
			// an all-greater group resolves to the interval just before
			// it, whose bound is < [b, s[1]] ≤ s.
			s2 := s[2:]
			kS := beKey(s2)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				var greater bool
				if kMid := c.loKey[mid]; kMid != kS {
					greater = kMid > kS
				} else {
					greater = bytes.Compare(c.loBlob[c.loOff[mid]+2:c.loOff[mid+1]], s2) > 0
				}
				if greater {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			idx = lo - 1
		}
		if c.codeWidth == 2 {
			dst = append(dst, byte(idx>>8), byte(idx))
		} else {
			dst = append(dst, byte(idx))
		}
		s = s[c.prefOff[idx+1]-c.prefOff[idx]:]
	}
	return dst, nil
}

// decodeSlack is how far past a token's own bytes its copy may read and
// write: prefBlob is padded by it, and Decode keeps as much room ahead
// of its write position.
const decodeSlack = 16

// Decode implements compress.Codec, copying each code's prefix out of
// the contiguous prefix blob. Tokens are 2–8 bytes for the most part,
// where an append per token — a capacity check and a memmove call —
// costs more than the bytes it moves: so Decode writes into dst's spare
// capacity, making room only when less than the slack is left, and
// copies a token of up to 16 bytes as two 8-byte words whatever its
// length. The bytes past it are overwritten by the next token or lie
// beyond the length returned.
func (c *Codec) Decode(dst, enc []byte) ([]byte, error) {
	c.index()
	w := c.codeWidth
	if len(enc)%w != 0 {
		return dst, fmt.Errorf("alm: encoded length %d not a multiple of code width %d", len(enc), w)
	}
	off := c.prefOff
	at := len(dst)
	dst = dst[:cap(dst)]
	for i := 0; i < len(enc); i += w {
		idx := int(enc[i])
		if w == 2 {
			idx = idx<<8 | int(enc[i+1])
		}
		if idx >= c.n {
			return dst[:at], fmt.Errorf("alm: code %d out of range (%d intervals)", idx, c.n)
		}
		from, n := int(off[idx]), int(off[idx+1]-off[idx])
		if at+max(n, decodeSlack) > len(dst) {
			// This token, the slack, and a byte at least for every code
			// left; append's growth amortizes the rest.
			dst = append(dst[:at], make([]byte, n+decodeSlack+len(enc)-i)...)
			dst = dst[:cap(dst)]
		}
		if n <= decodeSlack {
			src, out := c.prefBlob[from:from+decodeSlack], dst[at:at+decodeSlack]
			binary.LittleEndian.PutUint64(out, binary.LittleEndian.Uint64(src))
			binary.LittleEndian.PutUint64(out[8:], binary.LittleEndian.Uint64(src[8:]))
		} else {
			copy(dst[at:], c.prefBlob[from:from+n])
		}
		at += n
	}
	return dst[:at], nil
}

// AppendModel implements compress.Codec. The interval partition is a
// deterministic function of the token set, so the model is just the
// sorted mined tokens, front-coded: the token count, then per token the
// length of the prefix it shares with its predecessor and the rest.
// Appending it never builds the index.
func (c *Codec) AppendModel(dst []byte) []byte { return append(dst, c.model...) }

// maxModelBytes bounds the decoded size of a persisted dictionary.
// Front coding lets n bytes of model describe O(n²) bytes of tokens; no
// trained model comes near the bound (65 280 tokens of at most 64 bytes
// is 4 MB), and the int32 blob offsets need one anyway.
const maxModelBytes = 1 << 24

// maxLazyTokens is the largest token count whose index build cannot
// fail: up to it, newBuilder's interval bound 256 + n + min(256+n, 2n)
// stays within the 65 536 codes of two bytes.
const maxLazyTokens = 32512

// loadModel makes a codec of AppendModel's bytes, which it keeps. It
// proves the model — every check decodeModel makes — and leaves the
// index to the first Encode or Decode (index), so that opening a
// repository pays for the models its queries read and no more. A model of
// more than maxLazyTokens tokens is built here: its build could fail,
// and a file is refused at open or not at all. A model not front-coded on
// the tokens' true common prefixes, or with a varint longer than it need
// be, is coded again as AppendModel has it — never longer than data.
func loadModel(data []byte) (*Codec, error) {
	shape, err := decodeModel(data, nil)
	if err != nil {
		return nil, err
	}
	c := &Codec{model: data, nTokens: shape.tokens, tokenBytes: shape.bytes}
	if !shape.canonical {
		m := compress.AppendUvarint(make([]byte, 0, len(data)), uint64(shape.tokens))
		_, _ = decodeModel(data, func(t []byte, lcp int) { m = appendToken(m, t, lcp) })
		c.model = m
	}
	if c.nTokens > maxLazyTokens {
		if err := c.build(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// modelShape is what decodeModel learns of a model.
type modelShape struct {
	tokens, bytes int  // token count and their total length
	canonical     bool // the bytes are the ones AppendModel would write
}

// decodeModel front-decodes a model. The input is untrusted: every count
// is bounded by the bytes that remain before anything is allocated, the
// tokens are at least two bytes long, strictly increasing — the order
// the builder consumes them in, without the sort and dedup an arbitrary
// token set needs — and at most maxModelBytes in all, and nothing trails
// them. fn, unless nil, is called with each token, valid only during the
// call, and the length of the prefix it truly shares with its
// predecessor, which may exceed the stored one.
func decodeModel(data []byte, fn func(tok []byte, lcp int)) (modelShape, error) {
	var shape modelShape
	count, n, err := compress.ReadUvarint(data)
	if err != nil {
		return shape, err
	}
	rest := data[n:]
	// A token costs at least two bytes of model: its prefix length and
	// its suffix length.
	if count > uint64(len(rest))/2 {
		return shape, fmt.Errorf("alm: model of %d bytes cannot hold %d tokens", len(rest), count)
	}
	size := uvarintLen(int(count)) // of the canonical coding
	exact := true                  // every stored prefix length is the true one
	tok := make([]byte, 0, 64)     // the current token, rewritten in place from its predecessor
	for i := uint64(0); i < count; i++ {
		lcp, n, err := compress.ReadUvarint(rest)
		if err != nil {
			return shape, err
		}
		rest = rest[n:]
		suffix, n, err := compress.ReadBytes(rest)
		if err != nil {
			return shape, err
		}
		rest = rest[n:]
		if lcp > uint64(len(tok)) {
			return shape, errors.New("alm: front-coded token has bad prefix length")
		}
		if int(lcp)+len(suffix) < 2 {
			return shape, errors.New("alm: persisted token shorter than 2 bytes")
		}
		// prev < prev[:lcp]+suffix iff prev's tail past lcp sorts before
		// the suffix.
		if i > 0 && bytes.Compare(tok[lcp:], suffix) >= 0 {
			return shape, errors.New("alm: persisted tokens not strictly increasing")
		}
		shared := int(lcp) + commonPrefixLen(tok[lcp:], suffix)
		exact = exact && shared == int(lcp)
		tok = append(tok[:lcp], suffix...)
		if shape.bytes += len(tok); shape.bytes > maxModelBytes {
			return shape, fmt.Errorf("alm: persisted dictionary exceeds %d bytes", maxModelBytes)
		}
		size += uvarintLen(shared) + uvarintLen(len(tok)-shared) + len(tok) - shared
		if fn != nil {
			fn(tok, shared)
		}
	}
	if len(rest) != 0 {
		return shape, errors.New("alm: trailing bytes in model")
	}
	shape.tokens = int(count)
	// With the true prefix lengths stored, the suffixes are the canonical
	// ones, and only a varint longer than it need be can add a byte.
	shape.canonical = exact && size == len(data)
	return shape, nil
}
