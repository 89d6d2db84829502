package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"xquec/internal/compress"
	"xquec/internal/compress/alm"
	"xquec/internal/compress/blob"
	"xquec/internal/compress/huffman"
	"xquec/internal/compress/hutucker"
	"xquec/internal/compress/numeric"
)

var trainers = map[string]compress.Trainer{
	AlgALM:      alm.Trainer{},
	AlgHuffman:  huffman.Trainer{},
	AlgHuTucker: hutucker.Trainer{},
	AlgBlob:     blob.Trainer{},
	AlgInt:      numeric.IntTrainer{},
	AlgFloat:    numeric.FloatTrainer{},
	AlgDate:     numeric.DateTrainer{},
	AlgDecimal:  numeric.DecimalTrainer{},
}

// Container holds all values found under one root-to-leaf path (§2.2).
// Records are sorted in value order — plaintext order, which for
// order-preserving codecs equals compressed-byte order — enabling binary
// search (the paper: "containers closely resemble B+trees on values").
// For order-agnostic codecs an extra permutation sorted by compressed
// bytes supports equality search without decompression.
type Container struct {
	Path  string // e.g. /site/people/person/name/#text or .../@id
	Kind  ValueKind
	Group string // source-model group name

	codec compress.Codec
	// Record i is the compressed value vals[i] of the node owners[i] (its
	// "parent in the structure tree"). The two are parallel arrays so that
	// what reads only owners — restricts, joins, the open path's claim
	// check — walks four bytes a record.
	vals   [][]byte
	owners []NodeID
	// eqOrder: permutation of the records sorted by compressed bytes; nil
	// when the codec is order-preserving (the records themselves are then
	// sorted by compressed bytes).
	eqOrder []int32
}

// Codec returns the container's codec.
func (c *Container) Codec() compress.Codec { return c.codec }

// Len returns the number of records.
func (c *Container) Len() int { return len(c.vals) }

// Value returns the compressed value of the i-th record in value order.
func (c *Container) Value(i int) []byte { return c.vals[i] }

// Owner returns the node the i-th record in value order belongs to.
func (c *Container) Owner(i int) NodeID { return c.owners[i] }

// Decode appends the decompressed i-th value to dst. A caller that
// decodes many values keeps one buffer and passes dst[:0]: once the
// buffer has grown to the largest value, decoding allocates nothing.
func (c *Container) Decode(dst []byte, i int) ([]byte, error) {
	decodeOps.Add(1)
	return c.codec.Decode(dst, c.vals[i])
}

// decodeOps counts every value decompression in the process. It is the
// observable the streaming-result contract is tested against: stopping a
// result cursor after N items must stop the decode counter too.
var decodeOps atomic.Int64

// DecodeOps returns the process-wide number of value decodes performed
// so far. Monotonic; diff two readings to charge a code region.
func DecodeOps() int64 { return decodeOps.Load() }

// Encode compresses a probe value with the container's codec.
func (c *Container) Encode(dst, plain []byte) ([]byte, error) {
	return c.codec.Encode(dst, plain)
}

// CompressedBytes returns the total compressed payload size.
func (c *Container) CompressedBytes() int {
	n := 0
	for _, v := range c.vals {
		n += len(v)
	}
	return n
}

// FindEq returns the range [lo, hi) of record indexes (in value order)
// whose value equals plain. It never decompresses: for order-preserving
// codecs it binary-searches the records, otherwise it binary-searches
// the compressed-byte permutation and maps back — in that case the
// returned indexes are positions in eqOrder, and EqAt must be used.
func (c *Container) FindEq(plain []byte) (EqMatch, error) {
	enc, err := c.codec.Encode(nil, plain)
	if err != nil {
		return EqMatch{}, err
	}
	if c.codec.Props().OrderPreserving {
		lo := sort.Search(len(c.vals), func(i int) bool { return bytes.Compare(c.vals[i], enc) >= 0 })
		hi := sort.Search(len(c.vals), func(i int) bool { return bytes.Compare(c.vals[i], enc) > 0 })
		return EqMatch{c: c, lo: lo, hi: hi, direct: true}, nil
	}
	lo := sort.Search(len(c.eqOrder), func(i int) bool {
		return bytes.Compare(c.vals[c.eqOrder[i]], enc) >= 0
	})
	hi := sort.Search(len(c.eqOrder), func(i int) bool {
		return bytes.Compare(c.vals[c.eqOrder[i]], enc) > 0
	})
	return EqMatch{c: c, lo: lo, hi: hi, direct: false}, nil
}

// EqMatch is the result of an equality lookup: Count record positions,
// retrievable via At.
type EqMatch struct {
	c      *Container
	lo, hi int
	direct bool
}

// Count returns the number of matching records.
func (m EqMatch) Count() int { return m.hi - m.lo }

// At returns the record index (in value order) of the i-th match.
func (m EqMatch) At(i int) int {
	if m.direct {
		return m.lo + i
	}
	return int(m.c.eqOrder[m.lo+i])
}

// FindRange returns the half-open range [lo, hi) of record indexes whose
// value v satisfies loPlain ≤/< v ≤/< hiPlain. Records are in plaintext
// order whatever the codec, so it is one binary search per bound, whose
// comparison is chosen once: on the compressed bytes when the codec
// preserves order — no decompression — else on the records decoded, the
// O(log n) the search probes: the case-(iii) decompression the cost model
// charges, but logarithmic instead of a full container scan.
func (c *Container) FindRange(loPlain []byte, loInclusive bool, hiPlain []byte, hiInclusive bool) (int, int, error) {
	ordered := c.codec.Props().OrderPreserving
	var buf []byte
	var err error
	// record returns record i as a bound is compared with it.
	record := func(i int) []byte { return c.vals[i] }
	if !ordered {
		record = func(i int) []byte {
			if err == nil {
				buf, err = c.Decode(buf[:0], i)
			}
			return buf
		}
	}
	// search returns the first record above the bound, or at it when at
	// is set.
	search := func(plain []byte, at bool) int {
		bound := plain
		if ordered && err == nil {
			bound, err = c.codec.Encode(nil, plain)
		}
		return sort.Search(len(c.vals), func(i int) bool {
			d := bytes.Compare(record(i), bound)
			return d > 0 || at && d == 0
		})
	}
	lo, hi := 0, len(c.vals)
	if loPlain != nil {
		lo = search(loPlain, loInclusive)
	}
	if hiPlain != nil {
		hi = search(hiPlain, !hiInclusive)
	}
	if err != nil {
		return 0, 0, err
	}
	return lo, max(lo, hi), nil
}

// ErrNeedsDecompression reports that a predicate cannot be evaluated in
// the compressed domain for this container's codec; the query processor
// then inserts an explicit decompress step (case (iii) of the cost
// model's decompression accounting).
var ErrNeedsDecompression = fmt.Errorf("storage: predicate requires decompression for this codec")

// valueList is one container's worth of values on the way into it: the
// plaintexts and their owners in document order, and the plaintext order.
type valueList struct {
	path   string
	plains [][]byte
	owners []NodeID // nil: the sweep that proves the store writes them
	// order lists the document positions in plaintext order, equal
	// plaintexts in document order; sortPlain settles it.
	order []int32
	// typed is inferTyped's result once classified is set, so a list
	// the plan step has typed is not typed again when it is stored.
	kind       ValueKind
	typed      compress.Codec
	classified bool
}

// classify runs inferTyped over the plaintexts once.
func (l *valueList) classify() (ValueKind, compress.Codec) {
	if !l.classified {
		l.kind, l.typed = inferTyped(l.plains)
		l.classified = true
	}
	return l.kind, l.typed
}

// sortPlain settles the plaintext order. An order the list arrives with
// (a store's record order, when its values are re-encoded) is checked,
// not trusted, and sorted only where the check fails; none means
// document order.
func (l *valueList) sortPlain() {
	if l.order == nil {
		l.order = make([]int32, len(l.plains))
		for i := range l.order {
			l.order[i] = int32(i)
		}
	}
	byPlain := func(a, b int32) int {
		if c := bytes.Compare(l.plains[a], l.plains[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	if !slices.IsSortedFunc(l.order, byPlain) {
		slices.SortFunc(l.order, byPlain)
	}
}

// appendSorted appends the plaintexts in plaintext order to dst.
func (l *valueList) appendSorted(dst [][]byte) [][]byte {
	for _, pos := range l.order {
		dst = append(dst, l.plains[pos])
	}
	return dst
}

// buildContainer compresses a value list, its plaintext order settled
// (sortPlain), into a container. The returned mapping m gives, for
// document-order position j, the record index — what the builders turn
// value refs into. It takes over l.order.
func buildContainer(l *valueList, kind ValueKind, group string, codec compress.Codec) (*Container, []int32, error) {
	n, order := len(l.plains), l.order
	// Duplicate values (enumerations, flags, repeated names) are common;
	// in plaintext order they form runs, and each run's head is encoded
	// once and the encoding shared across the run. All encodings go into
	// one slab, cut to size once they are known; span[k] is where the
	// encoding of order[k] lies in it.
	var slab []byte
	span := make([][2]int, n)
	for k, pos := range order {
		if k > 0 && bytes.Equal(l.plains[pos], l.plains[order[k-1]]) {
			span[k] = span[k-1]
			continue
		}
		from := len(slab)
		var err error
		if slab, err = codec.Encode(slab, l.plains[pos]); err != nil {
			return nil, nil, fmt.Errorf("container %s: encode %q: %w", l.path, l.plains[pos], err)
		}
		span[k] = [2]int{from, len(slab)}
	}
	slab = slices.Clone(slab)
	c := &Container{Path: l.path, Kind: kind, Group: group, codec: codec}
	c.vals = make([][]byte, n)
	for k := range order {
		from, to := span[k][0], span[k][1]
		c.vals[k] = slab[from:to:to]
	}
	// Final value order. Order-agnostic codecs sort by plaintext, which
	// the records already are. Order-preserving codecs sort by encoding:
	// for a string codec that is the plaintext order again, but typed
	// codecs preserve value-domain order (e.g. 9 < 10 as integers, but
	// "10" < "9" as bytes), so the records must be re-sorted. Encodings
	// are injective, so equal encodings mean equal plaintexts, and a
	// stable sort of the plaintext order leaves ties in document order —
	// the same result as one stable sort of document order by the final
	// key.
	if codec.Props().OrderPreserving && !slices.IsSortedFunc(c.vals, bytes.Compare) {
		// Sort the document positions by their encodings.
		enc := make([][]byte, n)
		for k, pos := range order {
			enc[pos] = c.vals[k]
		}
		slices.SortStableFunc(order, func(a, b int32) int { return bytes.Compare(enc[a], enc[b]) })
		for k, pos := range order {
			c.vals[k] = enc[pos]
		}
	}
	c.owners = make([]NodeID, n)
	if l.owners != nil {
		for k, pos := range order {
			c.owners[k] = l.owners[pos]
		}
	}
	mapping := make([]int32, n)
	for k, pos := range order {
		mapping[pos] = int32(k)
	}
	c.buildEqOrder()
	return c, mapping, nil
}

// buildEqOrder derives the equality permutation of an order-agnostic
// container: record indexes stably sorted by compressed bytes.
func (c *Container) buildEqOrder() {
	if c.codec.Props().OrderPreserving {
		return
	}
	c.eqOrder = make([]int32, len(c.vals))
	for i := range c.eqOrder {
		c.eqOrder[i] = int32(i)
	}
	slices.SortStableFunc(c.eqOrder, func(a, b int32) int {
		return bytes.Compare(c.vals[a], c.vals[b])
	})
}
