package storage

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

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
	recs  []Record
	// eqOrder: permutation of recs sorted by compressed bytes; nil when
	// the codec is order-preserving (recs themselves are then sorted by
	// compressed bytes).
	eqOrder []int32
}

// Codec returns the container's codec.
func (c *Container) Codec() compress.Codec { return c.codec }

// Len returns the number of records.
func (c *Container) Len() int { return len(c.recs) }

// Record returns the i-th record in value order.
func (c *Container) Record(i int) Record { return c.recs[i] }

// Decode appends the decompressed i-th value to dst.
func (c *Container) Decode(dst []byte, i int) ([]byte, error) {
	decodeOps.Add(1)
	return c.codec.Decode(dst, c.recs[i].Value)
}

// Encode compresses a probe value with the container's codec.
func (c *Container) Encode(dst, plain []byte) ([]byte, error) {
	return c.codec.Encode(dst, plain)
}

// CompressedBytes returns the total compressed payload size.
func (c *Container) CompressedBytes() int {
	n := 0
	for i := range c.recs {
		n += len(c.recs[i].Value)
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
		lo := sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(c.recs[i].Value, enc) >= 0 })
		hi := sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(c.recs[i].Value, enc) > 0 })
		return EqMatch{c: c, lo: lo, hi: hi, direct: true}, nil
	}
	lo := sort.Search(len(c.eqOrder), func(i int) bool {
		return bytes.Compare(c.recs[c.eqOrder[i]].Value, enc) >= 0
	})
	hi := sort.Search(len(c.eqOrder), func(i int) bool {
		return bytes.Compare(c.recs[c.eqOrder[i]].Value, enc) > 0
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
// value v satisfies loPlain ≤/< v ≤/< hiPlain, evaluated in the
// compressed domain. It requires an order-preserving codec; otherwise
// ErrNeedsDecompression is returned and the caller must scan+decode.
func (c *Container) FindRange(loPlain []byte, loInclusive bool, hiPlain []byte, hiInclusive bool) (int, int, error) {
	if !c.codec.Props().OrderPreserving {
		return 0, 0, ErrNeedsDecompression
	}
	lo := 0
	if loPlain != nil {
		enc, err := c.codec.Encode(nil, loPlain)
		if err != nil {
			return 0, 0, err
		}
		if loInclusive {
			lo = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(c.recs[i].Value, enc) >= 0 })
		} else {
			lo = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(c.recs[i].Value, enc) > 0 })
		}
	}
	hi := len(c.recs)
	if hiPlain != nil {
		enc, err := c.codec.Encode(nil, hiPlain)
		if err != nil {
			return 0, 0, err
		}
		if hiInclusive {
			hi = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(c.recs[i].Value, enc) > 0 })
		} else {
			hi = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(c.recs[i].Value, enc) >= 0 })
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, nil
}

// ErrNeedsDecompression reports that a predicate cannot be evaluated in
// the compressed domain for this container's codec; the query processor
// then inserts an explicit decompress step (case (iii) of the cost
// model's decompression accounting).
var ErrNeedsDecompression = fmt.Errorf("storage: predicate requires decompression for this codec")

// FindRangeDecoding answers the same interval query as FindRange for
// order-agnostic codecs: records are kept in *plaintext* order at build
// time, so a binary search that decodes O(log n) probe records finds
// the bounds — the case-(iii) decompression the cost model charges,
// but logarithmic instead of a full container scan.
func (c *Container) FindRangeDecoding(loPlain []byte, loInclusive bool, hiPlain []byte, hiInclusive bool) (int, int, error) {
	sc := NewScratch()
	defer sc.Release()
	var decodeErr error
	decodeAt := func(i int) []byte {
		if decodeErr != nil {
			return nil
		}
		v, err := c.DecodeScratch(sc, i)
		if err != nil {
			decodeErr = err
			return nil
		}
		return v
	}
	lo := 0
	if loPlain != nil {
		if loInclusive {
			lo = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(decodeAt(i), loPlain) >= 0 })
		} else {
			lo = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(decodeAt(i), loPlain) > 0 })
		}
	}
	hi := len(c.recs)
	if hiPlain != nil {
		if hiInclusive {
			hi = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(decodeAt(i), hiPlain) > 0 })
		} else {
			hi = sort.Search(len(c.recs), func(i int) bool { return bytes.Compare(decodeAt(i), hiPlain) >= 0 })
		}
	}
	if decodeErr != nil {
		return 0, 0, decodeErr
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, nil
}

// buildContainer compresses plaintext values into a sorted container.
// The values arrive as (plaintext, owner) pairs in document order; the
// returned mapping m gives, for document-order position j, the record
// index after sorting — the loader uses it to fill node ValueRefs.
func buildContainer(path string, kind ValueKind, group string, codec compress.Codec, plains [][]byte, owners []NodeID) (*Container, []int32, error) {
	n := len(plains)
	// Duplicate values (enumerations, flags, repeated names) are common;
	// encode each distinct plaintext once. The container needs a
	// value-order sort anyway: a stable sort by plaintext groups
	// duplicates into runs, the run head is encoded once and the encoding
	// shared across the run.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return bytes.Compare(plains[a], plains[b]) })
	// All encodings go into one slab, cut to size once they are known;
	// span[k] is where the encoding of order[k] lies in it.
	var slab []byte
	span := make([][2]int, n)
	for k, pos := range order {
		if k > 0 && bytes.Equal(plains[pos], plains[order[k-1]]) {
			span[k] = span[k-1]
			continue
		}
		from := len(slab)
		var err error
		if slab, err = codec.Encode(slab, plains[pos]); err != nil {
			return nil, nil, fmt.Errorf("container %s: encode %q: %w", path, plains[pos], err)
		}
		span[k] = [2]int{from, len(slab)}
	}
	slab = slices.Clone(slab)
	c := &Container{Path: path, Kind: kind, Group: group, codec: codec}
	c.recs = make([]Record, n)
	for k, pos := range order {
		from, to := span[k][0], span[k][1]
		c.recs[k] = Record{Value: slab[from:to:to], Owner: owners[pos]}
	}
	// Final value order. Order-agnostic codecs sort by plaintext, which
	// the records already are. Order-preserving codecs sort by encoding:
	// for a string codec that is the plaintext order again, but typed
	// codecs preserve value-domain order (e.g. 9 < 10 as integers, but
	// "10" < "9" as bytes), so the records must be re-sorted. Encodings
	// are injective, so equal encodings mean equal plaintexts, and
	// stacking the two stable sorts leaves ties in document order — the
	// same result as one stable sort of document order by the final key.
	byValue := func(a, b Record) int { return bytes.Compare(a.Value, b.Value) }
	if codec.Props().OrderPreserving && !slices.IsSortedFunc(c.recs, byValue) {
		// Sort the records with their document positions: the owner
		// field carries the position through the sort.
		for k, pos := range order {
			c.recs[k].Owner = NodeID(pos)
		}
		slices.SortStableFunc(c.recs, byValue)
		for k := range c.recs {
			order[k] = int32(c.recs[k].Owner)
			c.recs[k].Owner = owners[order[k]]
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
	c.eqOrder = make([]int32, len(c.recs))
	for i := range c.eqOrder {
		c.eqOrder[i] = int32(i)
	}
	slices.SortStableFunc(c.eqOrder, func(a, b int32) int {
		return bytes.Compare(c.recs[a].Value, c.recs[b].Value)
	})
}
