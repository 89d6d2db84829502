package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"xquec/internal/xpar"
)

// Values are a document's values on their way into containers: the
// one intermediate of every write. Parse builds them from XML, as the
// SAX pass goes; DecodeValues from a store's records, decoded once, so
// that a compaction retrains on them instead of the store's XML. The
// cost model's search reads them (Textual), and Store builds the
// repository from them under a plan.
//
// Per value path, in the order the paths' first values appear in the
// document, a list holds the plaintexts in document order — the
// container the path becomes. A decoded list also carries its plaintext
// order, read off the records: a container keeps its records in
// plaintext order, equal values in document order (buildContainer), so
// for a string codec the record order is the order a parse's list sorts
// into. Typed codecs order their records by value instead, and
// buildContainers' check sorts those again.
type Values struct {
	lists []valueList
	// Per text leaf, in document order: its list, and its document
	// position in that list.
	list, pos []int32
	names     []string
	nameIdx   map[string]uint16
	size      int           // the document's bytes
	parse     time.Duration // Parse's SAX pass
	// The structure the leaves sit in: Parse's arrays and summary, to be
	// frozen, or the decoded store's structure, to be shared.
	in   *ingest
	succ *SuccinctStructure
}

// DecodeValues decodes the records of s, GOMAXPROCS containers at a
// time. Every record must belong to exactly one text leaf, as in every
// store Load, LoadBinary or a fusion builds.
func DecodeValues(s *Store) (*Values, error) {
	t := s.succ
	v := &Values{
		list: make([]int32, len(t.valIdx)), pos: make([]int32, len(t.valIdx)),
		names: s.Names, nameIdx: s.nameIdx, size: s.OriginalSize, succ: t,
	}
	listOf := slices.Repeat([]int32{-1}, len(s.Containers)) // by container
	var conts []*Container                                  // by list
	var seen []int32                                        // by list: leaves so far
	for leaf, c := range t.valCont {
		li := listOf[c]
		if li < 0 {
			li = int32(len(v.lists))
			listOf[c] = li
			cont := s.Containers[c]
			conts, seen = append(conts, cont), append(seen, 0)
			v.lists = append(v.lists, valueList{path: cont.Path, order: slices.Repeat([]int32{-1}, cont.Len())})
		}
		// Record r is the leaf's: its document position in the list is
		// the number of the list's leaves before it.
		order := v.lists[li].order
		if r := t.valIdx[leaf]; order[r] < 0 {
			order[r] = seen[li]
		} else {
			return nil, fmt.Errorf("storage: record %d of %s belongs to two text leaves", r, conts[li].Path)
		}
		v.list[leaf], v.pos[leaf] = li, seen[li]
		seen[li]++
	}
	for li, n := range seen {
		if int(n) != conts[li].Len() {
			return nil, fmt.Errorf("storage: %d of %d records of %s belong to no text leaf", conts[li].Len()-int(n), conts[li].Len(), conts[li].Path)
		}
	}
	err := xpar.ForEach(runtime.GOMAXPROCS(0), len(v.lists), func(li int) error {
		l, c := &v.lists[li], conts[li]
		// One slab of plaintexts per container. Equal encodings are equal
		// plaintexts, and sorted records keep them together: each
		// distinct value is decoded once and its plaintext shared.
		var slab []byte
		span := make([][2]int, c.Len())
		for k, enc := range c.vals {
			if k > 0 && bytes.Equal(enc, c.vals[k-1]) {
				span[k] = span[k-1]
				continue
			}
			from := len(slab)
			var err error
			if slab, err = c.codec.Decode(slab, enc); err != nil {
				return fmt.Errorf("storage: decoding %s: %w", c.Path, err)
			}
			span[k] = [2]int{from, len(slab)}
		}
		l.plains = make([][]byte, c.Len())
		for k, pos := range l.order {
			from, to := span[k][0], span[k][1]
			l.plains[pos] = slab[from:to:to]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Textual returns the path and the plaintexts, in document order, of
// every list whose path is among paths and whose values are not all of
// one typed codec, in list order: the containers the cost model's
// search partitions (costmodel.Infos). A typed list — ints, dates,
// decimals, floats, as inferTyped finds them over every value — is left
// out: Store gives it its typed order-preserving codec whatever the
// plan, and the paper likewise restricts the search to "the set of
// non-numerical (textual) containers". The plaintexts are read-only
// views.
func (v *Values) Textual(paths []string) (names []string, plains [][][]byte) {
	want := map[string]bool{}
	for _, p := range paths {
		want[p] = true
	}
	for i := range v.lists {
		l := &v.lists[i]
		if !want[l.path] {
			continue
		}
		if _, typed := l.classify(); typed == nil {
			names = append(names, l.path)
			plains = append(plains, l.plains)
		}
	}
	return names, plains
}

// Store builds the repository of the values under plan (nil: typed
// codecs where values round-trip, otherwise one ALM source model per
// container): buildContainers turns the lists into containers, in list
// order, and every text leaf's (list, position) into (container,
// record). A parse's structure is then frozen and its summary completed;
// a decoded store's structure is shared, and the sweep that proves an
// opened file proves the result and builds its summary. Nothing is
// serialized. Store uses the values up: call it once.
func (v *Values) Store(plan *CompressionPlan) (*Store, error) {
	s := &Store{Names: v.names, nameIdx: v.nameIdx, attrs: attrFlags(v.names), Models: map[string]GroupModel{}, OriginalSize: v.size}
	s.Build.Parse = v.parse
	mappings, err := s.buildContainers(v.lists, plan)
	if err != nil {
		return nil, err
	}
	phase := time.Now()
	for leaf, li := range v.list {
		v.pos[leaf] = mappings[li][v.pos[leaf]]
	}
	s.Build.Encode += time.Since(phase)

	phase = time.Now()
	if in := v.in; in != nil {
		s.succ = in.arr.build()
		s.Sum = in.sum
		// The extents Parse appended to move into one arena.
		arena, end := make([]NodeID, 0, len(in.arr.tags)), make([]int32, len(s.Sum.nodes))
		for i, sn := range s.Sum.nodes {
			arena = append(arena, sn.Extent...)
			end[i] = int32(len(arena))
		}
		s.Sum.cutExtents(arena, end)
		s.Sum.deriveStats(s.Containers)
	} else {
		t := v.succ
		s.succ = &SuccinctStructure{pv: t.pv, isNode: t.isNode, tags: t.tags, valCont: v.list, valIdx: v.pos}
		if err := s.deriveFromSuccinct(); err != nil {
			return nil, err
		}
	}
	s.Build.Index = time.Since(phase)
	return s, nil
}
