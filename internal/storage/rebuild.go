package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"xquec/internal/xpar"
)

// Values are a store's values decoded once, to be re-encoded under a
// fresh configuration — what a compaction retrains on instead of the
// store's XML. Per container, in the order the paths' first values appear
// in the document (Load's container order), they are the plaintexts in
// document order with their plaintext order read off the records: a
// container keeps its records in plaintext order, equal values in
// document order (buildContainer), so for a string codec the record order
// is the order Load would sort the values into. Typed codecs order their
// records by value instead, and buildContainers' check sorts those again.
type Values struct {
	src   *Store
	lists []valueList
	list  []int32 // per container of src, its list (-1: none)
	pos   []int32 // per text leaf, its document position in its list
}

// DecodeValues decodes the records of s, par containers at a time
// (0 means GOMAXPROCS). Every record must belong to exactly one text
// leaf, as in every store Load, LoadBinary or a fusion builds.
func DecodeValues(s *Store, par int) (*Values, error) {
	t := s.succ
	v := &Values{src: s, list: slices.Repeat([]int32{-1}, len(s.Containers)), pos: make([]int32, len(t.valIdx))}
	var conts []*Container // by list
	var seen []int32       // by list: leaves so far
	for leaf, c := range t.valCont {
		li := v.list[c]
		if li < 0 {
			li = int32(len(v.lists))
			v.list[c] = li
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
		v.pos[leaf] = seen[li]
		seen[li]++
	}
	for li, n := range seen {
		if int(n) != conts[li].Len() {
			return nil, fmt.Errorf("storage: %d of %d records of %s belong to no text leaf", conts[li].Len()-int(n), conts[li].Len(), conts[li].Path)
		}
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	err := xpar.ForEach(par, len(v.lists), func(li int) error {
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

// Lists returns each container's path and its plaintexts in document
// order, in container order: the input of the cost model's search
// (costmodel.Infos). The plaintexts are read-only views.
func (v *Values) Lists() (paths []string, plains [][][]byte) {
	for i := range v.lists {
		paths = append(paths, v.lists[i].path)
		plains = append(plains, v.lists[i].plains)
	}
	return paths, plains
}

// Store re-encodes the values under plan (nil: Load's default) into a
// new store of the source's document: its dictionary, structure and
// original size, with containers, models and value refs built as Load
// builds them from the source's serialization — buildContainers with
// the record order as the plaintext order. Nothing is serialized or
// parsed. The structure is shared with the source, and the sweep that
// proves an opened file proves the result.
func (v *Values) Store(plan *CompressionPlan, par int) (*Store, error) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	src, t := v.src, v.src.succ
	s := &Store{Names: src.Names, nameIdx: src.nameIdx, Models: map[string]GroupModel{}, OriginalSize: src.OriginalSize}
	s.Build.Parallelism = par
	mappings, err := s.buildContainers(v.lists, plan, par)
	if err != nil {
		return nil, err
	}
	phase := time.Now()
	valIdx := make([]int32, len(t.valIdx))
	for leaf, c := range t.valCont {
		valIdx[leaf] = mappings[v.list[c]][v.pos[leaf]]
	}
	s.succ = &SuccinctStructure{bp: t.bp, pv: t.pv, isNode: t.isNode, tags: t.tags, valCont: make([]int32, len(valIdx)), valIdx: valIdx}
	if err := s.deriveFromSuccinct(); err != nil {
		return nil, err
	}
	s.Build.Index = time.Since(phase)
	return s, nil
}
