package storage

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"xquec/internal/succinct"
)

// Fusion builds one store out of pieces of several — the single-store
// view of a partitioned corpus — in the compressed domain: no XML is
// written, parsed or trained on. The caller names the pieces in document
// order (Add), each a paren range of one part; Store copies them with
// their node marks, tags and value refs, merges the parts' containers
// path by path, and hands the arrays to the sweep that proves an opened
// file (deriveFromSuccinct): a wrong piece list is an error, never a
// wrong answer. The parts are only read; the fused store shares their
// value bytes and dictionary and owns what it writes.
type Fusion struct {
	parts  []*Store
	pieces []piece
	vals   [][]byte // merge scratch, reused from container to container
	plain  []byte
}

// piece is a copied paren range [from, to) of a part with its text-leaf ordinals [v0, v1).
type piece struct{ part, from, to, v0, v1 int }

// NewFusion starts a fusion of parts, which share one name dictionary up
// to extension (every dictionary a prefix of the longest).
func NewFusion(parts []*Store) *Fusion { return &Fusion{parts: parts} }

// Span returns the paren positions of node id's open and close in a part.
func (f *Fusion) Span(part int, id NodeID) (open, end int) {
	t := f.parts[part].succ
	open = t.openPos(id)
	return open, t.bp.FindClose(open)
}

// Add appends the paren range [from, to) of a part to the fused sequence.
// Its ends lie next to a node's open or close, never inside a text leaf.
func (f *Fusion) Add(part, from, to int) {
	f.pieces = append(f.pieces, piece{part: part, from: from, to: to})
}

// Store assembles the fused store.
func (f *Fusion) Store() (*Store, error) {
	s := &Store{Models: map[string]GroupModel{}}
	// at[p][c][i] is, for record i of container c of part p, the fused
	// ordinal of the text leaf that refers to it — its place in document
	// order — or -1 when no piece holds that leaf (every shard has the
	// spine's attributes, one is spliced); the merge overwrites it with
	// the record's fused index.
	at := make([][][]int32, len(f.parts))
	nParens := 0
	for p, part := range f.parts {
		if len(part.Names) > len(s.Names) {
			s.Names, s.nameIdx = part.Names, part.nameIdx
		}
		nParens += part.succ.pv.Len() // an upper bound: the pieces are cut from these
		n := 0
		for _, c := range part.Containers {
			n += c.Len()
		}
		flat := slices.Repeat([]int32{-1}, n)
		at[p] = make([][]int32, len(part.Containers))
		for ci, c := range part.Containers {
			at[p][ci], flat = flat[:c.Len():c.Len()], flat[c.Len():]
		}
	}

	// Structure: the pieces' paren bits and node marks word-shifted into
	// place, their tag runs appended as they are (one dictionary).
	pb, mb := succinct.NewBitBuilder(nParens), succinct.NewBitBuilder(nParens/2)
	a := &succinctArrays{tags: make([]uint16, 0, nParens/2)}
	leaves := 0
	for i := range f.pieces {
		pc := &f.pieces[i]
		t := f.parts[pc.part].succ
		o0, o1 := t.pv.Rank1(pc.from), t.pv.Rank1(pc.to)
		n0, n1 := t.isNode.Rank1(o0), t.isNode.Rank1(o1)
		pb.AppendRange(t.pv.Words(), pc.from, pc.to)
		mb.AppendRange(t.isNode.Words(), o0, o1)
		a.tags = append(a.tags, t.tags[n0:n1]...)
		pc.v0, pc.v1 = o0-n0, o1-n1
		for v := pc.v0; v < pc.v1; v++ {
			at[pc.part][t.valCont[v]][t.valIdx[v]] = int32(leaves)
			leaves++
		}
	}

	// Containers, in the order the paths first appear over the parts.
	byPath := map[string][]run{}
	var paths []string
	for p, part := range f.parts {
		for ci, c := range part.Containers {
			runs, ok := byPath[c.Path]
			if !ok {
				paths, runs = append(paths, c.Path), make([]run, 0, len(f.parts))
			}
			byPath[c.Path] = append(runs, run{c: c, at: at[p][ci]})
		}
	}
	for _, path := range paths {
		if c, err := f.merge(s, byPath[path]); err != nil {
			return nil, fmt.Errorf("storage: fusing %s: %w", path, err)
		} else if c != nil {
			s.Containers = append(s.Containers, c)
		}
	}

	// Value refs: every copied leaf's record index, through the merge.
	a.valIdx, a.valCont = make([]int32, 0, leaves), make([]int32, leaves)
	for _, pc := range f.pieces {
		t := f.parts[pc.part].succ
		for v := pc.v0; v < pc.v1; v++ {
			a.valIdx = append(a.valIdx, at[pc.part][t.valCont[v]][t.valIdx[v]])
		}
	}
	a.parens, a.nParens = pb.Words(), pb.Len()
	a.marks, a.nOpens = mb.Words(), mb.Len()
	s.succ = a.build()
	if err := s.deriveFromSuccinct(); err != nil {
		return nil, err
	}
	return s, nil
}

// run is one part's container of a path in the merge: its row of at and a cursor.
type run struct {
	c    *Container
	at   []int32
	vals [][]byte // values under the fused model, nil when the records' own stand
	i    int
}

func (r *run) val() []byte {
	if r.vals != nil {
		return r.vals[r.i]
	}
	return r.c.recs[r.i].Value
}

// next moves the cursor onto the next spliced record, if there is one.
func (r *run) next() bool {
	for r.i < len(r.at) && r.at[r.i] < 0 {
		r.i++
	}
	return r.i < len(r.at)
}

// before orders the heads of two runs: by encoded value, equal values in
// document order — the order buildContainer leaves a container in.
func (r *run) before(o *run) bool {
	if c := bytes.Compare(r.val(), o.val()); c != 0 {
		return c < 0
	}
	return r.at[r.i] < o.at[o.i]
}

// model returns the one model the fused store has for a group name: the
// first part's, in part order, that defines it.
func (f *Fusion) model(s *Store, group string) GroupModel {
	m, ok := s.Models[group]
	for i := 0; !ok && i < len(f.parts); i++ {
		if m, ok = f.parts[i].Models[group]; ok {
			s.Models[group] = m
		}
	}
	return m
}

// merge builds the fused container of one path from the parts' sorted
// containers (nil when no piece refers to any of its values). The path's
// group is the one the first part files it under; records already under
// that group's model — the model's own part, and any part for a typed
// codec, which has no state beyond its parameters — are copied as they
// stand, value bytes shared; the others are decoded and re-encoded, which
// a string codec never refuses; the runs are merged on the encoded bytes.
// That stands on order in the compressed domain: parts that typed the
// path differently, and a model without it, go through rebuild.
func (f *Fusion) merge(s *Store, all []run) (*Container, error) {
	runs, n := all[:0], 0
	for _, r := range all {
		if r.next() { // parts that contribute nothing do not type the path either
			runs = append(runs, r)
		}
		for _, o := range r.at {
			if o >= 0 {
				n++
			}
		}
	}
	if n == 0 {
		return nil, nil
	}
	first := runs[0].c
	for _, r := range runs[1:] {
		if r.c.Kind != first.Kind || first.Kind != KindString && r.c.codec != first.codec {
			return f.rebuild(s, runs, n, nil)
		}
	}
	group := first.Group
	if first.Kind != KindString {
		group = typedGroup(s.Models, first.codec)
	}
	c := &Container{Path: first.Path, Kind: first.Kind, Group: group, codec: f.model(s, group).Codec}
	if !c.codec.Props().OrderPreserving {
		return f.rebuild(s, runs, n, c)
	}
	c.recs, f.vals = make([]Record, 0, n), f.vals[:0]
	var arena []byte // the re-encoded values; earlier sub-slices survive its growth
	for ri := range runs {
		r := &runs[ri]
		if r.c.codec == c.codec {
			continue
		}
		f.vals = slices.Grow(f.vals, len(r.at))[:len(f.vals)+len(r.at)]
		r.vals = f.vals[len(f.vals)-len(r.at):]
		arena = slices.Grow(arena, r.c.CompressedBytes()*5/4)
		for i, prev := r.i, -1; i < len(r.at); i++ {
			if r.at[i] < 0 {
				continue
			}
			if prev >= 0 && bytes.Equal(r.c.recs[i].Value, r.c.recs[prev].Value) {
				// Equal encodings are equal plaintexts, and sorted records
				// keep them together: one decode and encode per distinct value.
				r.vals[i] = r.vals[prev]
				continue
			}
			prev = i
			var err error
			if f.plain, err = r.c.codec.Decode(f.plain[:0], r.c.recs[i].Value); err != nil {
				return nil, err
			}
			k := len(arena)
			if arena, err = c.codec.Encode(arena, f.plain); err != nil {
				return nil, err
			}
			r.vals[i] = arena[k:len(arena):len(arena)]
		}
	}

	for {
		var best, second *run
		for i := range runs {
			switch r := &runs[i]; {
			case !r.next():
			case best == nil:
				best = r
			case r.before(best):
				best, second = r, best
			case second == nil || r.before(second):
				second = r
			}
		}
		if best == nil {
			return c, nil
		}
		// One run stays ahead for long stretches (the base against an
		// appended fragment): take from it until the runner-up's head is due.
		for ok := true; ok; ok = best.next() && (second == nil || best.before(second)) {
			best.at[best.i] = int32(len(c.recs))
			c.recs = append(c.recs, Record{Value: best.val()})
			best.i++
		}
	}
}

// rebuild is the merge without order to stand on: the values are
// decoded, put in document order, and encoded and sorted by the loader's
// own buildContainer — under as, when the path's model is settled; else
// classified first (inferTyped), as a re-ingest would type integers here
// and free text there, or two decimal scales: strings go under the path's
// own model if a part has one, and a newly trained one if none does.
func (f *Fusion) rebuild(s *Store, runs []run, n int, as *Container) (*Container, error) {
	type leaf struct {
		at    *int32
		plain []byte
	}
	leaves, plains := make([]leaf, 0, n), make([][]byte, 0, n)
	for _, r := range runs {
		for ; r.next(); r.i++ {
			plain, err := r.c.codec.Decode(nil, r.c.recs[r.i].Value)
			if err != nil {
				return nil, err
			}
			leaves = append(leaves, leaf{&r.at[r.i], plain})
		}
	}
	slices.SortFunc(leaves, func(a, b leaf) int { return cmp.Compare(*a.at, *b.at) })
	for _, l := range leaves {
		plains = append(plains, l.plain)
	}
	if as == nil {
		as = &Container{Path: runs[0].c.Path, Group: "path:" + runs[0].c.Path}
		if as.Kind, as.codec = inferTyped(plains); as.codec != nil {
			as.Group = typedGroup(s.Models, as.codec)
		} else if as.codec = f.model(s, as.Group).Codec; as.codec == nil {
			var err error
			if as.codec, err = trainers[AlgALM].Train(plains); err != nil {
				return nil, err
			}
			s.Models[as.Group] = GroupModel{Algorithm: AlgALM, Codec: as.codec}
		}
	}
	c, mapping, err := buildContainer(as.Path, as.Kind, as.Group, as.codec, plains, make([]NodeID, n))
	for i := range mapping {
		*leaves[i].at = mapping[i]
	}
	return c, err
}
