package storage

import "fmt"

// Footprint breaks down the repository's *in-memory* size into the
// components §2.2 discusses. The paper's access-support structures are
// parent pointers ("backward edges"), pre/post/level navigation fields,
// the B+ index and the structure summary with its extents, which it says
// can be dropped to shrink the database by a factor of 3–4 at the price
// of query performance. The paren sequence answers the first three from
// its rank/select directories, so the summary is the one left to
// measure. (The on-disk format omits it; LoadBinary re-derives it, so
// the in-memory view is the right place to measure the trade-off.)
type Footprint struct {
	Dictionary    int // name dictionary
	StructureBP   int // paren bits + rank/select directories + rmM tree + node marks
	StructureTree int // tag codes + value refs
	Summary       int // structure summary including extents
	Containers    int // compressed value payloads + owner pointers
	SourceModels  int // compression source models
}

// Total is the full repository size (all access structures included).
func (f Footprint) Total() int {
	return f.Dictionary + f.StructureBP + f.StructureTree + f.Summary + f.Containers + f.SourceModels
}

// Minimal is the size without the access-support structure (the
// summary) — the §2.2 ablation. The BP bits count as structure, not
// access support: they ARE the tree, and navigation falls out of them
// for free.
func (f Footprint) Minimal() int {
	return f.Dictionary + f.StructureBP + f.StructureTree + f.Containers + f.SourceModels
}

// Add returns the component-wise sum — the aggregation used for a
// repository made of several physical stores (base store plus segment
// sets), so AccessOverheadFactor reflects the whole repository rather
// than just the base store.
func (f Footprint) Add(g Footprint) Footprint {
	f.Dictionary += g.Dictionary
	f.StructureBP += g.StructureBP
	f.StructureTree += g.StructureTree
	f.Summary += g.Summary
	f.Containers += g.Containers
	f.SourceModels += g.SourceModels
	return f
}

// AccessOverheadFactor returns Total / Minimal.
func (f Footprint) AccessOverheadFactor() float64 {
	m := f.Minimal()
	if m == 0 {
		return 0
	}
	return float64(f.Total()) / float64(m)
}

func (f Footprint) String() string {
	return fmt.Sprintf("dict=%d bp=%d tree=%d summary=%d containers=%d models=%d total=%d",
		f.Dictionary, f.StructureBP, f.StructureTree, f.Summary, f.Containers, f.SourceModels, f.Total())
}

// Footprint measures the repository's in-memory component sizes.
func (s *Store) Footprint() Footprint {
	var f Footprint
	for _, n := range s.Names {
		f.Dictionary += len(n) + 16
	}
	bp, marks, refs := s.succ.footprintBytes()
	f.StructureBP, f.StructureTree = bp+marks, refs
	f.Summary = s.Sum.FootprintBytes()
	for _, c := range s.Containers {
		f.Containers += len(c.Path) + 16
		for i := range c.recs {
			f.Containers += len(c.recs[i].Value) + 4
		}
		if c.eqOrder != nil {
			f.Containers += 4 * len(c.eqOrder)
		}
	}
	for _, gm := range s.Models {
		f.SourceModels += gm.Codec.ModelSize()
	}
	return f
}

// CompressionFactor returns 1 - compressed/original, the paper's CF
// metric, using the serialized repository size (what would sit on disk,
// access structures re-derived at load).
func (s *Store) CompressionFactor() float64 {
	if s.OriginalSize == 0 {
		return 0
	}
	return 1 - float64(len(s.AppendBinary(nil)))/float64(s.OriginalSize)
}
