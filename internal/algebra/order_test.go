package algebra_test

// Property tests of the extent-order primitives (Nearest, AncestorsIn,
// SemiJoinIn) against the operators that ask the tree where a subtree
// ends (SemiJoinAncestor, and the test-side MapToAncestorIn), on stores
// of every provenance: ingested, opened from the serialized form, and
// spliced from the parts of a segment set (storage.Fusion) — all three
// derive their summary extents differently.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/partition"
	"xquec/internal/storage"
)

// provenances returns the stores to test over docs, documents with one
// root tag: the first as ingested and as re-opened, and the fusion of a
// segment set holding all of them.
func provenances(t *testing.T, docs ...[]byte) map[string]*storage.Store {
	t.Helper()
	loaded, err := storage.Load(docs[0], storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := storage.LoadBinary(loaded.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.NewBase(loaded)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[1:] {
		if set, _, err = set.Append([][]byte{doc}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*storage.Store{"ingested": loaded, "opened": opened, "fused": set.Store()}
}

// antichains returns summary sets whose instances never nest: every
// element summary node alone, and every group of same-tag nodes none of
// which lies below another (the six item paths of XMark).
func antichains(s *storage.Store) [][]*storage.SummaryNode {
	var out [][]*storage.SummaryNode
	byTag := map[string][]*storage.SummaryNode{}
	for _, sn := range s.Sum.Nodes() {
		if sn.Tag == "#text" || strings.HasPrefix(sn.Tag, "@") {
			continue
		}
		out = append(out, []*storage.SummaryNode{sn})
		byTag[sn.Tag] = append(byTag[sn.Tag], sn)
	}
tags:
	for _, sums := range byTag {
		for _, a := range sums {
			for anc := a.Parent; anc != nil; anc = anc.Parent {
				for _, b := range sums {
					if b == anc {
						continue tags
					}
				}
			}
		}
		if len(sums) > 1 {
			out = append(out, sums)
		}
	}
	return out
}

// below returns the extents of the proper summary-descendants of sums,
// merged: nodes that each lie under exactly one instance of sums.
func below(sums []*storage.SummaryNode) algebra.NodeSet {
	var lists []algebra.NodeSet
	var walk func(sn *storage.SummaryNode)
	walk = func(sn *storage.SummaryNode) {
		for _, c := range sn.Children {
			if len(c.Extent) > 0 {
				lists = append(lists, c.Extent)
			}
			walk(c)
		}
	}
	for _, sn := range sums {
		walk(sn)
	}
	return algebra.MergeUnion(lists...)
}

func sample(rng *rand.Rand, all algebra.NodeSet, keep float64) algebra.NodeSet {
	var out algebra.NodeSet
	for _, id := range all {
		if rng.Float64() < keep {
			out = append(out, id)
		}
	}
	return out
}

func TestOrderPrimitivesAgainstNavigation(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	corpora := map[string][][]byte{
		"xmark": {
			datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 2}),
			datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 3}),
		},
		"deep": {
			datagen.DeepTree(datagen.DeepTreeConfig{Depth: 80, Seed: 4}),
			datagen.DeepTree(datagen.DeepTreeConfig{Depth: 30, Seed: 5}),
		},
	}
	for _, name := range []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"} {
		corpora[name] = [][]byte{datagen.RandomRecords(rng), datagen.RandomRecords(rng), datagen.RandomRecords(rng)}
	}
	sets, multi := 0, 0
	for name, docs := range corpora {
		for origin, s := range provenances(t, docs...) {
			for _, sums := range antichains(s) {
				all, inner := algebra.SummaryAccess(sums), below(sums)
				if len(all) == 0 || len(inner) == 0 {
					continue
				}
				sets++
				if len(sums) > 1 {
					multi++
				}
				what := name + "/" + origin + " " + sums[0].Path()
				// Every node below has its one ancestor among the instances,
				// and every instance finds itself.
				want := algebra.MapToAncestorIn(s, all, inner)
				if len(want) != len(inner) {
					t.Fatalf("%s: the oracle places %d of %d nodes", what, len(want), len(inner))
				}
				pos := make([]int, len(sums))
				for _, p := range want {
					if k, i := algebra.Nearest(sums, pos, p.B); k < 0 || sums[k].Extent[i] != p.A {
						t.Fatalf("%s: Nearest(%d) = (%d, %d), the ancestor is %d", what, p.B, k, i, p.A)
					}
				}
				for _, p := range want[:min(len(want), 200)] { // any order, with and without hints
					for _, hints := range [][]int{pos, nil} {
						if k, i := algebra.Nearest(sums, hints, p.B); sums[k].Extent[i] != p.A {
							t.Fatalf("%s: Nearest(%d) out of order = %d, the ancestor is %d", what, p.B, sums[k].Extent[i], p.A)
						}
						if k, i := algebra.Nearest(sums, hints, p.A); sums[k].Extent[i] != p.A {
							t.Fatalf("%s: Nearest(%d) does not find the instance itself", what, p.A)
						}
					}
				}
				for _, keep := range []float64{0.02, 0.3, 1} {
					owners := sample(rng, inner, keep)
					if got, want := algebra.AncestorsIn(sums, owners), algebra.SemiJoinAncestor(s, all, owners); !equal(got, want) {
						t.Fatalf("%s: AncestorsIn of %d nodes = %v, SemiJoinAncestor %v", what, len(owners), got, want)
					}
					for _, outerKeep := range []float64{0.05, 0.5, 1} {
						outer := sample(rng, all, outerKeep)
						if got, want := algebra.SemiJoinIn(sums, outer, owners), algebra.SemiJoinAncestor(s, outer, owners); !equal(got, want) {
							t.Fatalf("%s: SemiJoinIn(%v, %v) = %v, SemiJoinAncestor %v", what, outer, owners, got, want)
						}
					}
				}
			}
		}
	}
	if sets == 0 || multi == 0 {
		t.Fatalf("nothing compared: %d summary sets, %d of several nodes", sets, multi)
	}
}

func equal(a, b algebra.NodeSet) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}
