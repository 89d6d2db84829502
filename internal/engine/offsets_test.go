package engine

import (
	"slices"
	"testing"

	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/partition"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

// gallopedReach is the oracle of a run's reads: the instances of t
// under s.Extent[k], found by galloping t's extent for the stretch
// between that instance and the next one of s.
func gallopedReach(s, t *storage.SummaryNode, k int) algebra.NodeSet {
	next := ^storage.NodeID(0) // no node has it
	if k+1 < len(s.Extent) {
		next = s.Extent[k+1]
	}
	return algebra.Within(t.Extent, s.Extent[k]+1, next-1, nil)
}

// checkReach holds rd, the read of t under s, to galloping at every
// instance of s, and says whether it reads one per parent.
func checkReach(t *testing.T, name string, rd reach, s, tn *storage.SummaryNode) {
	t.Helper()
	if !rd.one && len(rd.off) != len(s.Extent)+1 {
		t.Fatalf("%s: %s under %s: %d offsets for %d instances", name, tn.Path(), s.Path(), len(rd.off), len(s.Extent))
	}
	for k := range s.Extent {
		lo, hi := rd.span(int32(k))
		want := gallopedReach(s, tn, k)
		if got := tn.Extent[lo:hi]; !slices.Equal(got, want) {
			t.Fatalf("%s: %s under %s[%d] (one per parent %v): read %d nodes at [%d, %d), galloping finds %d",
				name, tn.Path(), s.Path(), k, rd.one, len(got), lo, hi, len(want))
		}
	}
}

// TestOffsetsAgreeWithGalloping: a relative run reads what it reaches
// from the k-th instance of its origin S with no search — T.Extent[k]
// where every S has one T along the summary chain, else
// T.Extent[off[k]:off[k+1]] — and that must be what galloping T's extent
// finds between the k-th and the next instance of S. Checked for every
// run the xmark_mix, NestedFLWORs and StringRestricts queries compile to
// over XMark and the fused stores of a 4-part cut and of an appended set,
// and, over those and DeepTree (recursive same-tag nesting) and the
// real-life substitutes, for every summary node and each of its
// descendants.
func TestOffsetsAgreeWithGalloping(t *testing.T) {
	xmark := datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 2})
	load := func(doc []byte) *storage.Store {
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fused := func(set *partition.Set) *storage.Store {
		s, err := set.Fused()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	parts, err := partition.Cut(xmark, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := partition.NewBase(load(parts[0]))
	if err != nil {
		t.Fatal(err)
	}
	if cut, err = cut.Append(parts[1:], storage.LoadOptions{}); err != nil {
		t.Fatal(err)
	}
	appended, err := partition.NewBase(load(xmark))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(3); seed < 5; seed++ {
		more := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: seed})
		if appended, err = appended.Append([][]byte{more}, storage.LoadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	xmarkStores := map[string]*storage.Store{
		"xmark":        load(xmark),
		"cut 4 fused":  fused(cut),
		"append fused": fused(appended),
	}
	var queries []xmarkq.Query
	queries = append(queries, xmarkq.Queries()...)
	queries = append(queries, xmarkq.ExtendedQueries()...)
	queries = append(queries, xmarkq.NestedFLWORs()...)
	queries = append(queries, xmarkq.StringRestricts()...)
	offsets, ones := 0, 0
	for name, s := range xmarkStores {
		for _, q := range queries {
			expr, err := xquery.Parse(q.Text)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(expr, s, q.Text)
			if err != nil {
				t.Fatal(err)
			}
			for x, pl := range prog.plans {
				for i := range pl.runs {
					run := &pl.runs[i]
					if run.from == nil {
						continue
					}
					ends := pl.targets[runEnd(x.Steps, i)-1]
					for o, targets := range run.targets {
						for k, tn := range targets {
							rd := run.reads[o][k]
							if rd.at < 0 || ends[rd.at] != tn {
								t.Fatalf("%s %s: %s: %s is not at %d of the run's ends", name, q.ID, x, tn.Path(), rd.at)
							}
							checkReach(t, name+" "+q.ID, rd, run.from[o], tn)
							if rd.one {
								ones++
							} else {
								offsets++
							}
						}
					}
				}
			}
		}
	}
	if offsets == 0 || ones == 0 {
		t.Fatalf("the queries' runs read %d times by offsets and %d one per parent; want both", offsets, ones)
	}

	stores := map[string]*storage.Store{"deep": load(datagen.DeepTree(datagen.DeepTreeConfig{Depth: 60, Seed: 3}))}
	for _, d := range datagen.RealLifeCorpus(5, 0.01) {
		stores[d.Name] = load(d.Data)
	}
	for name, s := range xmarkStores {
		stores[name] = s
	}
	for name, s := range stores {
		e := newEngine(s)
		sawOne, sawOff := false, false
		for _, sn := range s.Sum.Nodes() {
			if sn.Tag == "#text" || isAttr(sn) {
				continue
			}
			var below func(n *storage.SummaryNode)
			below = func(n *storage.SummaryNode) {
				for _, c := range n.Children {
					if c.Tag == "#text" {
						continue
					}
					rd := e.reach(sn, c, 0)
					checkReach(t, name, rd, sn, c)
					sawOne, sawOff = sawOne || rd.one, sawOff || !rd.one
					below(c)
				}
			}
			below(sn)
		}
		if !sawOne || !sawOff {
			t.Fatalf("%s: one per parent seen %v, offsets seen %v; want both", name, sawOne, sawOff)
		}
	}
	// The chain rule is a per-node fact: person/name is one per parent,
	// person/address (an optional child; the generator writes no
	// homepage) is not.
	s := xmarkStores["xmark"]
	for _, c := range []struct {
		path string
		one  bool
	}{{"/site/people/person/name", true}, {"/site/people/person/address", false}, {"/site/regions/europe/item/location", true}} {
		var sn *storage.SummaryNode
		for _, n := range s.Sum.Nodes() {
			if n.Path() == c.path {
				sn = n
			}
		}
		if sn == nil || sn.OnePerParent() != c.one {
			t.Fatalf("%s: one per parent %v, want %v", c.path, sn != nil && sn.OnePerParent(), c.one)
		}
	}
}
