package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// childrenWithin is the navigational child step the summary-extent
// range lookup replaced, kept verbatim as the reference the new code is
// held to: it keeps the targets' extent nodes whose parent is in
// parents, by scanning the parents' kid lists when they are few and by
// resolving every extent node's parent otherwise.
func childrenWithin(s *storage.Store, parents algebra.NodeSet, targets []*storage.SummaryNode) algebra.NodeSet {
	if len(parents) == 0 || len(targets) == 0 {
		return nil
	}
	extentSize := 0
	for _, sn := range targets {
		extentSize += len(sn.Extent)
	}
	if extentSize == 0 {
		return nil
	}
	if len(parents)*8 < extentSize {
		tagSet := map[uint16]bool{}
		for _, sn := range targets {
			if code, ok := s.Code(sn.Tag); ok {
				tagSet[code] = true
			}
		}
		var out []storage.NodeID
		for _, p := range parents {
			for k := range s.Kids(p) {
				if k.ID != 0 && tagSet[s.TagCodeOf(k.ID)] {
					out = append(out, k.ID)
				}
			}
		}
		return algebra.SortUnique(out)
	}
	extent := algebra.SummaryAccess(targets)
	inParents := make(map[storage.NodeID]bool, len(parents))
	for _, p := range parents {
		inParents[p] = true
	}
	pars := make([]storage.NodeID, len(extent))
	s.ParentBulk(extent, pars)
	var out algebra.NodeSet
	for i, c := range extent {
		if inParents[pars[i]] {
			out = append(out, c)
		}
	}
	return out
}

// TestChildStepAgainstNavigation holds both replacements of
// childrenWithin to it on random subsets of bindings: the range lookup
// wherever the bindings' summary set is an antichain (every single
// summary node's extent), the parent-checked step on the nested sets
// (all entries, all nested) where it is not.
func TestChildStepAgainstNavigation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	subset := func(ext []storage.NodeID) algebra.NodeSet {
		var out algebra.NodeSet
		for _, id := range ext {
			if rng.Intn(3) > 0 {
				out = append(out, id)
			}
		}
		return out
	}
	check := func(what string, doc []byte, got, want algebra.NodeSet) {
		t.Helper()
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %v, reference %v\ndoc: %s", what, got, want, doc)
		}
	}
	ranges, steps := 0, 0
	for trial := 0; trial < 40; trial++ {
		doc := datagen.RandomRecords(rng)
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e := New(s)
		byTag := map[string][]*storage.SummaryNode{}
		for _, sn := range s.Sum.Nodes() {
			if sn.Tag == "#text" || len(sn.Children) == 0 {
				continue
			}
			byTag[sn.Tag] = append(byTag[sn.Tag], sn)
			// One summary node is an antichain: every child tag alone,
			// then all children at once (the * step, whose extents
			// interleave inside one parent).
			sets := [][]*storage.SummaryNode{sn.Children}
			for _, c := range sn.Children {
				sets = append(sets, []*storage.SummaryNode{c})
			}
			for _, targets := range sets {
				for rep := 0; rep < 3; rep++ {
					parents := subset(sn.Extent)
					got := e.within(parents, targets, make([]int, len(targets)))
					check("within "+sn.Path(), doc, got, childrenWithin(s, parents, targets))
					ranges++
				}
			}
		}
		// All instances of one tag across recursion levels nest.
		for tag, sums := range byTag {
			if antichain(sums) {
				continue
			}
			var targets []*storage.SummaryNode
			for _, sn := range sums {
				targets = append(targets, sn.Children...)
			}
			parents := subset(algebra.SummaryAccess(sums))
			check("stepwise "+tag, doc, e.stepwise(parents, targets, true), childrenWithin(s, parents, targets))
			steps++
		}
	}
	if ranges == 0 || steps == 0 {
		t.Fatalf("nothing compared: %d range lookups, %d nested sets", ranges, steps)
	}
}

// TestWithinGallopsBothWays: the galloping position is a hint, never a
// constraint — descending and repeated intervals find the same ranges
// as ascending ones.
func TestWithinGallopsBothWays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ext algebra.NodeSet
	for id := storage.NodeID(1); id < 4000; id += storage.NodeID(1 + rng.Intn(9)) {
		ext = append(ext, id)
	}
	pos := 0
	for i := 0; i < 5000; i++ {
		lo := storage.NodeID(rng.Intn(4100))
		hi := lo + storage.NodeID(rng.Intn(60))
		var want algebra.NodeSet
		for _, id := range ext {
			if id >= lo && id <= hi {
				want = append(want, id)
			}
		}
		got := algebra.Within(ext, lo, hi, &pos)
		if len(got) != len(want) || (len(got) > 0 && (got[0] != want[0] || got[len(got)-1] != want[len(want)-1])) {
			t.Fatalf("Within([%d,%d]) = %v, want %v", lo, hi, got, want)
		}
	}
}

// nestedLists is an XMark item description whose parlist/listitem
// structure recurses three levels deep, twice, plus a flat one.
const nestedLists = `<site><regions><asia>
<item id="i0"><name>lamp</name><description><parlist>
  <listitem><text>a</text><parlist>
    <listitem><text>a1</text></listitem>
    <listitem><text>a2</text><parlist><listitem><text>a2x</text></listitem></parlist></listitem>
  </parlist></listitem>
  <listitem><text>b</text></listitem>
</parlist></description></item>
<item id="i1"><name>rug</name><description><text>plain</text></description></item>
<item id="i2"><name>vase</name><description><parlist>
  <listitem><parlist><listitem><text>c1</text></listitem></parlist><text>c</text></listitem>
</parlist></description></item>
</asia></regions></site>`

// TestNestedOriginPlansStepwise pins the route: a path from the
// descriptions (one summary node) plans the range lookup, the same
// steps from all listitems (three summary nodes, each inside the last)
// plan the parent-checked step, and so does every later step whose
// origin still nests.
func TestNestedOriginPlansStepwise(t *testing.T) {
	s, err := storage.Load([]byte(nestedLists), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(s)
	plan := func(origin, rel string) *PathPlan {
		t.Helper()
		expr, err := xquery.Parse("FOR $v IN " + origin + " RETURN $v" + rel)
		if err != nil {
			t.Fatal(err)
		}
		f := expr.(*xquery.FLWOR)
		_, _, sums, err := e.evalBindingSeq(f.Clauses[0].Seq, newScope())
		if err != nil || len(sums) == 0 {
			t.Fatalf("%s: sums %v, err %v", origin, sums, err)
		}
		return e.resolvePath(f.Return.(*xquery.PathExpr), sums)
	}
	if pl := plan("//description", "/parlist/listitem"); !pl.anti[0] || !pl.anti[1] {
		t.Fatalf("$d/parlist/listitem: anti %v, want the range lookup throughout", pl.anti)
	}
	if pl := plan("//description", "//listitem"); !pl.anti[0] || len(pl.Sums()) != 3 {
		t.Fatalf("$d//listitem: anti %v over %d targets, want one range lookup over 3", pl.anti, len(pl.Sums()))
	}
	if pl := plan("//listitem", "/parlist/listitem"); pl.anti[0] || pl.anti[1] {
		t.Fatalf("$l/parlist/listitem: anti %v, want step by step", pl.anti)
	}
	if pl := plan("//listitem", "/text"); pl.anti[0] {
		t.Fatalf("$l/text: anti %v, want step by step", pl.anti)
	}
}
