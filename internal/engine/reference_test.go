package engine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xquec/internal/algebra"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// tree is what the tree itself says of every node, id-1 indexing each
// slice: its parent, the end of its subtree and its level, read once per
// store by the two bulk sweeps and ScanNodes.
type tree struct {
	parent, end []storage.NodeID
	level       []uint16
}

func treeOf(s *storage.Store) tree {
	ids := make([]storage.NodeID, s.NumNodes())
	for i := range ids {
		ids[i] = storage.NodeID(i + 1)
	}
	tr := tree{make([]storage.NodeID, len(ids)), make([]storage.NodeID, len(ids)), make([]uint16, len(ids))}
	s.ParentBulk(ids, tr.parent)
	s.SubtreeEndBulk(ids, tr.end)
	s.ScanNodes(func(id storage.NodeID, level uint16) { tr.level[id-1] = level })
	return tr
}

// navigate is the reference the extent-order run lookup (Engine.within)
// is held to: the steps applied one at a time the way a tree walk does
// them, with what the tree itself says — every node between a binding
// and the end of its subtree is a descendant, and a child if its parent
// is the binding. It never looks at the summary.
func navigate(s *storage.Store, tr tree, nodes algebra.NodeSet, steps []xquery.Step) algebra.NodeSet {
	for _, step := range steps {
		var out []storage.NodeID
		for _, b := range nodes {
			for id := b + 1; id <= tr.end[b-1]; id++ {
				tag := s.TagOf(id)
				match := tag == step.Name && step.Test == xquery.TestName ||
					tag == "@"+step.Name && step.Test == xquery.TestAttr ||
					step.Name == "*" && step.Test == xquery.TestName && !strings.HasPrefix(tag, "@")
				if match && (step.Axis != xquery.AxisChild || tr.parent[id-1] == b) {
					out = append(out, id)
				}
			}
		}
		nodes = algebra.SortUnique(out)
	}
	return nodes
}

// relSteps parses a relative path like "/a//b/@c" into its steps.
func relSteps(t *testing.T, rel string) []xquery.Step {
	t.Helper()
	expr, err := xquery.Parse("$v" + rel)
	if err != nil {
		t.Fatal(err)
	}
	return expr.(*xquery.PathExpr).Steps
}

// TestRunsAgainstNavigation holds the run lookup to navigate on random
// subsets of bindings of every kind of origin set — one summary node,
// every summary node of one tag (across recursion levels these nest, and
// so do their instances), all of a node's children at once — over runs
// of child, descendant and wildcard steps, on documents that recurse
// (RandomRecords, DeepTree) and one that does not (XMark), each both as
// ingested and as opened from its serialized form.
func TestRunsAgainstNavigation(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	subset := func(ext []storage.NodeID) algebra.NodeSet {
		var out algebra.NodeSet
		for _, id := range ext {
			if rng.Intn(3) > 0 {
				out = append(out, id)
			}
		}
		return out
	}
	docs := map[string][]byte{
		"xmark": datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 2}),
		"deep":  datagen.DeepTree(datagen.DeepTreeConfig{Depth: 60, Seed: 3}),
		"lists": []byte(nestedLists),
	}
	for _, name := range []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11"} {
		docs[name] = datagen.RandomRecords(rng)
	}
	rels := map[string][]string{
		"xmark": {"/name", "/location", "/@id", "/*", "//text", "//listitem//text", "/description//listitem", "/profile/interest/@category", "//@person", "/watches/watch"},
		"deep":  {"/sa", "/sb", "/la", "//la", "//sa", "/sb/sc", "//sc/la", "/*", "/la/@k", "//lx"},
		"lists": {"/parlist/listitem", "//listitem", "/text", "//text", "/*", "/parlist/listitem/text", "//parlist/listitem"},
		"":      {"/entry", "/nested", "/label", "//label", "//nested", "/entry/nested/label", "//entry/@key", "/*", "/@key", "//nested//label", "/entry//nested"},
	}
	compared, nested, multi := 0, 0, 0
	for name, doc := range docs {
		loaded, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opened, err := storage.LoadBinary(loaded.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		paths := rels[name]
		if paths == nil {
			paths = rels[""]
		}
		for _, s := range []*storage.Store{loaded, opened} {
			e := newEngine(s)
			tr := treeOf(s)
			byTag := map[string][]*storage.SummaryNode{}
			var origins [][]*storage.SummaryNode
			for _, sn := range s.Sum.Nodes() {
				if sn.Tag == "#text" || strings.HasPrefix(sn.Tag, "@") {
					continue
				}
				byTag[sn.Tag] = append(byTag[sn.Tag], sn)
				origins = append(origins, []*storage.SummaryNode{sn})
			}
			for _, sums := range byTag {
				if len(sums) > 1 {
					origins = append(origins, sums)
				}
			}
			for _, sums := range origins {
				if len(sums) > 1 {
					multi++
					if !antichain(sums) {
						nested++
					}
				}
				for _, rel := range paths {
					steps := relSteps(t, rel)
					rsteps := stepsOf(&xquery.PathExpr{Var: "v", Steps: steps})
					pl := e.resolvePath(rsteps, false, sums)
					if runEnd(rsteps, 0) != len(steps) {
						t.Fatalf("%s is not one run", rel)
					}
					pos := make([]int, pl.slots)
					for rep := 0; rep < 2; rep++ {
						bindings := subset(algebra.SummaryAccess(sums))
						got, _ := e.within(bindings, place{}, &pl.runs[0], pos)
						if want := navigate(s, tr, bindings, steps); (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %s from %v under %d origins: got %v, navigation %v", name, rel, bindings, len(sums), got, want)
						}
						// One binding at a time, in random order, found by
						// galloping and at its known place: the cursors are
						// hints, never constraints, and a place that comes
						// back says where the result lies.
						for _, k := range rng.Perm(len(bindings)) {
							want := navigate(s, tr, bindings[k:k+1], steps)
							for _, at := range []place{{}, placeOf(sums, nil, bindings[k])} {
								got, gotAt := e.within(bindings[k:k+1], at, &pl.runs[0], pos)
								if (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: %s from %d at %v: got %v, navigation %v", name, rel, bindings[k], at, got, want)
								}
								if ext := pl.sums(); gotAt.ok && !reflect.DeepEqual(got, algebra.NodeSet(ext[gotAt.o].Extent[gotAt.i:int(gotAt.i)+len(got)])) {
									t.Fatalf("%s: %s from %d: got %v, placed at %v", name, rel, bindings[k], got, gotAt)
								}
							}
						}
						compared++
					}
				}
			}
		}
	}
	if compared == 0 || nested == 0 || multi == nested {
		t.Fatalf("nothing compared: %d lookups, %d multi-origin sets, %d of them nested", compared, multi, nested)
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

// TestRunsResolvePerOrigin pins what a plan looks in: a step from one
// of several origins reads the extents under that origin only, and a
// nested origin set is resolved like any other.
func TestRunsResolvePerOrigin(t *testing.T) {
	plan := func(s *storage.Store, origin, rel string) *pathPlan {
		t.Helper()
		e := newEngine(s)
		expr, err := xquery.Parse("FOR $v IN " + origin + " RETURN $v" + rel)
		if err != nil {
			t.Fatal(err)
		}
		f := expr.(*xquery.FLWOR)
		sums := e.resolvePath(stepsOf(f.Clauses[0].Seq.(*xquery.PathExpr)), true, nil).sums()
		if len(sums) == 0 {
			t.Fatalf("%s: sums %v", origin, sums)
		}
		return e.resolvePath(stepsOf(f.Return.(*xquery.PathExpr)), false, sums)
	}
	xmark, err := storage.Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 2}), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl := plan(xmark, "/site/regions//item", "/location")
	if run := pl.runs[0]; len(run.from) != 6 || len(pl.sums()) != 6 {
		t.Fatalf("$i/location under //item: %d origins, %d targets in all, want 6 and 6", len(run.from), len(pl.sums()))
	} else {
		for o, targets := range run.targets {
			if len(targets) != 1 || targets[0].Parent != run.from[o] {
				t.Fatalf("origin %s looks in %d extents", run.from[o].Path(), len(targets))
			}
		}
	}
	lists, err := storage.Load([]byte(nestedLists), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pl := plan(lists, "//description", "//listitem"); len(pl.runs[0].targets) != 1 || len(pl.runs[0].targets[0]) != 3 {
		t.Fatalf("$d//listitem: %v, want one origin reaching 3 extents", pl.runs[0].targets)
	}
	// Three listitem summary nodes, each inside the last: the outermost
	// reaches the two below it, the innermost none.
	pl = plan(lists, "//listitem", "/parlist/listitem")
	reach := []int{}
	for _, targets := range pl.runs[0].targets {
		reach = append(reach, len(targets))
	}
	if !reflect.DeepEqual(reach, []int{1, 1, 0}) {
		t.Fatalf("$l/parlist/listitem reaches %v extents per origin, want [1 1 0]", reach)
	}
	pl = plan(lists, "//listitem", "//listitem")
	reach = reach[:0]
	for _, targets := range pl.runs[0].targets {
		reach = append(reach, len(targets))
	}
	if !reflect.DeepEqual(reach, []int{2, 1, 0}) {
		t.Fatalf("$l//listitem reaches %v extents per origin, want [2 1 0]", reach)
	}
}
