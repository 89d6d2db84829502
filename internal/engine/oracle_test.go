package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/vm"
	"xquec/internal/xquery"
)

// evaluators are the two ways a query runs over a store: the tree
// walker and the compiled program. Both must agree with the DOM
// reference, which shares no code (and so no mistake) with either.
var evaluators = []struct {
	name string
	run  func(*storage.Store, string) (string, error)
}{
	{"tree", func(s *storage.Store, q string) (string, error) {
		res, err := engine.New(s).Query(q)
		if err != nil {
			return "", err
		}
		return res.SerializeXML()
	}},
	{"vm", func(s *storage.Store, q string) (string, error) {
		expr, err := xquery.Parse(q)
		if err != nil {
			return "", err
		}
		prog, err := vm.Compile(expr, s, q)
		if err != nil {
			return "", err
		}
		res, err := prog.Run(vm.RunOptions{Parallelism: 1})
		if err != nil {
			return "", err
		}
		return res.SerializeXML()
	}},
}

// agree runs q on doc under every evaluator and requires the
// reference's answer (or the reference's failure).
func agree(t *testing.T, doc []byte, s *storage.Store, q string) {
	t.Helper()
	want, werr := galaxlike.New(doc).Query(q)
	var ws string
	if werr == nil {
		var err error
		if ws, err = want.SerializeXML(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range evaluators {
		gs, gerr := ev.run(s, q)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: error mismatch: got %v, reference %v\nquery: %s\ndoc: %s", ev.name, gerr, werr, q, doc)
		}
		if gerr == nil && gs != ws {
			t.Fatalf("%s differs\nquery: %s\ngot:       %q\nreference: %q\ndoc: %s", ev.name, q, gs, ws, doc)
		}
	}
}

// TestRandomDifferential compares both evaluators against the DOM
// reference on random documents — recursive, with mixed content — for
// every query in the battery under every compression plan.
func TestRandomDifferential(t *testing.T) {
	plans := []*storage.CompressionPlan{
		nil,
		{DefaultAlgorithm: storage.AlgHuffman},
		{DefaultAlgorithm: storage.AlgHuTucker},
	}
	rng := rand.New(rand.NewSource(20040315))
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		doc := engine.RandomDoc(rng)
		for _, plan := range plans {
			s, err := storage.Load(doc, storage.LoadOptions{Plan: plan})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, q := range engine.QueryBattery {
				agree(t, doc, s, q)
			}
		}
	}
}

// TestNestedBindings: a variable bound over nodes that nest — listitems
// inside listitems, a spine forty elements deep — reads, like any other,
// the extents under each binding's own summary node up to the next
// instance of that node (TestRunsResolvePerOrigin pins what each origin
// looks in), and agrees with the reference.
func TestNestedBindings(t *testing.T) {
	docs := map[string][]byte{
		"lists": []byte(engine.NestedLists),
		"deep":  datagen.DeepTree(datagen.DeepTreeConfig{Depth: 40, Seed: 5}),
	}
	queries := map[string][]string{
		"lists": {
			// $d over descriptions: one summary node.
			`FOR $d IN /site/regions/asia/item/description RETURN <d>{$d//listitem/text/text()}</d>`,
			`FOR $d IN //description RETURN count($d//listitem)`,
			`FOR $d IN //description RETURN <d>{$d/parlist/listitem/text/text()}</d>`,
			`FOR $d IN //description RETURN $d/parlist/listitem[last()]/text/text()`,
			// $l over all listitems: three nested summary nodes.
			`FOR $l IN //listitem RETURN <l>{$l/parlist/listitem/text/text()}</l>`,
			`FOR $l IN //listitem RETURN <l n="{count($l//listitem)}">{$l/text/text()}</l>`,
			`FOR $l IN //listitem RETURN $l/parlist/listitem[1]/text`,
			`FOR $l IN //listitem WHERE $l/text = "a" RETURN count($l/parlist/listitem)`,
			`FOR $l IN //listitem, $m IN //listitem WHERE $l/text = $m/text RETURN $m/text/text()`,
			`count(//listitem[text = "a2"])`,
			`FOR $p IN //parlist RETURN count($p/listitem)`,
		},
		"deep": {
			`FOR $s IN //sa RETURN count($s/sb)`,
			`FOR $s IN //sa RETURN <s n="{count($s//sa)}">{$s/la/text()}</s>`,
			`FOR $s IN //sb RETURN $s/sc/lb[1]`,
			`FOR $s IN //sa RETURN $s/sb/sc/sd/sa/la/@k`,
			`FOR $s IN //sc WHERE $s/la >= 5000 RETURN $s/la/text()`,
			`FOR $l IN //la RETURN count($l/lx)`,
		},
	}
	for name, doc := range docs {
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries[name] {
			agree(t, doc, s, q)
		}
	}
}

// TestOrderByMixedKeys: "2" < "10" numerically, "10" < "1a" and
// "1a" < "2" as strings — a comparison chosen per pair is a cycle, and a
// stable sort over it returns an arrangement that depends on its merge
// schedule. Chosen once per sort (here: strings, since "1a" is no
// number), every input permutation sorts the same way, under both
// evaluators and the reference.
func TestOrderByMixedKeys(t *testing.T) {
	keys := []string{"2", "10", "1a"}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, q := range []string{
		`FOR $e IN /r/e ORDER BY $e/k RETURN $e/k/text()`,
		`FOR $e IN /r/e ORDER BY $e/k DESCENDING RETURN $e/k/text()`,
	} {
		var first string
		for _, perm := range perms {
			var sb strings.Builder
			sb.WriteString("<r>")
			for _, i := range perm {
				fmt.Fprintf(&sb, "<e><k>%s</k></e>", keys[i])
			}
			sb.WriteString("</r>")
			doc := []byte(sb.String())
			s, err := storage.Load(doc, storage.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			agree(t, doc, s, q)
			got, err := evaluators[0].run(s, q)
			if err != nil {
				t.Fatal(err)
			}
			if first == "" {
				first = got
			}
			if got != first {
				t.Fatalf("permutation %v sorts to %q, another to %q\nquery: %s", perm, got, first, q)
			}
		}
		if want := "10\n1a\n2"; !strings.Contains(q, "DESC") && first != want {
			t.Fatalf("mixed keys sort to %q, want string order %q", first, want)
		}
	}
}

// TestLiteralRestrictScansOncePerRun: a literal pushdown reached once per
// outer tuple — in a nested FLWOR, in a non-first clause, in a step
// predicate of a relative path — matches its container once per run. The
// comparison here has to decode (a string container against a number),
// so the scan shows in storage.DecodeOps: the same 60 values in 2 groups
// or in 20 cost the same decodes, where they used to cost one scan per
// group.
func TestLiteralRestrictScansOncePerRun(t *testing.T) {
	const entries, hits = 60, 3
	doc := func(groups int) []byte {
		var sb strings.Builder
		sb.WriteString("<r>")
		for g, n := 0, 0; g < groups; g++ {
			sb.WriteString("<g>")
			for i := 0; i < entries/groups; i, n = i+1, n+1 {
				v := fmt.Sprintf("w%d", n)
				if n%(entries/hits) == 0 {
					v = "7.0"
				}
				fmt.Fprintf(&sb, `<e k="k%d"><v>%s</v></e>`, n, v)
			}
			sb.WriteString("</g>")
		}
		sb.WriteString("</r>")
		return []byte(sb.String())
	}
	for _, q := range []string{
		`FOR $g IN /r/g RETURN <g>{FOR $e IN $g/e WHERE $e/v = 7 RETURN $e/@k}</g>`,
		`FOR $g IN /r/g, $e IN $g/e WHERE $e/v = 7 RETURN $e/@k`,
		`FOR $g IN /r/g RETURN count($g/e[v = 7])`,
	} {
		for _, ev := range evaluators {
			var deltas []int64
			for _, groups := range []int{2, 20} {
				d := doc(groups)
				s, err := storage.Load(d, storage.LoadOptions{})
				if err != nil {
					t.Fatal(err)
				}
				agree(t, d, s, q)
				before := storage.DecodeOps()
				if _, err := ev.run(s, q); err != nil {
					t.Fatal(err)
				}
				deltas = append(deltas, storage.DecodeOps()-before)
			}
			if deltas[0] != deltas[1] || deltas[0] < entries || deltas[0] > entries+hits {
				t.Errorf("%s: %s decodes %d values over 2 groups and %d over 20, want one scan of %d (and the %d hits' keys) both times", ev.name, q, deltas[0], deltas[1], entries, hits)
			}
		}
	}
}
