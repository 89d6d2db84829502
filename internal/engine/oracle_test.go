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

// TestNestedBindingsStepByStep: a variable bound over nodes that nest
// cannot use the range lookup — an extent node inside a binding's
// interval may sit under a nested binding — so those paths go step by
// step (TestNestedOriginPlansStepwise pins which route each takes), and
// both routes agree with the reference.
func TestNestedBindingsStepByStep(t *testing.T) {
	docs := map[string][]byte{
		"lists": []byte(engine.NestedLists),
		"deep":  datagen.DeepTree(datagen.DeepTreeConfig{Depth: 40, Seed: 5}),
	}
	queries := map[string][]string{
		"lists": {
			// $d over descriptions: one summary node, the range lookup.
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
