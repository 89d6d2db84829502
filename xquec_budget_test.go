package xquec

import (
	"context"
	"io"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// TestPerTupleAllocationBudget pins the allocations per emitted item of
// three XMark queries whose cost is all per-tuple work — a predicate
// plus a constructor (Q17), a LET, an ORDER BY key and a constructor
// (Q19), a positional path (Q2) — so per-tuple maps, scope clones,
// boxed one-item sequences and iterator closures cannot creep back.
// What is left per item is the output itself: the fragment, its
// attribute and content slices, their strings.
func TestPerTupleAllocationBudget(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.5, Seed: 1})
	db, err := Compress(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id, text string
		perItem  float64
	}{
		{"q17", xmarkq.Q17, 8},
		{"q19", xmarkq.Q19, 40},
		{"q2", xmarkq.Q2, 10},
	} {
		prep, err := db.Prepare(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		items := 0
		allocs := testing.AllocsPerRun(5, func() {
			res, err := prep.Execute(context.Background(), QueryOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			items = res.Len()
			if _, err := res.WriteXML(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if items == 0 {
			t.Fatalf("%s: no items", tc.id)
		}
		per := allocs / float64(items)
		t.Logf("%s: %.0f allocations for %d items = %.1f per item (budget %.0f)", tc.id, allocs, items, per, tc.perItem)
		if per > tc.perItem {
			t.Errorf("%s: %.1f allocations per emitted item, budget %.0f", tc.id, per, tc.perItem)
		}
	}
}

// TestPointLookupPlanLength: resolving relative-path targets at compile
// time goes into the program's plan pool, not into its instructions.
func TestPointLookupPlanLength(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1})
	db, err := Compress(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for text, want := range map[string]int{
		`/site/people/person[@id="person0"]/name/text()`:                       4, // RESET SCAN ITEREMIT HALT
		`FOR $b IN /site/people/person[@id = "person0"] RETURN $b/name/text()`: 7, // RESET SCAN ITER HOOK EVAL EMITSEQ HALT
	} {
		prep, err := db.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if got := prep.ProgramLen(); got == 0 || got > want {
			t.Errorf("%s compiles to %d instructions, want 1..%d:\n%s", text, got, want, prep.Disassemble())
		}
	}
}
