package xquec

import (
	"context"
	"io"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// TestPerTupleAllocationBudget pins the allocations per emitted item of
// XMark queries whose cost is all per-tuple work — a predicate plus a
// constructor (Q17), a LET, an ORDER BY key and a constructor (Q19), a
// positional path (Q2), a LET-bound join counted (Q8), one whose
// constructors are written out (Q9), one of text() items (Q16), a
// residual comparing numbers (Q3), a string-function restrict (Q14) — so
// per-tuple maps, scope clones, boxed one-item sequences and numbers and
// iterator closures cannot creep back. A RETURN constructor is written
// through its emission template into buffers the run shares, and so are
// the items of a LET that is only written out or counted: neither
// allocates per item. What is left is Q19's replayed LET and Q14's text()
// RETURN, a decoded string per item.
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
		{"q17", xmarkq.Q17, 1},
		{"q19", xmarkq.Q19, 5},
		{"q2", xmarkq.Q2, 1},
		{"q8", xmarkq.Q8, 1},
		{"q9", xmarkq.Q9, 1},
		{"q16", xmarkq.Q16, 1},
		// Few auctions pass Q3's WHERE: a run's fixed allocations come to
		// about 2 per item, and one per auction would be over 20.
		{"q3", xmarkq.Q3, 3},
		{"q14", xmarkq.Q14, 5},
	} {
		prep, err := db.Prepare(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		items := 0
		allocs := testing.AllocsPerRun(5, func() {
			res, err := prep.Execute(context.Background(), QueryOptions{})
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
		`/site/people/person[@id="person0"]/name/text()`:                       3, // SCAN ITEREMIT HALT
		`FOR $b IN /site/people/person[@id = "person0"] RETURN $b/name/text()`: 5, // SCAN ITER EVAL EMITSEQ HALT
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

// TestOrderByDecodesOnlyBodies: Q19 sorts on the location container's
// ranks, built when the query is prepared, and evaluates each RETURN
// after the sort. So the first item costs the decodes of one body, and a
// run the decodes of its bodies — a name and a location per item — and
// no key: it used to be 3 per item, the key decoded too.
func TestOrderByDecodesOnlyBodies(t *testing.T) {
	db, err := Compress(datagen.XMark(datagen.XMarkConfig{Scale: 1, Seed: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(xmarkq.Q19)
	if err != nil {
		t.Fatal(err)
	}
	run := func(items int) (n int, decodes int64) {
		before := storage.DecodeOps()
		res, err := prep.Execute(context.Background(), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		for ; items < 0 || n < items; n++ {
			_, ok, err := res.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return n, storage.DecodeOps() - before
	}
	if _, first := run(1); first > 2 {
		t.Errorf("the first item costs %d decodes, want at most 2", first)
	}
	n, all := run(-1)
	if n == 0 || all != int64(2*n) {
		t.Errorf("a run of %d items costs %d decodes, want %d", n, all, 2*n)
	}
}
