package xquec_test

import (
	"errors"
	"strings"
	"testing"

	"xquec"
)

// TestExplainListsTheProgramThatRuns: on a set, a query runs on the
// fused store, so its listing is the fused store's program: two segments
// of two and one persons list three, not part 0's two.
func TestExplainListsTheProgramThatRuns(t *testing.T) {
	base, err := xquec.Compress([]byte(`<site><people><person id="p0"/><person id="p1"/></people></site>`), xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`<site><people><person id="p2"/></people></site>`)); err != nil {
		t.Fatal(err)
	}
	db, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	const q = `count(/site/people/person)`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	head, listing, _ := strings.Cut(plan, "\n")
	if head != "evaluate on the fused store of 2 segments" || !strings.Contains(listing, "StructureSummaryAccess /site/people/person (3 nodes)") {
		t.Fatalf("2 segments of 2 + 1 persons:\n%s", plan)
	}
	prep, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.Disassemble(); got != listing {
		t.Fatalf("Explain lists\n%s\nPrepared.Disassemble\n%s", listing, got)
	}
	if got := execXML(t, db, q, xquec.QueryOptions{}); got != "3" {
		t.Fatalf("%s = %s, want 3", q, got)
	}
}

// TestExplainTagsParseErrors: a query that does not parse is ErrParse
// from Explain on every layout, as it is from Execute.
func TestExplainTagsParseErrors(t *testing.T) {
	doc := []byte(`<site><people><person id="p0"/><person id="p1"/><person id="p2"/></people></site>`)
	plain, err := xquec.Compress(doc, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := xquec.Compress(doc, xquec.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := xquec.NewWriter(plain, xquec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(doc); err != nil {
		t.Fatal(err)
	}
	segments, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for layout, db := range map[string]*xquec.Database{"plain": plain, "cut": cut, "segments": segments} {
		if _, err := db.Explain(`for $x in`); !errors.Is(err, xquec.ErrParse) {
			t.Errorf("%s: Explain error %v is not ErrParse", layout, err)
		}
	}
}
