package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

var update = flag.Bool("update", false, "rewrite the golden explain listings")

// TestExplainGolden pins what `xquec query -explain` prints for Q3, Q5,
// Q8, Q14 and Q16, the listing of the compiled program: Q3's residual
// WHEREs compared as numbers, its count($b/bidder) read from reach spans,
// Q5's count of a FOR answered from a container's record span with no
// sub-program, Q8's and Q16's inner FLWOR loops between LETOPEN and
// LETBIND with a join index built at compile and the strategy of its
// container join — Q8's LET bound at once by LETCUR — Q14's contains() a
// LITREST over the description text containers,
// matching on the compressed bytes of those larger than its code
// automaton and decoding the others, each with the reason.
// Regenerate with `go test ./cmd/xquec -run TestExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "auction.xml")
	if err := os.WriteFile(doc, datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 1}), 0o644); err != nil {
		t.Fatal(err)
	}
	repo := filepath.Join(dir, "auction.xqc")
	if err := cmdCompress([]string{"-o", repo, doc}); err != nil {
		t.Fatal(err)
	}
	db, err := xquec.Open(repo)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []xmarkq.Query{{ID: "q3", Text: xmarkq.Q3}, {ID: "q5", Text: xmarkq.Q5}, {ID: "q8", Text: xmarkq.Q8}, {ID: "q14", Text: xmarkq.Q14}, {ID: "q16", Text: xmarkq.Q16}} {
		got, err := db.Explain(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", q.ID+".explain")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("%s: explain differs from %s\n--- got ---\n%s\n--- want ---\n%s", q.ID, golden, got, want)
		}
	}
}
