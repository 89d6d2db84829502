package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xquec"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

var update = flag.Bool("update", false, "rewrite the golden explain listings")

// TestExplainGolden pins what `xquec query -explain` prints for Q8 and
// Q16: the access plan and the compiled program, whose inner FLWOR is
// loops between LETOPEN and LETBIND with a join index built at compile.
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
	for _, q := range []xmarkq.Query{{ID: "q8", Text: xmarkq.Q8}, {ID: "q16", Text: xmarkq.Q16}} {
		var got strings.Builder
		if err := printExplain(&got, db, q.Text); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", q.ID+".explain")
		if *update {
			if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Fatalf("%s: explain differs from %s\n--- got ---\n%s\n--- want ---\n%s", q.ID, golden, got.String(), want)
		}
	}
}
