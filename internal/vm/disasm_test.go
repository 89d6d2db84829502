package vm

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"xquec/internal/storage"
	"xquec/internal/xquery"
)

func loadDoc(t *testing.T, doc string, plan *storage.CompressionPlan) *storage.Store {
	t.Helper()
	s, err := storage.Load([]byte(doc), storage.LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compile(t *testing.T, s *storage.Store, q string) *Program {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestListedAccessIsTheAccessMade: the access a LITREST lists for its
// container is the one the run makes, by the decodes it costs — none on
// the compressed bytes, fewer than the records for a binary search, one
// per record for a scan — over int, decimal and string containers, with
// order-preserving and order-agnostic codecs.
func TestListedAccessIsTheAccessMade(t *testing.T) {
	const n = 64
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&doc, "<e><i>%d</i><d>%d.%02d</d><s>v%03d</s></e>", i, i, i%100, i)
	}
	doc.WriteString("</r>")
	type check struct{ where, mode string }
	ints := []check{
		{`$e/i = 30`, "compressed"},
		{`$e/i = "030"`, "compressed"}, // canonicalized to 30
		{`$e/i = 30.5`, "scan"},        // no int is 30.5: compared as atoms
		{`$e/i != 30`, "scan"},
		{`$e/i < 30`, "compressed"},
		{`$e/i >= 30`, "compressed"},
		{`contains($e/i, "3")`, "scan"},
		{`$e/d >= 12.5`, "compressed"},
		{`$e/d = 12.12`, "compressed"},
		{`$e/d != 12.12`, "scan"},
	}
	strs := func(ordered string) []check {
		return []check{
			{`$e/s = "v030"`, "compressed"},
			{`$e/s != "v030"`, "scan"},
			{`$e/s < "v030"`, ordered},
			{`$e/s >= "v030"`, ordered},
			{`contains($e/s, "3")`, "scan"},
			{`$e/s = 30`, "scan"}, // a number against strings: per value
		}
	}
	for alg, checks := range map[string][]check{
		storage.AlgALM:      append(strs("compressed"), ints...),
		storage.AlgHuTucker: strs("compressed"),
		storage.AlgHuffman:  strs("binary search"),
	} {
		s := loadDoc(t, doc.String(), &storage.CompressionPlan{DefaultAlgorithm: alg})
		for _, c := range checks {
			q := `FOR $e IN /r/e WHERE ` + c.where + ` RETURN 1`
			prog := compile(t, s, q)
			dis := prog.Disassemble()
			lit := regexp.MustCompile(`(?m)^.*LITREST.*$`).FindString(dis)
			var mode string
			switch {
			case strings.Contains(lit, "compressed bytes"):
				mode = "compressed"
			case strings.Contains(lit, "binary search"):
				mode = "binary search"
			case strings.Contains(lit, "ContScan"):
				mode = "scan"
			}
			if mode != c.mode {
				t.Errorf("%s %s: listed %q, want %s:\n%s", alg, c.where, mode, c.mode, dis)
				continue
			}
			before := storage.DecodeOps()
			r, err := prog.NewRun(RunOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			decodes := storage.DecodeOps() - before
			if ok := map[string]bool{
				"compressed":    decodes == 0,
				"binary search": decodes > 0 && decodes < n,
				"scan":          decodes == n,
			}[mode]; !ok {
				t.Errorf("%s %s: listed %s, but the run decoded %d of %d records", alg, c.where, mode, decodes, n)
			}
		}
	}
}
