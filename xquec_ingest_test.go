package xquec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xquec/internal/xmlparser"
	"xquec/internal/xquery"
)

// TestCompressDepthBomb: six million nested elements are a syntax error
// found after 65 535 of them, in memory that does not grow with the
// bomb — the recursive parser died of stack overflow on this input, which
// no recover catches.
func TestCompressDepthBomb(t *testing.T) {
	bomb := bytes.Repeat([]byte("<a>"), 6_000_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Compress(bomb, Options{})
	runtime.ReadMemStats(&after)
	var se *xmlparser.SyntaxError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "element depth exceeds 65535") {
		t.Fatalf("Compress of a nesting bomb: %v", err)
	}
	// What the first 65 535 levels cost (a summary node each, the open
	// stack), whatever the size of the bomb.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("rejecting the bomb allocated %d MB", grew>>20)
	}
	if _, err := Compress(bomb, Options{Shards: 2}); !errors.As(err, &se) {
		t.Fatalf("Compress of a nesting bomb into parts: %v", err)
	}
}

// TestCompressTooManyNames: the 65 537th distinct name is an error at
// ingest — it used to wrap to tag code 0, answer /r/n65900 with <n364>
// and save a file Open refused — on every route into a repository.
func TestCompressTooManyNames(t *testing.T) {
	const want = "names exceed the 16-bit tag space"
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 66_000; i++ {
		fmt.Fprintf(&sb, "<n%d/>", i)
	}
	sb.WriteString("</r>")
	doc := []byte(sb.String())
	for _, opts := range []Options{{}, {Shards: 2}} {
		if _, err := Compress(doc, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Compress(%+v) of 66 001 names: %v", opts, err)
		}
	}

	db, err := Compress([]byte("<r><n0/></r>"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Commit of 66 001 names: %v", err)
	}
	// The document that cannot be ingested does not wedge the writer.
	if w.Pending() != 0 {
		t.Fatalf("%d documents still staged after the failed commit", w.Pending())
	}
	if err := w.Append([]byte("<r><n1/></r>")); err != nil {
		t.Fatal(err)
	}
	grown, err := w.Commit()
	if err != nil {
		t.Fatalf("commit after a rejected document: %v", err)
	}
	if got, err := ResultXML(grown.MustQuery(`count(/r/*)`)); err != nil || strings.TrimSpace(got) != "2" {
		t.Fatalf("count(/r/*) = %q, %v", got, err)
	}
}

// TestWorkloadTypesLikeTheLoader: the search and the loader classify a
// value path with one rule, over every value. The first 600 values of
// /r/x are integers and a later one is n/a, so the loader stores the
// path as strings, and the search must partition it: a workload naming
// it gives its container a searched group (set…), as it does its
// all-string neighbour, not the default path:/r/x/#text. The search once
// judged types on a 512-value sample and left /r/x out as typed.
func TestWorkloadTypesLikeTheLoader(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&doc, "<x>%d</x><y>word%d</y>", i, i%7)
	}
	doc.WriteString("<x>n/a</x></r>")
	var w Workload
	w.IneqConst("/r/x/#text")
	w.EqConst("/r/y/#text")
	for _, opts := range []Options{{Workload: &w}, {Workload: &w, Shards: 2}} {
		db, err := Compress([]byte(doc.String()), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range db.Containers() {
			if c.Kind != "string" || !strings.HasPrefix(c.Group, "set") {
				t.Errorf("shards %d: %s is %s in group %q, want a string in a searched group", opts.Shards, c.Path, c.Kind, c.Group)
			}
		}
	}
}

// TestWriterBadWorkloadKeepsStaged: a Writer whose workload query does
// not parse is refused by NewWriter with the parse error, so no staged
// document can be lost to it; the staging area of a Writer only loses a
// document that cannot be ingested itself. The Writer was made, and the
// Commit after an Append returned the parse error with Pending() == 0.
func TestWriterBadWorkloadKeepsStaged(t *testing.T) {
	db, err := Compress([]byte("<r><n>1</n></r>"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{WorkloadQueries: []string{"FOR $x IN"}}
	w, err := NewWriter(db, bad)
	if err == nil {
		if err := w.Append([]byte("<r><n>2</n></r>")); err != nil {
			t.Fatal(err)
		}
		_, cerr := w.Commit()
		t.Fatalf("NewWriter accepted an unparsable workload; Commit: %v, %d document(s) still staged", cerr, w.Pending())
	}
	var pe *xquery.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("NewWriter: %v, want the workload's parse error", err)
	}
}
