package xquec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xquec/internal/xmlparser"
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
		t.Fatalf("sharded Compress of a nesting bomb: %v", err)
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
