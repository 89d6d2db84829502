package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testDoc = `<site><people>
  <person id="p0"><name>Alice</name><age>30</age></person>
  <person id="p1"><name>Bob</name><age>25</age></person>
</people></site>`

func setup(t *testing.T) (docPath, repoPath string) {
	t.Helper()
	dir := t.TempDir()
	docPath = filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(docPath, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	repoPath = filepath.Join(dir, "doc.xqc")
	if err := cmdCompress([]string{"-o", repoPath, docPath}); err != nil {
		t.Fatal(err)
	}
	return docPath, repoPath
}

func TestCompressQueryStats(t *testing.T) {
	_, repo := setup(t)
	if err := cmdQuery([]string{"-q", `count(/site//person)`, repo}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{repo}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-explain", "-q", `/site/people/person/name`, repo}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecompress([]string{repo}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressWithAlgorithm(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "d.xml")
	if err := os.WriteFile(doc, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "d.xqc")
	if err := cmdCompress([]string{"-o", out, "-alg", "huffman", doc}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-q", `/site/people/person[@id = "p0"]/name/text()`, out}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryTimeout(t *testing.T) {
	_, repo := setup(t)
	// An already-expired deadline aborts deterministically before any
	// evaluation; the error must be distinguishable from query errors
	// so main can exit with the dedicated timeout code.
	err := cmdQuery([]string{"-timeout", "1ns", "-q", `count(/site//person)`, repo})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// A generous timeout does not disturb a normal query.
	if err := cmdQuery([]string{"-timeout", "30s", "-q", `count(/site//person)`, repo}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if err := cmdCompress([]string{}); err == nil || !strings.Contains(err.Error(), "one input") {
		t.Fatalf("err = %v", err)
	}
	if err := cmdQuery([]string{"nonexistent.xqc"}); err == nil {
		t.Fatal("missing -q accepted")
	}
	if err := cmdStats([]string{"nonexistent.xqc"}); err == nil {
		t.Fatal("missing repo accepted")
	}
	if err := cmdCompress([]string{"nonexistent.xml"}); err == nil {
		t.Fatal("missing doc accepted")
	}
	_, repo := setup(t)
	if err := cmdQuery([]string{"-q", "for $x in", repo}); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestQueryParseErrorLineColumn: a query that fails to parse on its third
// line is reported on stderr with that line and column, and exits with
// the parse-error code.
func TestQueryParseErrorLineColumn(t *testing.T) {
	_, repo := setup(t)
	q := "for $p in /site/people/person\nwhere $p/age > 26\nreturn $p/name )"
	err := cmdQuery([]string{"-q", q, repo})
	if err == nil {
		t.Fatal("no error")
	}
	var stderr strings.Builder
	if code := report(&stderr, err); code != exitParse {
		t.Errorf("exit code %d, want %d", code, exitParse)
	}
	if want := "parse error at line 3, column 16 (byte 63): unexpected ) after query"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", stderr.String(), want)
	}
}
