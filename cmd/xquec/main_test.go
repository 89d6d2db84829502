package main

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// stdout runs fn with os.Stdout redirected into a pipe and returns what
// it printed.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	os.Stdout = saved
	w.Close()
	s := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAppendCompact appends two documents to a repository, then
// compacts the set, and checks after each step that queries print what
// they print over the concatenated document compressed at once.
func TestAppendCompact(t *testing.T) {
	doc, repo := setup(t)
	dir := filepath.Dir(doc)
	frags := []string{
		`<site><people><person id="p2"><name>Carol</name><age>41</age></person></people></site>`,
		`<site><regions><item id="i0"><name>gold watch</name></item></regions></site>`,
	}
	args := []string{repo}
	for i, f := range frags {
		path := filepath.Join(dir, fmt.Sprintf("frag%d.xml", i))
		if err := os.WriteFile(path, []byte(f), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, path)
	}
	whole := filepath.Join(dir, "whole.xml")
	concat := strings.TrimSuffix(testDoc, "</site>")
	for _, f := range frags {
		concat += strings.TrimSuffix(strings.TrimPrefix(f, "<site>"), "</site>")
	}
	if err := os.WriteFile(whole, []byte(concat+"</site>"), 0o644); err != nil {
		t.Fatal(err)
	}
	wholeRepo := filepath.Join(dir, "whole.xqc")
	if err := cmdCompress([]string{"-o", wholeRepo, whole}); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`count(/site//person)`,
		`/site/people/person/name/text()`,
		`for $p in /site/people/person where $p/age > 26 return $p/name`,
		`/site/regions/item[@id = "i0"]/name`,
	}
	check := func(step, set string) {
		t.Helper()
		for _, q := range queries {
			got := stdout(t, func() error { return cmdQuery([]string{"-q", q, set}) })
			want := stdout(t, func() error { return cmdQuery([]string{"-q", q, wholeRepo}) })
			if got != want || want == "" {
				t.Errorf("%s: %s prints %q, want %q", step, q, got, want)
			}
		}
		got := stdout(t, func() error { return cmdDecompress([]string{set}) })
		if want := stdout(t, func() error { return cmdDecompress([]string{wholeRepo}) }); got != want {
			t.Errorf("%s: decompress prints %q, want %q", step, got, want)
		}
	}
	stdout(t, func() error { return cmdAppend(args) })
	set := strings.TrimSuffix(repo, ".xqc") + ".xqcg"
	check("append", set)
	stdout(t, func() error { return cmdAppend([]string{"-compact", set}) })
	check("compact", set)
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
