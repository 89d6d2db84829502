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

// TestAppendTwiceThroughXqc: a repository appended to twice through its
// .xqc path keeps every document, and a query, stats or decompress
// through that path reads the appended set, not the .xqc file as it was
// compressed.
func TestAppendTwiceThroughXqc(t *testing.T) {
	doc, repo := setup(t)
	dir := filepath.Dir(doc)
	for i, name := range []string{"Carol", "Dave"} {
		frag := filepath.Join(dir, fmt.Sprintf("frag%d.xml", i))
		if err := os.WriteFile(frag, []byte(`<site><people><person><name>`+name+`</name></person></people></site>`), 0o644); err != nil {
			t.Fatal(err)
		}
		if out := stdout(t, func() error { return cmdAppend([]string{repo, frag}) }); !strings.Contains(out, fmt.Sprintf("%d segments", i+2)) {
			t.Fatalf("append %s: %q, want %d segments", name, out, i+2)
		}
	}
	if got, want := stdout(t, func() error { return cmdQuery([]string{"-q", `/site/people/person/name/text()`, repo}) }), "Alice\nBob\nCarol\nDave\n"; got != want {
		t.Errorf("query through %s prints %q, want %q", repo, got, want)
	}
	set := strings.TrimSuffix(repo, ".xqc") + ".xqcg"
	if got, want := stdout(t, func() error { return cmdDecompress([]string{repo}) }), stdout(t, func() error { return cmdDecompress([]string{set}) }); got != want {
		t.Errorf("decompress through %s prints %q, want the set's %q", repo, got, want)
	}
	if got := stdout(t, func() error { return cmdStats([]string{repo}) }); !strings.Contains(got, "segments: 3") {
		t.Errorf("stats through %s lacks \"segments: 3\":\n%s", repo, got)
	}
}

// TestRecompressReplacesAppendedSet: compressing a document to a .xqc
// path that was appended to replaces the whole repository there — the
// set's manifest and segment files go — so queries through that path
// read the new document, and a later append grows the new repository.
func TestRecompressReplacesAppendedSet(t *testing.T) {
	doc, repo := setup(t)
	dir := filepath.Dir(doc)
	write := func(name, xml string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(xml), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	people := func(names ...string) string {
		return `<site><people><person><name>` + strings.Join(names, `</name></person><person><name>`) + `</name></person></people></site>`
	}
	query := func() string {
		return stdout(t, func() error { return cmdQuery([]string{"-q", `/site/people/person/name/text()`, repo}) })
	}
	stdout(t, func() error { return cmdAppend([]string{repo, write("carol.xml", people("Carol"))}) })
	if got, want := query(), "Alice\nBob\nCarol\n"; got != want {
		t.Fatalf("after the append: %q, want %q", got, want)
	}
	set := strings.TrimSuffix(repo, ".xqc") + ".xqcg"
	out := stdout(t, func() error { return cmdCompress([]string{"-o", repo, write("doc.xml", people("Eve"))}) })
	if !strings.Contains(out, "removed "+set) {
		t.Errorf("recompress does not report removing %s:\n%s", set, out)
	}
	if got, want := query(), "Eve\n"; got != want {
		t.Errorf("after recompressing: %q, want %q", got, want)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "doc.xqcg*")); len(left) > 0 {
		t.Errorf("the appended set is left: %v", left)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "doc.seg-*")); len(left) > 0 {
		t.Errorf("the appended set's segments are left: %v", left)
	}
	if out := stdout(t, func() error { return cmdAppend([]string{repo, write("frank.xml", people("Frank"))}) }); !strings.Contains(out, "2 segments") {
		t.Errorf("append after recompressing: %q, want 2 segments", out)
	}
	if got, want := query(), "Eve\nFrank\n"; got != want {
		t.Errorf("after appending to the new repository: %q, want %q", got, want)
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
