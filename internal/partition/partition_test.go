package partition

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xmlparser"
)

func xmarkDoc(t *testing.T) []byte {
	t.Helper()
	return datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 41})
}

func mustLoad(t *testing.T, doc string, dict []string) *storage.Store {
	t.Helper()
	st, err := storage.Load([]byte(doc), storage.LoadOptions{Dictionary: dict})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeXML evaluates the query on the document one store holds with the
// DOM reference evaluator, which shares no per-part or merge code — and
// no engine code — with a set.
func storeXML(t *testing.T, st *storage.Store, query string) string {
	t.Helper()
	doc, err := st.Serialize(nil, nil, 1)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return corpusXML(t, doc, query)
}

// corpusXML evaluates the query on the whole corpus.
func corpusXML(t *testing.T, src []byte, query string) string {
	t.Helper()
	res, err := galaxlike.New(src).Query(query)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	out, err := res.SerializeXML()
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return out
}

// segmentSet builds a segment set with one segment per document.
func segmentSet(t *testing.T, docs ...string) *Set {
	t.Helper()
	set, err := NewBase(mustLoad(t, docs[0], nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 1 {
		return set
	}
	more := make([][]byte, len(docs)-1)
	for i, d := range docs[1:] {
		more[i] = []byte(d)
	}
	if set, _, err = set.Append(more, nil); err != nil {
		t.Fatal(err)
	}
	return set
}

func testSet(t *testing.T) *Set {
	t.Helper()
	return segmentSet(t,
		`<site><a><n>1</n></a></site>`,
		`<site><a><n>2</n></a></site>`,
		`<site><b><n>3</n></b></site>`)
}

func TestSplitRoundTrip(t *testing.T) {
	src := xmarkDoc(t)
	want, err := mustLoad(t, string(src), nil).Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		set, err := Build(src, n, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if set.OriginalSize() != len(src) {
			t.Fatalf("n=%d: original size %d, the document has %d bytes", n, set.OriginalSize(), len(src))
		}
		fusedXML, err := set.Store().Serialize(nil, nil, 1)
		if err != nil {
			t.Fatalf("n=%d fuse: %v", n, err)
		}
		// The fused XML must re-ingest into a store equivalent to the
		// original: compare canonical serializations.
		got, err := mustLoad(t, string(fusedXML), nil).Serialize(nil, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("n=%d: fused corpus differs from original (%d vs %d bytes)", n, len(got), len(want))
		}
	}
}

// TestSinglePartEvaluatesDirectly pins the one-part short-circuit, for a
// set cut into one part and for a base with nothing appended: the set's
// store is the part itself rather than a copy of the corpus, and no
// fusion is counted.
func TestSinglePartEvaluatesDirectly(t *testing.T) {
	src := xmarkDoc(t)
	fusions := Snapshot().Fusions
	one, err := Build(src, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	part := mustLoad(t, string(src), nil)
	base, err := NewBase(part)
	if err != nil {
		t.Fatal(err)
	}
	if n := Snapshot().Fusions - fusions; n != 0 {
		t.Fatalf("counted %d fusions", n)
	}
	if base.Store() != part {
		t.Fatal("base: the set's store is not the part")
	}
	for noun, set := range map[string]*Set{"cut": one, "base": base} {
		for _, q := range []string{xmarkq.Q2, xmarkq.Q8} {
			if got, want := storeXML(t, set.Store(), q), corpusXML(t, src, q); got != want {
				t.Fatalf("%s: answers %.40q differently", noun, q)
			}
		}
	}
}

func TestSplitDoc(t *testing.T) {
	cases := []struct {
		name, doc           string
		root, open, inner   string
		hasAttrs, selfClose bool
		wantErr             string
	}{
		{name: "plain", doc: `<site><a/></site>`,
			root: "site", open: "<site>", inner: "<a/>"},
		{name: "prolog", doc: "<?xml version=\"1.0\"?>\n<!-- c -->\n<site>x</site>\n",
			root: "site", open: "<site>", inner: "x"},
		{name: "doctype with subset", doc: `<!DOCTYPE site [<!ENTITY e "v">]><site>y</site>`,
			root: "site", open: "<site>", inner: "y"},
		{name: "attributed root", doc: `<site id="1" k='a>b'><c/></site>`,
			root: "site", open: `<site id="1" k='a>b'>`, inner: "<c/>", hasAttrs: true},
		{name: "self-closing", doc: `<site/>`,
			root: "site", open: "<site>", inner: "", selfClose: true},
		{name: "self-closing with attrs", doc: `<site id="1"/>`,
			root: "site", open: `<site id="1">`, inner: "", hasAttrs: true, selfClose: true},
		{name: "nested same tag", doc: `<site>a<site>b</site>c</site>`,
			root: "site", open: "<site>", inner: "a<site>b</site>c"},
		{name: "empty", doc: ``, wantErr: "no root element"},
		{name: "unclosed", doc: `<site><a/>`, wantErr: "never closed"},
		{name: "trailing content", doc: `<site/><extra/>`, wantErr: "trailing content"},
		{name: "unterminated tag", doc: `<site`, wantErr: "unterminated root start tag"},
	}
	for _, tc := range cases {
		p, err := splitDoc([]byte(tc.doc))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if p.root != tc.root || string(p.open) != tc.open || string(p.inner) != tc.inner ||
			p.hasAttrs != tc.hasAttrs || p.selfClose != tc.selfClose {
			t.Errorf("%s: got root=%q open=%q inner=%q attrs=%v self=%v",
				tc.name, p.root, p.open, p.inner, p.hasAttrs, p.selfClose)
		}
	}
}

func TestConcat(t *testing.T) {
	out, err := Concat(
		[]byte(`<site lang="en"><a>1</a></site>`),
		[]byte(`<?xml version="1.0"?><site><b>2</b></site>`),
		[]byte(`<site/>`),
		[]byte(`<site><c>3</c></site>`),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := `<site lang="en"><a>1</a><b>2</b><c>3</c></site>`
	if string(out) != want {
		t.Fatalf("Concat = %s, want %s", out, want)
	}

	if _, err := Concat([]byte(`<site/>`), []byte(`<other/>`)); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("root mismatch err = %v", err)
	}
	if _, err := Concat([]byte(`<site/>`), []byte(`<site id="2"/>`)); err == nil || !strings.Contains(err.Error(), "attributes") {
		t.Fatalf("attributed append err = %v", err)
	}
	if _, err := Concat(); err == nil {
		t.Fatal("empty Concat should error")
	}
}

// TestCut: for every document and n, the parts concatenate to a corpus
// that ingests to the document's store; there are min(n, root children)
// of them, each with a child, cut at the same bytes every time, and the
// bytes they cover sum to the document's.
func TestCut(t *testing.T) {
	docs := map[string][]byte{
		"xmark":               xmarkDoc(t),
		"attributed root":     []byte(`<?xml version="1.0"?><site k="v" j='a>b'><a x="1">1</a><b/><a>2</a><c><a>3</a></c></site>`),
		"root-level text":     []byte(`<site>lead<a>1</a>mid<b>2</b><!-- c -->between<a>3</a>tail</site>` + "\n"),
		"one child":           []byte(`<site><people><person>p</person><person>q</person></people></site>`),
		"no children":         []byte(`<site>just text</site>`),
		"self-closing root":   []byte(`<site k="1"/>`),
		"children of one tag": []byte(`<r><n/><n/><n/><n/><n/><n/><n/><n/><n/></r>`),
	}
	for _, ds := range datagen.RealLifeCorpus(3, 0.01) {
		docs[ds.Name] = ds.Data
	}
	for name, doc := range docs {
		want, err := mustLoad(t, string(doc), nil).Serialize(nil, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		children := rootChildren(mustLoad(t, string(doc), nil))
		for _, n := range []int{1, 2, 3, 4, 8, 1000} {
			parts, sizes, err := cut(doc, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if wantParts := max(1, min(n, children)); len(parts) != wantParts {
				t.Fatalf("%s n=%d: %d parts, want %d", name, n, len(parts), wantParts)
			}
			total := 0
			for i, part := range parts {
				total += sizes[i]
				if children > 0 && rootChildren(mustLoad(t, string(part), nil)) == 0 {
					t.Fatalf("%s n=%d: part %d has no child: %s", name, n, i, part)
				}
			}
			if total != len(doc) {
				t.Fatalf("%s n=%d: parts cover %d bytes of %d", name, n, total, len(doc))
			}
			again, err := Cut(doc, n)
			if err != nil || !slices.EqualFunc(again, parts, bytes.Equal) {
				t.Fatalf("%s n=%d: a second cut differs (%v)", name, n, err)
			}
			corpus, err := Concat(parts...)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if got, err := mustLoad(t, string(corpus), nil).Serialize(nil, nil, 1); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: the parts concatenate to\n%.300s\nwant\n%.300s", name, n, got, want)
			}
		}
	}

	var se *xmlparser.SyntaxError
	for _, bad := range []string{``, `<site><a></site>`, `<site><a/>`, strings.Repeat("<a>", 70_000)} {
		if _, err := Cut([]byte(bad), 2); !errors.As(err, &se) {
			t.Errorf("Cut(%.20q): %v, want a syntax error", bad, err)
		}
	}
}

// rootChildren counts the element children of st's root.
func rootChildren(st *storage.Store) int {
	n := 0
	st.ScanNodes(func(id storage.NodeID, level uint16) {
		if level == 2 && !st.IsAttr(id) {
			n++
		}
	})
	return n
}

func TestManifestRoundTripAndValidation(t *testing.T) {
	m := &SegmentManifest{
		Format:        SegmentManifestFormat,
		RootTag:       "site",
		Segments:      []string{"a.seg-000000.xqc", "a.seg-000001.xqc"},
		DictHashes:    []string{DictionaryHash([]string{"site"}), DictionaryHash([]string{"site", "a"})},
		OriginalSizes: []int{10, 20},
		Generation:    2,
		Sequence:      2,
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got := &SegmentManifest{}
	if err := parseManifest(data, got); err != nil {
		t.Fatal(err)
	}
	if got.RootTag != m.RootTag || got.Generation != 2 || len(got.Segments) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if !IsManifest(data) || IsManifest([]byte(`{"format":"xqcs1"}`)) ||
		IsManifest([]byte(`{"format":"other"}`)) || IsManifest([]byte("XQCR")) {
		t.Fatal("IsManifest misclassifies")
	}

	bad := []struct{ name, json, want string }{
		{"not json", `{`, "not valid JSON"},
		{"wrong format", `{"format":"other","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "manifest format"},
		{"retired shard set", `{"format":"xqcs1","shards":["s"],"routing":"roundrobin","subtree_counts":[1],"partition_level":2}`, "retired round-robin shard set"},
		{"no segments", `{"format":"xqcg1","root_tag":"r","segments":[],"dict_hashes":[],"original_sizes":[]}`, "no segments"},
		{"no root", `{"format":"xqcg1","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "no root tag"},
		{"hash mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":[],"original_sizes":[1]}`, "dictionary hashes"},
		{"size mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[]}`, "original sizes"},
	}
	for _, tc := range bad {
		if err := parseManifest([]byte(tc.json), &SegmentManifest{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSetAppendSharesDictionaryChain(t *testing.T) {
	set := testSet(t)
	if len(set.segs) != 3 {
		t.Fatalf("segments = %d", len(set.segs))
	}
	if set.Segments.Generation != 2 || set.Segments.Sequence != 3 {
		t.Fatalf("manifest = %+v", set.Segments)
	}
	parts := make([]*storage.Store, len(set.segs))
	for i, g := range set.segs {
		st, err := storage.LoadBinary(g.data)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = st
	}
	for i := 1; i < len(parts); i++ {
		prev, cur := parts[i-1].Names, parts[i].Names
		if len(cur) < len(prev) {
			t.Fatalf("segment %d dictionary shrinks", i)
		}
		for j := range prev {
			if cur[j] != prev[j] {
				t.Fatalf("segment %d name %d = %q, want %q", i, j, cur[j], prev[j])
			}
		}
	}
	if err := validateSegments(set.Segments, parts); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Append validation failures leave no trace.
	if _, failed, err := set.Append([][]byte{[]byte(`<other/>`)}, nil); err == nil || failed != 0 {
		t.Fatalf("root mismatch: failed %d, %v", failed, err)
	}
	if _, _, err := set.Append(nil, nil); err == nil {
		t.Fatal("empty append should fail")
	}
	if len(set.segs) != 3 {
		t.Fatalf("receiver mutated: %d segments", len(set.segs))
	}
}

func TestSetFuseAndCompact(t *testing.T) {
	set := testSet(t)
	xml, err := set.Store().Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := `<site><a><n>1</n></a><a><n>2</n></a><b><n>3</n></b></site>`
	if string(xml) != want {
		t.Fatalf("fused corpus = %s, want %s", xml, want)
	}
	compacted, err := set.Compact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted.segs) != 1 || compacted.Segments.Generation != set.Segments.Generation+1 {
		t.Fatalf("compacted = %+v", compacted.Segments)
	}
	if compacted.TopologyKey() == set.TopologyKey() {
		t.Fatal("compaction must roll the topology key")
	}
	cxml, err := compacted.Store().Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(cxml) != want {
		t.Fatalf("compacted corpus = %s, want %s", cxml, want)
	}
	// The old set is untouched.
	if len(set.segs) != 3 {
		t.Fatalf("receiver mutated: %d segments", len(set.segs))
	}
}

func TestSetSaveOpenValidateGC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus"+SegmentManifestExt)
	set := testSet(t)
	if err := set.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(opened.segs) != 3 || opened.TopologyKey() != set.TopologyKey() {
		t.Fatalf("opened = %d segments, key %s vs %s", len(opened.segs), opened.TopologyKey(), set.TopologyKey())
	}

	// Compaction + save drops the superseded segment files.
	compacted, err := set.Compact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := compacted.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".seg-") {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("stale segment files survived GC: %d", segFiles)
	}

	// A segment from a different lineage is rejected at open.
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	foreign := mustLoad(t, `<site><z/></site>`, nil)
	if err := foreign.SaveFile(filepath.Join(dir, reopened.Segments.Segments[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "dictionary hash") {
		t.Fatalf("lineage mismatch err = %v", err)
	}
}

// TestShardSaveOpen round-trips a set cut from one document through a
// manifest named the way Options.Shards databases are saved (".xqcs"):
// the segment files take the manifest's base name, the sizes and the
// topology survive, and a segment swapped in from another build is
// rejected.
func TestShardSaveOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.xqcs")
	src := xmarkDoc(t)
	set, err := Build(src, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(opened.segs) != 2 || opened.TopologyKey() != set.TopologyKey() || opened.OriginalSize() != len(src) {
		t.Fatalf("opened %d segments of %d bytes, key %s; want 2 of %d, key %s",
			len(opened.segs), opened.OriginalSize(), opened.TopologyKey(), len(src), set.TopologyKey())
	}
	if name := opened.Segments.Segments[1]; name != "corpus.seg-000001.xqc" {
		t.Fatalf("segment file %q", name)
	}
	foreign := mustLoad(t, `<site><z/></site>`, nil)
	if err := foreign.SaveFile(filepath.Join(dir, opened.Segments.Segments[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "dictionary hash") {
		t.Fatalf("mixed build err = %v", err)
	}
}

// TestManifestNeverTorn: a reader opening the manifest while a writer
// rewrites it — a serving pool's miss during an append — sees the old
// manifest or the new one, never a truncated or half-written file.
func TestManifestNeverTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus"+SegmentManifestExt)
	man := &SegmentManifest{Format: SegmentManifestFormat, RootTag: "site"}
	grow := func(gen int) {
		man.Segments = append(man.Segments, fmt.Sprintf("corpus.seg-%06d.xqc", gen))
		man.DictHashes = append(man.DictHashes, DictionaryHash([]string{"site", fmt.Sprint(gen)}))
		man.OriginalSizes = append(man.OriginalSizes, gen)
		man.Generation, man.Sequence = gen, gen+1
	}
	grow(0)
	if err := writeManifest(path, man); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var reads, torn int
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err == nil {
				err = parseManifest(data, &SegmentManifest{})
			}
			reads++
			if err != nil {
				if torn++; firstErr == nil {
					firstErr = err
				}
			}
		}
	}()
	for gen := 1; gen <= 1000; gen++ {
		if gen%50 == 0 {
			man.Segments, man.DictHashes, man.OriginalSizes = man.Segments[:1], man.DictHashes[:1], man.OriginalSizes[:1]
		}
		grow(gen)
		if err := writeManifest(path, man); err != nil {
			close(done)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of %d concurrent reads saw an invalid manifest; the first: %v", torn, reads, firstErr)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("the rewrites left %d files behind, want the manifest alone", len(entries))
	}
}
