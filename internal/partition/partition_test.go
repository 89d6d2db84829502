package partition

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
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

// storeXML evaluates the query on one store with a plain engine.
func storeXML(t *testing.T, st *storage.Store, query string) string {
	t.Helper()
	expr, err := xquery.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := engine.New(st).EvalStream(expr)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	defer res.Close()
	var sb strings.Builder
	if _, err := res.WriteXML(&sb); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return sb.String()
}

// unshardedXML evaluates the query on a single whole-corpus store.
func unshardedXML(t *testing.T, src []byte, query string) string {
	t.Helper()
	return storeXML(t, mustLoad(t, string(src), nil), query)
}

// evalXML runs a scatter-approved query through Set.Eval — the fan-out
// for a shard set, the inline pull for a segment set.
func evalXML(t *testing.T, set *Set, query string) string {
	t.Helper()
	cur, err := set.Eval(context.Background(), Request{Query: query}, Options{})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	defer cur.Close()
	var sb strings.Builder
	if _, err := cur.WriteXML(&sb); err != nil {
		t.Fatalf("merge: %v", err)
	}
	return sb.String()
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
	if set, err = set.Append(more, storage.LoadOptions{}); err != nil {
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
	want, err := mustLoad(t, string(src), nil).Serialize(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		set, err := Build(src, shards, storage.LoadOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		fusedXML, err := set.FuseXML()
		if err != nil {
			t.Fatalf("shards=%d fuse: %v", shards, err)
		}
		// The fused XML must re-ingest into a store equivalent to the
		// original: compare canonical serializations.
		got, err := mustLoad(t, string(fusedXML), nil).Serialize(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("shards=%d: fused corpus differs from original (%d vs %d bytes)", shards, len(got), len(want))
		}
	}
}

func TestScatterMatchesUnsharded(t *testing.T) {
	src := xmarkDoc(t)
	queries := append(xmarkq.Queries(), xmarkq.ExtendedQueries()...)
	want := map[string]string{}
	for _, q := range queries {
		want[q.ID] = unshardedXML(t, src, q.Text)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		set, err := Build(src, shards, storage.LoadOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, q := range queries {
			expr, err := xquery.Parse(q.Text)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			if dec := Analyze(expr, set); !dec.Scatter {
				t.Logf("shards=%d %s: fallback (%s)", shards, q.ID, dec.Reason)
				continue
			}
			if got := evalXML(t, set, q.Text); got != want[q.ID] {
				t.Errorf("shards=%d %s: scattered result differs from unsharded\n got: %.200q\nwant: %.200q",
					shards, q.ID, got, want[q.ID])
			}
		}
	}
}

// TestSinglePartEvaluatesDirectly pins the one-part short-circuit for
// both layouts: no query scatters, and the fallback store is the part
// itself rather than a re-ingested copy of the corpus.
func TestSinglePartEvaluatesDirectly(t *testing.T) {
	src := xmarkDoc(t)
	shard, err := Build(src, 1, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []*Set{shard, segmentSet(t, string(src))} {
		noun := set.Layout.Noun
		for _, q := range []string{xmarkq.Q2, xmarkq.Q8} {
			expr, err := xquery.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			if set.Decide(expr).Scatter {
				t.Fatalf("one-%s set scatters %.40q", noun, q)
			}
			st, err := set.Fallback()
			if err != nil {
				t.Fatal(err)
			}
			if st != set.Stores[0] {
				t.Fatalf("one-%s set: fallback store is not the part", noun)
			}
			if got, want := storeXML(t, st, q), unshardedXML(t, src, q); got != want {
				t.Fatalf("one-%s set answers %.40q differently", noun, q)
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
	if SniffManifest(data) != "segment" || SniffManifest([]byte(`{"format":"xqcs1"}`)) != "shard" ||
		SniffManifest([]byte(`{"format":"other"}`)) != "" || SniffManifest([]byte("XQCR")) != "" {
		t.Fatal("SniffManifest misclassifies")
	}

	bad := []struct {
		name, json, want string
		m                manifest
	}{
		{"not json", `{`, "not valid JSON", &SegmentManifest{}},
		{"wrong format", `{"format":"xqcs1","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "manifest format", &SegmentManifest{}},
		{"no segments", `{"format":"xqcg1","root_tag":"r","segments":[],"dict_hashes":[],"original_sizes":[]}`, "no segments", &SegmentManifest{}},
		{"no root", `{"format":"xqcg1","segments":["s"],"dict_hashes":["h"],"original_sizes":[1]}`, "no root tag", &SegmentManifest{}},
		{"hash mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":[],"original_sizes":[1]}`, "dictionary hashes", &SegmentManifest{}},
		{"size mismatch", `{"format":"xqcg1","root_tag":"r","segments":["s"],"dict_hashes":["h"],"original_sizes":[]}`, "original sizes", &SegmentManifest{}},
		{"shard wrong format", `{"format":"xqcg1","shards":["s"],"routing":"roundrobin","subtree_counts":[1],"partition_level":2}`, "manifest format", &ShardManifest{}},
		{"no shards", `{"format":"xqcs1","shards":[],"routing":"roundrobin","subtree_counts":[],"partition_level":2}`, "no shards", &ShardManifest{}},
		{"routing", `{"format":"xqcs1","shards":["s"],"routing":"hash","subtree_counts":[1],"partition_level":2}`, "routing policy", &ShardManifest{}},
		{"count mismatch", `{"format":"xqcs1","shards":["s"],"routing":"roundrobin","subtree_counts":[],"partition_level":2}`, "subtree counts", &ShardManifest{}},
		{"root level", `{"format":"xqcs1","shards":["s"],"routing":"roundrobin","subtree_counts":[1],"partition_level":1}`, "partition level", &ShardManifest{}},
	}
	for _, tc := range bad {
		if err := parseManifest([]byte(tc.json), tc.m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSetAppendSharesDictionaryChain(t *testing.T) {
	set := testSet(t)
	if len(set.Stores) != 3 {
		t.Fatalf("segments = %d", len(set.Stores))
	}
	if set.Segments.Generation != 2 || set.Segments.Sequence != 3 {
		t.Fatalf("manifest = %+v", set.Segments)
	}
	for i := 1; i < len(set.Stores); i++ {
		prev, cur := set.Stores[i-1].Names, set.Stores[i].Names
		if len(cur) < len(prev) {
			t.Fatalf("segment %d dictionary shrinks", i)
		}
		for j := range prev {
			if cur[j] != prev[j] {
				t.Fatalf("segment %d name %d = %q, want %q", i, j, cur[j], prev[j])
			}
		}
	}
	if err := set.validateSegments(); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Append validation failures leave no trace.
	if _, err := set.Append([][]byte{[]byte(`<other/>`)}, storage.LoadOptions{}); err == nil {
		t.Fatal("root mismatch should fail")
	}
	if _, err := set.Append(nil, storage.LoadOptions{}); err == nil {
		t.Fatal("empty append should fail")
	}
	if len(set.Stores) != 3 {
		t.Fatalf("receiver mutated: %d segments", len(set.Stores))
	}
}

func TestSetFuseAndCompact(t *testing.T) {
	set := testSet(t)
	xml, err := set.FuseXML()
	if err != nil {
		t.Fatal(err)
	}
	want := `<site><a><n>1</n></a><a><n>2</n></a><b><n>3</n></b></site>`
	if string(xml) != want {
		t.Fatalf("FuseXML = %s, want %s", xml, want)
	}
	compacted, err := set.Compact(nil, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted.Stores) != 1 || compacted.Segments.Generation != set.Segments.Generation+1 {
		t.Fatalf("compacted = %+v", compacted.Segments)
	}
	if compacted.TopologyKey() == set.TopologyKey() {
		t.Fatal("compaction must roll the topology key")
	}
	cxml, err := compacted.FuseXML()
	if err != nil {
		t.Fatal(err)
	}
	if string(cxml) != want {
		t.Fatalf("compacted corpus = %s, want %s", cxml, want)
	}
	// The old set is untouched.
	if len(set.Stores) != 3 {
		t.Fatalf("receiver mutated: %d segments", len(set.Stores))
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
	if len(opened.Stores) != 3 || opened.TopologyKey() != set.TopologyKey() {
		t.Fatalf("opened = %d segments, key %s vs %s", len(opened.Stores), opened.TopologyKey(), set.TopologyKey())
	}

	// Compaction + save drops the superseded segment files.
	compacted, err := set.Compact(nil, storage.LoadOptions{})
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

// TestShardSaveOpen round-trips a shard set through its manifest and
// rejects a shard swapped in from another build.
func TestShardSaveOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus"+ShardManifestExt)
	set, err := Build(xmarkDoc(t), 2, storage.LoadOptions{})
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
	if !opened.Layout.Interleaved || opened.Layout != set.Layout || opened.TopologyKey() != set.TopologyKey() {
		t.Fatalf("opened layout %+v key %s, want %+v key %s", opened.Layout, opened.TopologyKey(), set.Layout, set.TopologyKey())
	}
	foreign := mustLoad(t, `<site><z/></site>`, nil)
	if err := foreign.SaveFile(filepath.Join(dir, opened.Shards.Shards[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "dictionary hash") {
		t.Fatalf("mixed build err = %v", err)
	}
}

// TestAnalyze runs one query list under both layouts. Two corpora: a
// flat one that both layouts split at level 2 (the same logical
// document, sharded round-robin and appended segment by segment), and
// XMark, which shards split at level 3 and segments at level 2. The
// verdicts agree everywhere except the two deliberate asymmetries:
// level-depth attributes (repeated on a replicated spine, owned by the
// base segment alone), and the split level itself.
func TestAnalyze(t *testing.T) {
	flatShards, err := Build([]byte(`<site lang="en"><a id="1">1</a><a id="2">2</a><b id="3">3</b></site>`), 2, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if flatShards.Layout.Level != 2 {
		t.Fatalf("flat corpus shards at level %d, want 2", flatShards.Layout.Level)
	}
	flatSegments := segmentSet(t,
		`<site lang="en"><a id="1">1</a></site>`, `<site><a id="2">2</a></site>`, `<site><b id="3">3</b></site>`)
	doc := xmarkDoc(t)
	xmarkShards, err := Build(doc, 2, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if xmarkShards.Layout.Level != 3 {
		t.Fatalf("XMark shards at level %d, want 3", xmarkShards.Layout.Level)
	}
	xmarkSegments := segmentSet(t, string(doc), string(datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 42})))

	const both, neither = "", "-"
	cases := []struct {
		xmark bool
		q     string
		// scatter names who scatters: both, neither, or one layout's noun.
		scatter string
		reason  string // substring of every declining layout's reason
	}{
		{q: `/site/a`},
		{q: `//a`},
		{q: `/site/a/text()`},
		{q: `/site/a/@id`},
		{q: `FOR $x IN /site/a RETURN $x/text()`},
		{q: `FOR $x IN /site/a WHERE $x/@id > 1 RETURN $x`},
		{q: `/site`, scatter: neither, reason: "above the split level"},
		{q: `/site[a]`, scatter: neither, reason: "above the split level"},
		{q: `/site/a[2]`, scatter: neither, reason: "positional"},
		{q: `/site/a[position() = last()]`, scatter: neither, reason: "positional"},
		{q: `FOR $x IN /site/a ORDER BY $x RETURN $x`, scatter: neither, reason: "ORDER BY"},
		{q: `LET $y := /site/b FOR $x IN /site/a RETURN $x`, scatter: neither, reason: "FOR"},
		{q: `FOR $x IN /site/a RETURN /site/b`, scatter: neither, reason: "more than one root path"},
		// Asymmetry 1: attributes at the split level.
		{q: `/site/@lang`, scatter: "segment", reason: "split-level attributes"},
		// Positional predicates strictly below the split level count
		// within one subtree and scatter under both layouts.
		{xmark: true, q: `/site/people/person/name[1]`},
		{xmark: true, q: `/site/people/person[1]`, scatter: "segment", reason: "positional"},
		// Asymmetry 2: depth-2 nodes are spine for level-3 shards,
		// private content for segments.
		{xmark: true, q: `/site/regions`, scatter: "segment", reason: "above the split level"},
		{xmark: true, q: `/site/people[person]/person`, scatter: "segment", reason: "above the split level"},
	}
	for _, tc := range cases {
		sets := []*Set{flatShards, flatSegments}
		if tc.xmark {
			sets = []*Set{xmarkShards, xmarkSegments}
		}
		expr, err := xquery.Parse(tc.q)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		for _, set := range sets {
			noun := set.Layout.Noun
			want := tc.scatter == both || tc.scatter == noun
			d := Analyze(expr, set)
			switch {
			case d.Scatter != want:
				t.Errorf("%s %q: scatter = %v (%s), want %v", noun, tc.q, d.Scatter, d.Reason, want)
			case !want && !strings.Contains(d.Reason, tc.reason):
				t.Errorf("%s %q: reason = %q, want mention of %q", noun, tc.q, d.Reason, tc.reason)
			case want && evalXML(t, set, tc.q) != storeXML(t, mustFused(t, set), tc.q):
				t.Errorf("%s %q: scattered result differs from the fused corpus", noun, tc.q)
			}
		}
	}
}

func mustFused(t *testing.T, set *Set) *storage.Store {
	t.Helper()
	st, err := set.Fused()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// scriptStream yields items of one constant rank — the segment layout's
// rank shape — and fails with an injected error once `failAt` items
// have been delivered (failAt < 0: never).
type scriptStream struct {
	rank   uint64
	items  []string
	failAt int
	pos    int
	closed int
}

func (s *scriptStream) Next() (Item, bool, error) {
	if s.pos == s.failAt {
		return Item{}, false, errors.New("injected: mid-stream failure")
	}
	if s.pos == len(s.items) {
		return Item{}, false, nil
	}
	s.pos++
	return Item{Rank: s.rank, XML: []byte(s.items[s.pos-1])}, true, nil
}

func (s *scriptStream) Close() error { s.closed++; return nil }

type scriptWorker struct{ st *scriptStream }

func (w scriptWorker) Query(context.Context, Request) (Stream, error) { return w.st, nil }

// TestCursorStickyErrorBothSources drives the shared merge with
// constant-per-stream ranks through both item sources — streams pulled
// inline, and the same streams behind the fan-out's queues — and pins
// the cursor contract around a mid-stream failure: the delivered items
// are a prefix of the rank-ordered concatenation, the injected error is
// sticky, and Close is idempotent and reaches every stream.
func TestCursorStickyErrorBothSources(t *testing.T) {
	script := func(failAt int) []*scriptStream {
		return []*scriptStream{
			{rank: 0, items: []string{"a0", "a1", "a2"}, failAt: -1},
			{rank: 1, items: []string{"b0", "b1"}, failAt: failAt},
			{rank: 2, items: []string{"c0"}, failAt: -1},
		}
	}
	open := map[string]func([]*scriptStream) *Cursor{
		"inline": func(ss []*scriptStream) *Cursor {
			streams := make([]Stream, len(ss))
			for i, s := range ss {
				streams[i] = s
			}
			return &Cursor{streams: streams}
		},
		"fanout": func(ss []*scriptStream) *Cursor {
			workers := make([]Worker, len(ss))
			for i, s := range ss {
				workers[i] = scriptWorker{s}
			}
			return FanOut(context.Background(), workers, Request{}, Options{})
		},
	}
	const whole = "a0 a1 a2 b0 b1 c0"
	for name, mk := range open {
		// Healthy streams merge to the concatenation in rank order.
		ss := script(-1)
		cur := mk(ss)
		var sb strings.Builder
		if _, err := cur.WriteXML(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := strings.ReplaceAll(sb.String(), "\n", " "); got != whole {
			t.Fatalf("%s: merged %q, want %q", name, got, whole)
		}

		ss = script(1)
		cur = mk(ss)
		var got []string
		var failure error
		for failure == nil {
			x, ok, err := cur.Next()
			if err != nil {
				failure = err
			} else if !ok {
				t.Fatalf("%s: stream ended cleanly after %v, want the injected failure", name, got)
			} else {
				got = append(got, string(x))
			}
		}
		if !strings.Contains(failure.Error(), "injected") {
			t.Fatalf("%s: err = %v, want the injected failure", name, failure)
		}
		if delivered := strings.Join(got, " "); !strings.HasPrefix(whole, delivered) {
			t.Fatalf("%s: delivered %q is not a prefix of %q", name, delivered, whole)
		}
		if name == "inline" && len(got) != 3 {
			// Inline pulls are lazy: everything before the failing item's
			// turn in the merge is delivered (b0 was primed, b1 never is).
			t.Fatalf("inline: delivered %v before the failure, want a0 a1 a2", got)
		}
		for i := 0; i < 2; i++ {
			if _, ok, err := cur.Next(); ok || err != failure {
				t.Fatalf("%s: Next after failure = ok %v err %v, want the same error", name, ok, err)
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("%s: Close #%d: %v", name, i+1, err)
			}
		}
		if cur.Len() != len(got) {
			t.Fatalf("%s: Len after failure = %d, want %d", name, cur.Len(), len(got))
		}
		if name == "inline" { // the fan-out's pullers close theirs, on their own goroutines
			for i, s := range ss {
				if s.closed == 0 {
					t.Fatalf("inline: stream %d never closed", i)
				}
			}
		}
	}
}
