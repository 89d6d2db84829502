package engine_test

// The differential suite of the fused fallback store (partition.Set.Fused,
// storage.Fusion). It lives here because it runs on this package's
// random documents and query battery, which only this package's tests
// can see. The oracle is a plain ingest of the corpus as text — the
// document a shard set was split from, the textual concatenation
// (partition.Concat) of the documents a segment set was fed — which is
// what Fused used to do with the text it reconstructed, and shares no
// step, and no mistake, with the splice.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/partition"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

// fusePlans are assigned per part, so that the parts of one set disagree
// in algorithm (order-preserving or not) and, always, in model.
var fusePlans = []*storage.CompressionPlan{
	nil,
	{DefaultAlgorithm: storage.AlgHuffman},
	{DefaultAlgorithm: storage.AlgHuTucker},
}

// segmentSet ingests docs[0] as the base and appends the others, part i
// under fusePlans[(shift+i)%3].
func segmentSet(t *testing.T, docs [][]byte, shift int) *partition.Set {
	t.Helper()
	base, err := storage.Load(docs[0], storage.LoadOptions{Plan: fusePlans[shift%3]})
	if err != nil {
		t.Fatal(err)
	}
	set, err := partition.NewBase(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs[1:] {
		if set, err = set.Append([][]byte{doc}, storage.LoadOptions{Plan: fusePlans[(shift+i+1)%3]}); err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
	}
	return set
}

// shardSet splits doc into n shards, shard i compressed under
// fusePlans[(shift+i)%3]: one build per plan, saved, and a set opened
// over shard files picked from the three (the split, and so the
// manifest and the dictionary, do not depend on the plan).
func shardSet(t *testing.T, doc []byte, n, shift int) *partition.Set {
	t.Helper()
	dir := t.TempDir()
	for p, plan := range fusePlans {
		set, err := partition.Build(doc, n, storage.LoadOptions{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, fmt.Sprint(p)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := set.Save(filepath.Join(dir, fmt.Sprint(p), "c.xqcs")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("c.shard-%03d.xqc", i)
		if p := (shift + i) % 3; p != 0 {
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprint(p), name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "0", name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	set, err := partition.Open(filepath.Join(dir, "0", "c.xqcs"))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// checkFused holds the spliced store of set — or, with reopen, that store
// reopened from its bytes — to an ingest of corpus: the same
// serialization, which is also FuseXML's, the same answer from every
// accessor of the structure, the same summary, the same containers
// record by record, and the same result for every query under both
// evaluators. The oracle is a Load product, so agreeing with it on every
// accessor is also passing storage's Validate.
func checkFused(t *testing.T, set *partition.Set, corpus []byte, queries []string, reopen bool) {
	t.Helper()
	fx, err := set.FuseXML()
	if err != nil {
		t.Fatal(err)
	}
	want, err := storage.Load(corpus, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xml, err := want.Serialize(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := set.Fused()
	if err != nil {
		t.Fatalf("Fused: %v\ncorpus: %s", err, xml)
	}
	if reopen {
		if got, err = storage.LoadBinary(got.AppendBinary(nil)); err != nil {
			t.Fatalf("reopening the fused store: %v", err)
		}
	}
	if out, err := got.Serialize(nil, 1); err != nil || !bytes.Equal(out, xml) || !bytes.Equal(fx, xml) {
		t.Fatalf("fused store serializes to\n%s (%v), FuseXML is\n%s, the corpus\n%s", out, err, fx, xml)
	}
	// What FuseXML writes is what compaction re-ingests: it must read
	// back as the same document, white space included.
	if re, err := storage.Load(fx, storage.LoadOptions{}); err != nil {
		t.Fatalf("Load(FuseXML): %v\n%s", err, fx)
	} else if out, err := re.Serialize(nil, 1); err != nil || !bytes.Equal(out, fx) {
		t.Fatalf("FuseXML\n%s\nre-ingested serializes to\n%s (%v)", fx, out, err)
	}

	contPath := func(s *storage.Store, i int32) string {
		if i < 0 {
			return ""
		}
		return s.Containers[i].Path
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%d nodes, want %d\ncorpus: %s", got.NumNodes(), want.NumNodes(), xml)
	}
	for id := storage.NodeID(1); int(id) <= want.NumNodes(); id++ {
		if got.Parent(id) != want.Parent(id) || got.SubtreeEnd(id) != want.SubtreeEnd(id) ||
			got.LevelOf(id) != want.LevelOf(id) || got.TagOf(id) != want.TagOf(id) || got.HasText(id) != want.HasText(id) {
			t.Fatalf("node %d: parent/end/level/tag/text %d %d %d %s %v, want %d %d %d %s %v\ncorpus: %s", id,
				got.Parent(id), got.SubtreeEnd(id), got.LevelOf(id), got.TagOf(id), got.HasText(id),
				want.Parent(id), want.SubtreeEnd(id), want.LevelOf(id), want.TagOf(id), want.HasText(id), xml)
		}
		var gk, wk []storage.Kid
		for k := range got.Kids(id) {
			gk = append(gk, k)
		}
		for k := range want.Kids(id) {
			wk = append(wk, k)
		}
		same := len(gk) == len(wk)
		for i := 0; same && i < len(gk); i++ {
			// Containers are compared by path: the fused store lists them
			// in the order the parts do. The record index is compared as
			// it is — equal values must lie in document order.
			same = gk[i].ID == wk[i].ID && gk[i].Val.Index == wk[i].Val.Index &&
				(gk[i].ID != 0 || contPath(got, gk[i].Val.Container) == contPath(want, wk[i].Val.Container))
		}
		if !same {
			t.Fatalf("node %d: kids %v, want %v\ncorpus: %s", id, gk, wk, xml)
		}
	}

	gs, ws := got.Sum.Nodes(), want.Sum.Nodes()
	if len(gs) != len(ws) {
		t.Fatalf("%d summary nodes, want %d", len(gs), len(ws))
	}
	for i, w := range ws {
		g := gs[i]
		if g.ID != w.ID || g.Path() != w.Path() || g.Count != w.Count || g.AvgFan != w.AvgFan || g.TextCount != w.TextCount ||
			!slices.Equal(g.Extent, w.Extent) || contPath(got, g.Container) != contPath(want, w.Container) {
			t.Fatalf("summary node %d: %s count %d fan %g text %d, want %s count %d fan %g text %d\ncorpus: %s",
				i, g.Path(), g.Count, g.AvgFan, g.TextCount, w.Path(), w.Count, w.AvgFan, w.TextCount, xml)
		}
	}

	if len(got.Containers) != len(want.Containers) {
		t.Fatalf("%d containers, want %d", len(got.Containers), len(want.Containers))
	}
	for _, w := range want.Containers {
		g, ok := got.ContainerByPath(w.Path)
		if !ok || g.Kind != w.Kind || g.Len() != w.Len() {
			t.Fatalf("container %s: %v, want kind %v and %d records\ncorpus: %s", w.Path, g, w.Kind, w.Len(), xml)
		}
		if _, ok := got.Models[g.Group]; !ok {
			t.Fatalf("container %s: group %q has no model", w.Path, g.Group)
		}
		for i := 0; i < w.Len(); i++ {
			gv, gerr := g.Decode(nil, i)
			wv, werr := w.Decode(nil, i)
			if gerr != nil || werr != nil || !bytes.Equal(gv, wv) || g.Record(i).Owner != w.Record(i).Owner {
				t.Fatalf("container %s record %d: %q of node %d (%v), want %q of node %d (%v)\ncorpus: %s",
					w.Path, i, gv, g.Record(i).Owner, gerr, wv, w.Record(i).Owner, werr, xml)
			}
		}
	}

	for _, q := range queries {
		for _, ev := range evaluators {
			gr, gerr := ev.run(got, q)
			wr, werr := ev.run(want, q)
			if (gerr == nil) != (werr == nil) || gr != wr {
				t.Fatalf("%s: %s\nfused:      %q (%v)\nre-ingested: %q (%v)\ncorpus: %s", ev.name, q, gr, gerr, wr, werr, xml)
			}
		}
	}

	// The fused store is what Database.Bytes persists for a set: it must
	// reopen, under the same proof, to the same corpus.
	reopened, err := storage.LoadBinary(got.AppendBinary(nil))
	if err != nil {
		t.Fatalf("reopening the fused store: %v", err)
	}
	if out, err := reopened.Serialize(nil, 1); err != nil || !bytes.Equal(out, xml) {
		t.Fatalf("reopened fused store serializes to\n%s (%v), want\n%s", out, err, xml)
	}
}

func xmarkTexts() []string {
	var out []string
	for _, q := range append(xmarkq.Queries(), xmarkq.ExtendedQueries()...) {
		out = append(out, q.Text)
	}
	return out
}

// TestFusedRandomDifferential: random documents — recursive, mixed
// content, attributes on three levels — as 2–5 segments and as 2–4
// shards, every part under its own plan.
func TestFusedRandomDifferential(t *testing.T) {
	queries := append(slices.Clone(engine.QueryBattery), xmarkTexts()...)
	trials := 25
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(20040316))
	for trial := 0; trial < trials; trial++ {
		docs := make([][]byte, 2+rng.Intn(4))
		for i := range docs {
			docs[i] = engine.RandomDoc(rng)
		}
		corpus, err := partition.Concat(docs...)
		if err != nil {
			t.Fatal(err)
		}
		checkFused(t, segmentSet(t, docs, trial), corpus, queries, false)
		if !bytes.Contains(corpus, []byte("<entry")) {
			continue // nothing below the groups to route
		}
		checkFused(t, shardSet(t, corpus, 2+rng.Intn(3), trial), corpus, queries, false)
	}
}

// TestFusedDirected: the shapes a random document does not reach, each
// fused store held to checkFused as spliced ("succinct") and as reopened
// from the bytes Database.Bytes writes for a set ("records"). The arms
// keep the names of the two structure backends they ran under until the
// record backend left the binary, so the subtest IDs stay stable.
func TestFusedDirected(t *testing.T) {
	for _, arm := range []string{"succinct", "records"} {
		t.Run(arm, func(t *testing.T) { fusedDirected(t, arm == "records") })
	}
}

func fusedDirected(t *testing.T, reopen bool) {
	queries := []string{
		`count(//*)`, `/site/*`, `/site/text()`, `//n/text()`, `sum(//n)`, `max(//n)`, `//p/text()`, `sum(//p)`,
		`//@k`, `count(//b/c)`, `FOR $x IN /site/* ORDER BY $x RETURN $x`, `FOR $x IN //n WHERE $x >= 3 RETURN $x/text()`,
		`FOR $x IN //p WHERE $x >= 1 RETURN $x/text()`, `FOR $a IN //n, $b IN //n WHERE $a = $b RETURN $a/text()`,
		`distinct-values(//a/text())`, `//person/name/text()`, `count(/site/people/person)`,
	}
	segments := map[string][]string{
		"integer in the base, text later":   {`<site><n>1</n><n>20</n><n>3</n></site>`, `<site><n>abc</n><n>3</n></site>`, `<site><n>7</n></site>`},
		"integer and float":                 {`<site><n>1</n><n>20</n></site>`, `<site><n>1.5</n><n>3</n></site>`},
		"two decimal scales across parts":   {`<site><p>1.25</p><p>0.50</p></site>`, `<site><p>1.250</p></site>`, `<site><p>7.75</p></site>`},
		"two decimal scales inside a part":  {`<site><p>1.25</p><q>1.250</q></site>`, `<site><q>2.25</q><p>3.125</p></site>`},
		"equal values in document order":    {`<site><a>x</a><a>y</a><a>x</a></site>`, `<site><a>x</a><a>x</a></site>`, `<site><a>y</a><a>x</a></site>`},
		"a path and a tag in the last part": {`<site><a>x</a></site>`, `<site><a>y</a></site>`, `<site><b k="1"><c>z</c></b><a k="2">w</a></site>`},
		"text under the appended root":      {`<site><a>x</a></site>`, `<site>hello<a>y</a>there<a>z</a></site>`, `<site><a>q</a>bye</site>`},
		"an empty appended root":            {`<site><a>x</a></site>`, `<site/>`, `<site><a>y</a></site>`, `<site></site>`},
		"an empty base":                     {`<site k="v"/>`, `<site><a>y</a></site>`},
		"attributes on the base root":       {`<site k="1" j="x"><a k="2">x</a></site>`, `<site><a k="3">y</a></site>`},
		"white space kept by references":    {"<site><a k=\"l1&#10;l2&#9;t&#13;c\">t&#13;x</a></site>", "<site><a k=\"&#9;\">&#13;&#10;</a>&#13;</site>"},
		"values of unseen bytes":            {`<site><a>aaaa</a><a>abab</a></site>`, "<site><a>\xc3\xbf\xc3\xbfzz</a><a>Q&amp;&lt;</a><a k=\"\">~</a></site>"},
	}
	for name, docs := range segments {
		for shift := range fusePlans {
			t.Run(fmt.Sprintf("%s/%d", name, shift), func(t *testing.T) {
				var in [][]byte
				for _, d := range docs {
					in = append(in, []byte(d))
				}
				corpus, err := partition.Concat(in...)
				if err != nil {
					t.Fatal(err)
				}
				checkFused(t, segmentSet(t, in, shift), corpus, queries, reopen)
			})
		}
	}

	shards := map[string]string{
		// <regions> has one subtree and <empty> none: most shards lack them.
		"a part that lacks a spine child": `<site v="1">lead<regions r="x"><item>1</item></regions><people><person><name>a</name></person>` +
			`<person><name>b</name></person><person><name>c</name></person><person><name>a</name></person></people><empty/>tail</site>`,
		"spine text and leaf spine elements": `<site><info>about</info><people><person k="1">p</person><person k="2">q</person>` +
			`<person k="3">p</person></people><note>n1</note><note>n2</note></site>`,
		"split at the root's children": `<site><a>1</a><a>2</a><b>x</b><a>3</a><b>y</b></site>`,
	}
	for name, doc := range shards {
		for n := 2; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				checkFused(t, shardSet(t, []byte(doc), n, n), []byte(doc), queries, reopen)
			})
		}
	}

	t.Run("xmark", func(t *testing.T) {
		docs := [][]byte{
			datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1}),
			datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 2}),
			datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 3}),
		}
		corpus, err := partition.Concat(docs...)
		if err != nil {
			t.Fatal(err)
		}
		checkFused(t, segmentSet(t, docs, 1), corpus, xmarkTexts(), reopen)
		checkFused(t, shardSet(t, docs[0], 3, 2), docs[0], xmarkTexts(), reopen)
	})
}

// TestFusedKeepsJunctionTextApart pins the one place the spliced store
// and a re-ingest differ by design: text that ends one segment's root
// content and text that begins the next's stay two values of the root —
// as they are for the per-segment evaluation of a scattered query, and as
// text on both sides of a comment is in a single store — where parsing
// the concatenated text would run them together into one. The corpus
// text, and the root's text(), are the same.
func TestFusedKeepsJunctionTextApart(t *testing.T) {
	set := segmentSet(t, [][]byte{[]byte(`<site><a>x</a>tail</site>`), []byte(`<site>head<a>y</a></site>`)}, 0)
	st, err := set.Fused()
	if err != nil {
		t.Fatal(err)
	}
	xml, _ := set.FuseXML()
	if out, err := st.Serialize(nil, 1); err != nil || !bytes.Equal(out, xml) || string(xml) != `<site><a>x</a>tailhead<a>y</a></site>` {
		t.Fatalf("fused store serializes to %s (%v), FuseXML is %s", out, err, xml)
	}
	for _, ev := range evaluators {
		if got, err := ev.run(st, `/site/text()`); err != nil || got != "tailhead" {
			t.Fatalf("%s: /site/text() = %q (%v), want tailhead", ev.name, got, err)
		}
	}
	c, ok := st.ContainerByPath("/site/#text")
	if !ok || c.Len() != 2 || c.Record(0).Owner != 1 || c.Record(1).Owner != 1 {
		t.Fatalf("/site/#text = %v, want the two values of node 1", c)
	}
}
