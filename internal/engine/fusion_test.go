package engine_test

// The differential suite of the fused store (partition.Set.Store,
// storage.Fusion). It lives here because it runs on this package's
// random documents and query battery, which only this package's tests
// can see. The oracle is a plain ingest of the corpus as text — the
// document a set was cut from (partition.Cut), the textual concatenation
// (partition.Concat) of the documents a segment set was fed — which is
// what fusion used to do with the text it reconstructed, and shares no
// step, and no mistake, with the splice.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
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
		plan := fusePlans[(shift+i+1)%3]
		if set, _, err = set.Append([][]byte{doc}, func(*storage.Values) (*storage.CompressionPlan, error) { return plan, nil }); err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
	}
	return set
}

// cutSet cuts doc into n parts (partition.Cut) and builds them as a
// segment set, part i under fusePlans[(shift+i)%3].
func cutSet(t *testing.T, doc []byte, n, shift int) *partition.Set {
	t.Helper()
	parts, err := partition.Cut(doc, n)
	if err != nil {
		t.Fatal(err)
	}
	return segmentSet(t, parts, shift)
}

// checkFused holds the spliced store of set — or, with reopen, that store
// reopened from its bytes — to an ingest of corpus: the same
// serialization, which is also Decompress's, the same answer from every
// accessor of the structure, the same summary, the same containers
// record by record, and the same result for every query. The oracle is a Load product, so agreeing with it on every
// accessor is also passing storage's Validate.
func checkFused(t *testing.T, set *partition.Set, corpus []byte, queries []string, reopen bool) {
	t.Helper()
	fx, err := set.Store().Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := storage.Load(corpus, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xml, err := want.Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := set.Store()
	if reopen {
		if got, err = storage.LoadBinary(got.AppendBinary(nil)); err != nil {
			t.Fatalf("reopening the fused store: %v", err)
		}
	}
	if out, err := got.Serialize(nil, nil, 1); err != nil || !bytes.Equal(out, xml) || !bytes.Equal(fx, xml) {
		t.Fatalf("fused store serializes to\n%s (%v), the set's store to\n%s, the corpus\n%s", out, err, fx, xml)
	}
	// What Decompress returns must read back as the same document, white
	// space included.
	re, err := storage.Load(fx, storage.LoadOptions{})
	if err != nil {
		t.Fatalf("Load(Decompress): %v\n%s", err, fx)
	} else if out, err := re.Serialize(nil, nil, 1); err != nil || !bytes.Equal(out, fx) {
		t.Fatalf("Decompress\n%s\nre-ingested serializes to\n%s (%v)", fx, out, err)
	}
	// A set compacts from its fused store, not from its XML, to the
	// repository the re-ingest of its XML is, byte for byte — but for the
	// original size, which stays the bytes ingested.
	compacted, err := set.Compact(context.Background(), nil)
	if err != nil {
		t.Fatalf("Compact: %v\ncorpus: %s", err, fx)
	}
	re.OriginalSize = set.OriginalSize()
	if !bytes.Equal(compacted.Store().AppendBinary(nil), re.AppendBinary(nil)) {
		t.Fatalf("the compacted repository differs from the re-ingest of\n%s", fx)
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
	gp, ge, gl := engine.TreeOf(got)
	wp, we, wl := engine.TreeOf(want)
	for id := storage.NodeID(1); int(id) <= want.NumNodes(); id++ {
		i := id - 1
		if gp[i] != wp[i] || ge[i] != we[i] || gl[i] != wl[i] || got.TagOf(id) != want.TagOf(id) || got.HasText(nil, id) != want.HasText(nil, id) {
			t.Fatalf("node %d: parent/end/level/tag/text %d %d %d %s %v, want %d %d %d %s %v\ncorpus: %s", id,
				gp[i], ge[i], gl[i], got.TagOf(id), got.HasText(nil, id),
				wp[i], we[i], wl[i], want.TagOf(id), want.HasText(nil, id), xml)
		}
		gr, wr := got.TextRefs(nil, nil, id), want.TextRefs(nil, nil, id)
		same := len(gr) == len(wr)
		for i := 0; same && i < len(gr); i++ {
			// Containers are compared by path: the fused store lists them
			// in the order the parts do. The record index is compared as
			// it is — equal values must lie in document order.
			same = gr[i].Index == wr[i].Index && contPath(got, gr[i].Container) == contPath(want, wr[i].Container)
		}
		if !same {
			t.Fatalf("node %d: text refs %v, want %v\ncorpus: %s", id, gr, wr, xml)
		}
	}

	gs, ws := got.Sum.Nodes(), want.Sum.Nodes()
	if len(gs) != len(ws) {
		t.Fatalf("%d summary nodes, want %d", len(gs), len(ws))
	}
	for i, w := range ws {
		g := gs[i]
		if g.ID != w.ID || g.Path() != w.Path() || g.Count != w.Count || g.TextCount != w.TextCount ||
			!slices.Equal(g.Extent, w.Extent) || contPath(got, g.Container) != contPath(want, w.Container) {
			t.Fatalf("summary node %d: %s count %d text %d, want %s count %d text %d\ncorpus: %s",
				i, g.Path(), g.Count, g.TextCount, w.Path(), w.Count, w.TextCount, xml)
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
			if gerr != nil || werr != nil || !bytes.Equal(gv, wv) || g.Owner(i) != w.Owner(i) {
				t.Fatalf("container %s record %d: %q of node %d (%v), want %q of node %d (%v)\ncorpus: %s",
					w.Path, i, gv, g.Owner(i), gerr, wv, w.Owner(i), werr, xml)
			}
		}
	}

	for _, q := range queries {
		gr, gerr := runVM(t, got, q)
		wr, werr := runVM(t, want, q)
		if (gerr == nil) != (werr == nil) || gr != wr {
			t.Fatalf("%s\nfused:      %q (%v)\nre-ingested: %q (%v)\ncorpus: %s", q, gr, gerr, wr, werr, xml)
		}
	}

	// The fused store is what Database.Bytes persists for a set: it must
	// reopen, under the same proof, to the same corpus.
	reopened, err := storage.LoadBinary(got.AppendBinary(nil))
	if err != nil {
		t.Fatalf("reopening the fused store: %v", err)
	}
	if out, err := reopened.Serialize(nil, nil, 1); err != nil || !bytes.Equal(out, xml) {
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
// content, attributes on three levels, values split by a comment
// (RandomDoc) — as 2–5 appended segments and cut into 2–4 parts, every
// part under its own plan.
func TestFusedRandomDifferential(t *testing.T) {
	queries := append(datagen.RecordQueries(), xmarkTexts()...)
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
		checkFused(t, cutSet(t, corpus, 2+rng.Intn(3), trial), corpus, queries, false)
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

	// Documents cut into 2–4 parts: root-level text and attributes, and
	// root children that are leaves, text-only, repeated or nested.
	cuts := map[string]string{
		"a part that lacks a spine child": `<site v="1">lead<regions r="x"><item>1</item></regions><people><person><name>a</name></person>` +
			`<person><name>b</name></person><person><name>c</name></person><person><name>a</name></person></people><empty/>tail</site>`,
		"spine text and leaf spine elements": `<site><info>about</info><people><person k="1">p</person><person k="2">q</person>` +
			`<person k="3">p</person></people><note>n1</note><note>n2</note></site>`,
		"split at the root's children": `<site><a>1</a><a>2</a><b>x</b><a>3</a><b>y</b></site>`,
	}
	for name, doc := range cuts {
		for n := 2; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				checkFused(t, cutSet(t, []byte(doc), n, n), []byte(doc), queries, reopen)
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
		checkFused(t, cutSet(t, docs[0], 3, 2), docs[0], xmarkTexts(), reopen)
	})
}

// TestFusedKeepsJunctionTextApart pins the one place the spliced store
// and a re-ingest differ by design: text that ends one segment's root
// content and text that begins the next's stay two values of the root,
// where parsing the concatenated text would run them together into one. The corpus
// text, and the root's text(), are the same.
func TestFusedKeepsJunctionTextApart(t *testing.T) {
	set := segmentSet(t, [][]byte{[]byte(`<site><a>x</a>tail</site>`), []byte(`<site>head<a>y</a></site>`)}, 0)
	st := set.Store()
	if xml, err := st.Serialize(nil, nil, 1); err != nil || string(xml) != `<site><a>x</a>tailhead<a>y</a></site>` {
		t.Fatalf("fused store serializes to %s (%v)", xml, err)
	}
	if got, err := runVM(t, st, `/site/text()`); err != nil || got != "tailhead" {
		t.Fatalf("/site/text() = %q (%v), want tailhead", got, err)
	}
	c, ok := st.ContainerByPath("/site/#text")
	if !ok || c.Len() != 2 || c.Owner(0) != 1 || c.Owner(1) != 1 {
		t.Fatalf("/site/#text = %v, want the two values of node 1", c)
	}
	// Compaction re-encodes the values of the fused structure: the two
	// stay two, where a re-ingest of the corpus text would join them.
	compacted, err := set.Compact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := compacted.Store().ContainerByPath("/site/#text"); !ok || c.Len() != 2 || c.Owner(0) != 1 || c.Owner(1) != 1 {
		t.Fatalf("compacted /site/#text = %v, want the two values of node 1", c)
	}
}
