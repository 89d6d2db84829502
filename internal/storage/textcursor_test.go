package storage

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xquec/internal/datagen"
)

// cursorStores returns the stores the cursor is held to: the ingested,
// opened and fused XMark stores, the ingested, opened and fused store of
// each real-life corpus and of each skipDocs document, and the segment
// stores of an XMark document cut at its root children, the way a
// partitioned build cuts one: each part under the root tag, its
// dictionary seeded with the previous part's.
func cursorStores(t *testing.T) map[string]*Store {
	t.Helper()
	out := map[string]*Store{}
	add := func(name string, doc, other []byte) {
		for kind, s := range oracleStores(t, doc, other) {
			out[name+"/"+kind] = s
		}
	}
	add("xmark", datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 7}), datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 8}))
	for _, ds := range datagen.RealLifeCorpus(3, 0.01) {
		add(ds.Name, ds.Data, ds.Data)
	}
	for name, doc := range skipDocs(t) {
		add(name, doc, doc)
	}
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 9})
	var names []string
	for i, run := range [][2]string{{"<site>", "<categories>"}, {"<categories>", "<open_auctions>"}, {"<open_auctions>", "</site>"}} {
		from, to := bytes.Index(doc, []byte(run[0])), bytes.Index(doc, []byte(run[1]))
		if from < 0 || to < from {
			t.Fatalf("no %s…%s run in the document", run[0], run[1])
		}
		part := append(append([]byte("<site>"), bytes.TrimPrefix(doc[from:to], []byte("<site>"))...), "</site>"...)
		s, err := Load(part, LoadOptions{Dictionary: names})
		if err != nil {
			t.Fatal(err)
		}
		names = s.Names
		out["segment"+string(rune('0'+i))] = s
	}
	return out
}

// skipDocs are the documents on which an immediate-text lookup skips
// element children by the forward FindClose scan at its limits: "wide"
// has children spanning three and more 1024-bit blocks before, between
// and after an element's text leaves; in "boundary" the close paren of
// one child is the last paren of a block and that of another the first
// of a block, which the test checks of the ingested store; "deep" is a
// DeepTree spine.
func skipDocs(t *testing.T) map[string][]byte {
	t.Helper()
	big := "<c>" + strings.Repeat("<x>v</x><y/>", 600) + "</c>" // 3 602 parens
	wide := "<r><e>" + big + "t1" + big + "t2</e><e>t0" + big + "</e><e>" + big + big + "</e></r>"
	// <r> is paren 0. An <e> opened at q closes its <c> at q+2+2n over n
	// <x/> children: 1 + 2 + 2·510 = 1023; the <w> after it shifts the
	// next <e> to 1028, and 1028 + 2 + 2·509 = 2048.
	child := func(n int) string { return "<e><c>" + strings.Repeat("<x/>", n) + "</c>t</e>" }
	boundary := "<r>" + child(510) + "<w>" + child(509) + "</w></r>"
	s, err := Load([]byte(boundary), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var opens, closes []int
	code, _ := s.Code("c")
	for p, ord, id := 0, 0, NodeID(0); p < s.succ.pv.Len(); p++ {
		if !s.succ.pv.Get(p) {
			if q := opens[len(opens)-1]; q >= 0 {
				closes = append(closes, p)
			}
			opens = opens[:len(opens)-1]
			continue
		}
		q := -1
		if s.succ.isNode.Get(ord) {
			if id++; s.TagCodeOf(id) == code {
				q = p
			}
		}
		opens = append(opens, q)
		ord++
	}
	if !slices.Equal(closes, []int{1023, 2048}) {
		t.Fatalf("the <c> children of the boundary document close at %v, want 1023 and 2048", closes)
	}
	return map[string][]byte{
		"wide":     []byte(wide),
		"boundary": []byte(boundary),
		"deep":     datagen.DeepTree(datagen.DeepTreeConfig{Depth: 400, Fanout: 3, Seed: 11}),
	}
}

// TestTextCursorMatchesColdLookups holds Text, TextRefs and HasText
// without a cursor to the record oracle, and the same lookups, the
// Serialize and DeepText sweeps and — at the instances of summary nodes
// whose Shape is Sole — SoleText through one cursor to the calls without
// one, at every node, visited in ascending, descending and random order,
// with each node asked twice in a row now and then (the cursor's
// remembered node). A sweep comes before the text lookups at one node
// and after them at the next, so each finds the cursor left where the
// other left it.
func TestTextCursorMatchesColdLookups(t *testing.T) {
	for name, s := range cursorStores(t) {
		var text []byte
		for i, r := range records(s) {
			id := NodeID(i + 1)
			var err, rerr error
			text, err = s.Text(nil, text[:0], id)
			want, rerr := r.text(s, nil)
			if s.HasText(nil, id) != r.hasText() || !slices.Equal(s.TextRefs(nil, nil, id), r.textRefs()) ||
				err != nil || rerr != nil || !bytes.Equal(text, want) {
				t.Fatalf("%s: node %d: HasText %v, TextRefs %v, Text %q (%v); records %v, %v, %q (%v)", name, id,
					s.HasText(nil, id), s.TextRefs(nil, nil, id), text, err, r.hasText(), r.textRefs(), want, rerr)
			}
		}
		sole := make([]bool, s.NumNodes()+1)
		for _, sn := range s.Sum.Nodes() {
			for _, id := range sn.Extent {
				sole[id] = sn.Shape().Sole
			}
		}
		ids := slices.Collect(everyNode(s))
		desc := slices.Clone(ids)
		slices.Reverse(desc)
		random := slices.Clone(ids)
		rand.New(rand.NewSource(5)).Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
		for order, ids := range map[string][]NodeID{"ascending": ids, "descending": desc, "random": random} {
			var c TextCursor
			var got, want []byte
			sweeps := func(i int, id NodeID) {
				var gerr, werr error
				for _, markup := range []bool{i%2 == 0, i%2 != 0} {
					if markup {
						got, gerr = s.Serialize(&c, got[:0], id)
						want, werr = s.Serialize(nil, want[:0], id)
					} else {
						got, gerr = s.DeepText(&c, got[:0], id)
						want, werr = s.DeepText(nil, want[:0], id)
					}
					if gerr != nil || werr != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s %s: sweep of %d (markup %v) through the cursor = %.200q (%v), cold %.200q (%v)",
							name, order, id, markup, got, gerr, want, werr)
					}
				}
			}
			for i, id := range ids {
				asks := 1
				if i%3 == 2 {
					asks = 2 // the node the cursor remembers
				}
				if i%2 == 0 {
					sweeps(i, id)
				}
				for range asks {
					if s.HasText(&c, id) != s.HasText(nil, id) {
						t.Fatalf("%s %s: HasText(%d) through the cursor = %v", name, order, id, !s.HasText(nil, id))
					}
					if g, w := s.TextRefs(&c, nil, id), s.TextRefs(nil, nil, id); !slices.Equal(g, w) {
						t.Fatalf("%s %s: TextRefs(%d) through the cursor = %v, cold %v", name, order, id, g, w)
					}
					var gerr, werr error
					got, gerr = s.Text(&c, got[:0], id)
					want, werr = s.Text(nil, want[:0], id)
					if gerr != nil || werr != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s %s: Text(%d) through the cursor = %q (%v), cold %q (%v)", name, order, id, got, gerr, want, werr)
					}
					if !sole[id] {
						continue
					}
					if got, gerr = s.SoleText(&c, got[:0], id); gerr != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s %s: SoleText(%d) through the cursor = %q (%v), Text %q", name, order, id, got, gerr, want)
					}
					if got, gerr = s.SoleText(nil, got[:0], id); gerr != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s %s: SoleText(%d) = %q (%v), Text %q", name, order, id, got, gerr, want)
					}
				}
				if i%2 != 0 {
					sweeps(i, id)
				}
			}
		}
	}
}

// TestTextCursorIsTiedToItsStore: a cursor moved through one store and
// then used on another must answer for the other — never from where it
// stood in the first. The two stores have different shapes, so a node ID
// means different paren positions in each.
func TestTextCursorIsTiedToItsStore(t *testing.T) {
	a, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 1}), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.01, Seed: 2}), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var c TextCursor
	var got, want []byte
	n := min(a.NumNodes(), b.NumNodes())
	for id := NodeID(1); int(id) <= n; id++ {
		for _, s := range []*Store{a, b} {
			got, _ = s.Text(&c, got[:0], id)
			want, _ = s.Text(nil, want[:0], id)
			if !bytes.Equal(got, want) || s.HasText(&c, id) != s.HasText(nil, id) ||
				!slices.Equal(s.TextRefs(&c, nil, id), s.TextRefs(nil, nil, id)) {
				t.Fatalf("node %d: the cursor answered %q, the store holds %q", id, got, want)
			}
		}
	}
}

// TestSoleTextEdges pins the shape a summary node's values have — Sole,
// the record every instance's only child, and Value, the one record of
// each string value — at the shapes that decide it, on the ingested,
// opened and fused store, and holds SoleText to the leaf walk (Text) at
// every instance of a Sole summary node:
//
//   - /r/a: text split by a comment is one text leaf, the comment
//     dropped, so Sole;
//   - /r/b: an empty <b/> among text-bearing siblings: one record each
//     where there is one, but not all, so not Sole;
//   - /r/c: an attribute before the text, so not Sole, and /r/c/@k is;
//   - /r/d/@v: an empty attribute value is still one record, so Sole;
//   - /r/e: one text leaf in every instance, so Sole;
//   - /r/f: its text one level down, under a g each has one of;
//   - /r/h: two i under one h, so no record is its value;
//   - /r/j: text at two paths, so no record is its value;
//   - /r/l: text on either side of a child is two text leaves, so no
//     record is the value.
func TestSoleTextEdges(t *testing.T) {
	doc := []byte(`<r><a>x<!-- c -->y</a><a>z</a><b>p</b><b/><b>q</b>` +
		`<c k="1">s</c><c k="2">t</c><d v=""/><d v="w"/><e>u</e><e>v</e>` +
		`<f><g>1</g></f><f><g>2</g></f><h><i>1</i><i>2</i></h><j>1<k>2</k></j><l>x<m/>y</l><l>z</l></r>`)
	type shape struct {
		sole  bool
		value string // the Value node's path, "" for none
		why   string
	}
	want := map[string]shape{
		"/r":      {why: "/r has text at several paths"},
		"/r/a":    {sole: true, value: "/r/a/#text"},
		"/r/b":    {value: "/r/b/#text"},
		"/r/c":    {value: "/r/c/#text"},
		"/r/c/@k": {sole: true, value: "/r/c/@k"},
		"/r/d":    {},
		"/r/d/@v": {sole: true, value: "/r/d/@v"},
		"/r/e":    {sole: true, value: "/r/e/#text"},
		"/r/f":    {value: "/r/f/g/#text"},
		"/r/h":    {why: "/r/h/i repeats under one parent"},
		"/r/j":    {why: "/r/j has text at several paths"},
		"/r/l":    {why: "/r/l has several text records under one node"},
	}
	for kind, s := range oracleStores(t, doc, doc) {
		for path, w := range want {
			sn := s.Sum.Lookup(path)
			if sn == nil {
				t.Fatalf("%s: no summary node %s", kind, path)
			}
			sh := sn.Shape()
			got := shape{sole: sh.Sole, why: sh.Why}
			if sh.Value != nil {
				got.value = sh.Value.Path()
			}
			if got != w {
				t.Errorf("%s: %s shape %+v, want %+v", kind, path, got, w)
			}
			if !sh.Sole {
				continue
			}
			for _, id := range sn.Extent {
				got, err := s.SoleText(nil, nil, id)
				walk, werr := s.Text(nil, nil, id)
				if err != nil || werr != nil || !bytes.Equal(got, walk) {
					t.Fatalf("%s: %s node %d: SoleText %q (%v), Text %q (%v)", kind, path, id, got, err, walk, werr)
				}
			}
		}
		if sh := s.Sum.Lookup("/r/f/g").Shape(); !sh.Each || !sh.Single || !sh.All {
			t.Errorf("%s: /r/f/g each %v, single %v, all %v", kind, sh.Each, sh.Single, sh.All)
		}
		if per := s.Sum.Lookup("/r/h/i").Shape(); per.Single || !per.Each {
			t.Errorf("%s: /r/h/i per parent %+v", kind, per)
		}
		if per := s.Sum.Lookup("/r/c").Shape(); per.Single || !per.Each {
			t.Errorf("%s: /r/c per parent %+v", kind, per)
		}
	}
}
