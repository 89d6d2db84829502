package storage

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"strings"
	"testing"

	"xquec/internal/datagen"
)

// edgeDoc holds the shapes a serializer gets wrong one at a time: an
// attribute-only element, an empty element, <a></a> next to <a/>, an
// empty CDATA section, text made only of specials, an attribute value
// with '"', '<' and '&', text first and text last in mixed content, and
// white space that only a character reference carries through a parser.
// The root has no attribute, so the document can be fused with itself.
const edgeDoc = `<r><only x="1" y=""/><empty/><open></open><cd><![CDATA[]]></cd>` +
	`<sp>&lt;&gt;&amp;&lt;&lt;&amp;&amp;&gt;</sp><q v="a&quot;b&lt;c&amp;d&gt;e"/>` +
	`<m>first<i>in</i>middle<i/>last</m><m><i>in</i>last</m><m>first<i a="v">in</i></m>` +
	`<ws v="l1&#10;l2&#9;t&#13;c">t&#13;x&#10;y&#9;z</ws></r>`

// recordsTwin returns s on the records backend, over the same arrays and
// containers: what XQUEC_STRUCT=records would have built.
func recordsTwin(t *testing.T, s *Store) *Store {
	t.Helper()
	if s.succ == nil {
		t.Fatal("recordsTwin of a records store")
	}
	twin := *s
	twin.useRecords()
	return &twin
}

// sweepStores returns doc as an ingested store, as a store opened from
// its file bytes, and as the fusion of the document with other (both
// under one root): the three ways a structure comes to exist.
func sweepStores(t *testing.T, doc, other []byte) map[string]*Store {
	t.Helper()
	t.Setenv("XQUEC_STRUCT", "succinct")
	a, err := Load(doc, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opened, err := LoadBinary(a.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(other, LoadOptions{Dictionary: a.Names})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFusion([]*Store{a, b})
	_, endA := f.Span(0, 1)
	_, endB := f.Span(1, 1)
	f.Add(0, 0, endA)
	f.Add(1, 1, endB)
	f.Add(0, endA, endA+1)
	fused, err := f.Store()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Store{"ingested": a, "opened": opened, "fused": fused}
}

// assertSweepIsRecursion holds the sweep to the recursion over child
// lists at the given nodes, as XML and as string value.
func assertSweepIsRecursion(t *testing.T, s *Store, ids func(yield func(NodeID) bool)) {
	t.Helper()
	ref := recordsTwin(t, s)
	var got, want []byte
	for id := range ids {
		var gerr, werr error
		got, gerr = s.Serialize(got[:0], id)
		want, werr = ref.Serialize(want[:0], id)
		if gerr != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("Serialize(%d):\n sweep     %s (%v)\n recursion %s (%v)", id, got, gerr, want, werr)
		}
		got, gerr = s.DeepText(got[:0], id)
		want, werr = ref.DeepText(want[:0], id)
		if gerr != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("DeepText(%d):\n sweep     %q (%v)\n recursion %q (%v)", id, got, gerr, want, werr)
		}
	}
}

func everyNode(s *Store) func(yield func(NodeID) bool) {
	return func(yield func(NodeID) bool) {
		for id := NodeID(1); int(id) <= s.NumNodes() && yield(id); id++ {
		}
	}
}

// TestSweepMatchesRecursion: at every node of every corpus, on every
// kind of store, the forward sweep and the recursive walk of the records
// backend write the same bytes.
func TestSweepMatchesRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	corpora := map[string][2][]byte{
		"edges": {[]byte(edgeDoc), []byte(edgeDoc)},
		"xmark": {
			datagen.XMark(datagen.XMarkConfig{Scale: 0.25, Seed: 1}),
			datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 2}),
		},
	}
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for i := 0; i < trials; i++ {
		corpora["random"+string(rune('a'+i))] = [2][]byte{datagen.RandomRecords(rng), datagen.RandomRecords(rng)}
	}
	for name, docs := range corpora {
		for kind, s := range sweepStores(t, docs[0], docs[1]) {
			t.Run(name+"/"+kind, func(t *testing.T) { assertSweepIsRecursion(t, s, everyNode(s)) })
		}
	}
}

// TestSweepDeeperThanItsStack: a chain of 20 000 open elements outgrows
// the sweep's fixed stack many times over. Serializing every node of a
// chain is quadratic, so the nodes are the root, the 300 deepest and
// every 211th in between.
func TestSweepDeeperThanItsStack(t *testing.T) {
	const depth = 20000
	doc := datagen.DeepTree(datagen.DeepTreeConfig{Depth: depth, Fanout: 1, Seed: 3})
	s, err := Load(doc, LoadOptions{Structure: StructSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	deepest := NodeID(0)
	s.ScanNodes(func(id NodeID, level uint16) {
		if int(level) > depth {
			deepest = id
		}
	})
	if deepest == 0 {
		t.Fatalf("no node below level %d", depth)
	}
	n := NodeID(s.NumNodes())
	assertSweepIsRecursion(t, s, func(yield func(NodeID) bool) {
		for id := NodeID(1); id <= n; id++ {
			if (id == 1 || id%211 == 0 || id+300 > n) && !yield(id) {
				return
			}
		}
	})
}

// TestStandaloneAttribute: an attribute node serializes as name="value"
// on its own and with a leading space inside its owner's start tag, and
// its string value is its value.
func TestStandaloneAttribute(t *testing.T) {
	s, err := Load([]byte(edgeDoc), LoadOptions{Structure: StructSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	var attr NodeID
	for id := range everyNode(s) {
		if s.TagOf(id) == "@v" && s.TagOf(s.Parent(id)) == "q" {
			attr = id
		}
	}
	got, err := s.Serialize(nil, attr)
	if want := `v="a&quot;b&lt;c&amp;d>e"`; err != nil || string(got) != want {
		t.Fatalf("Serialize(@v) = %s (%v), want %s", got, err, want)
	}
	got, _ = s.Serialize(nil, s.Parent(attr))
	if want := `<q v="a&quot;b&lt;c&amp;d>e"/>`; string(got) != want {
		t.Fatalf("Serialize(q) = %s, want %s", got, want)
	}
	if got, err = s.DeepText(nil, attr); err != nil || string(got) != `a"b<c&d>e` {
		t.Fatalf("DeepText(@v) = %q (%v)", got, err)
	}
	if got, err = s.DeepText(nil, s.Parent(attr)); err != nil || len(got) != 0 {
		t.Fatalf("DeepText(q) = %q (%v), want nothing: attributes are not part of a string value", got, err)
	}
}

// TestSerializedWhitespaceSurvivesAParser: a '\r' in text and a '\t',
// '\n' or '\r' in an attribute value are stored as given (here through
// character references) and must come back out of any conforming parser,
// which normalizes the raw characters away.
func TestSerializedWhitespaceSurvivesAParser(t *testing.T) {
	for _, mode := range []StructureKind{StructSuccinct, StructRecords} {
		s, err := Load([]byte(`<a x="l1&#10;l2&#9;t&#13;c">t&#13;x</a>`), LoadOptions{Structure: mode})
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Serialize(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		var a struct {
			X    string `xml:"x,attr"`
			Text string `xml:",chardata"`
		}
		if err := xml.Unmarshal(out, &a); err != nil {
			t.Fatalf("%s: %v", out, err)
		}
		if a.X != "l1\nl2\tt\rc" || a.Text != "t\rx" {
			t.Fatalf("%v: %s reads back as x=%q text=%q", mode, out, a.X, a.Text)
		}
		if again, err := Load(out, LoadOptions{Structure: mode}); err != nil {
			t.Fatal(err)
		} else if out2, _ := again.Serialize(nil, 1); !bytes.Equal(out, out2) {
			t.Fatalf("%v: %s re-ingested serializes to %s", mode, out, out2)
		}
	}
}

// TestSerializeAllocatesNothing: the sweep has no per-node state to
// allocate — into a buffer that has grown to size, a subtree costs zero
// allocations — and it counts one decode per text leaf, no more: the
// decode counter is what the early-stop contract is tested against.
func TestSerializeAllocatesNothing(t *testing.T) {
	s, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1}), LoadOptions{Structure: StructSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	var persons []NodeID
	for _, sn := range s.Sum.Nodes() {
		if sn.Path() == "/site/people/person" {
			persons = sn.Extent
		}
	}
	if len(persons) == 0 {
		t.Fatal("no persons")
	}
	ref := recordsTwin(t, s)
	var leaves func(id NodeID) int
	leaves = func(id NodeID) int {
		n := 0
		for k := range ref.Kids(id) {
			if k.ID == 0 {
				n++
			} else {
				n += leaves(k.ID)
			}
		}
		return n
	}
	var buf []byte
	for _, id := range persons {
		before := DecodeOps()
		if buf, err = s.Serialize(buf[:0], id); err != nil {
			t.Fatal(err)
		}
		if got, want := DecodeOps()-before, int64(leaves(id)); got != want {
			t.Fatalf("person %d: %d decodes for %d text leaves", id, got, want)
		}
		if !strings.HasPrefix(string(buf), `<person id="`) {
			t.Fatalf("person %d serializes to %s", id, buf)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(persons), func() {
		buf, _ = s.Serialize(buf[:0], persons[i%len(persons)])
		buf, _ = s.DeepText(buf[:0], persons[i%len(persons)])
		i++
	}); allocs != 0 {
		t.Fatalf("Serialize + DeepText of a person into a warmed buffer: %v allocations", allocs)
	}
}
