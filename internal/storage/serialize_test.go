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

// TestSweepMatchesRecursion: at every node of the edge-case, the random
// and a larger XMark corpus, on every kind of store, the forward sweep
// writes what the recursion over the record oracle's child lists does —
// and every other accessor answers as the records do (checkRecords).
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
	checkCorpora(t, corpora)
}

// TestSweepDeeperThanItsStack: a chain of 20 000 open elements outgrows
// the sweep's fixed stack many times over. Serializing every node of a
// chain is quadratic, so the nodes are the root, the 300 deepest and
// every 211th in between.
func TestSweepDeeperThanItsStack(t *testing.T) {
	const depth = 20000
	doc := datagen.DeepTree(datagen.DeepTreeConfig{Depth: depth, Fanout: 1, Seed: 3})
	s, err := Load(doc, LoadOptions{})
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
	checkRecords(t, s, func(yield func(NodeID) bool) {
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
	s, err := Load([]byte(edgeDoc), LoadOptions{})
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
	s, err := Load([]byte(`<a x="l1&#10;l2&#9;t&#13;c">t&#13;x</a>`), LoadOptions{})
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
		t.Fatalf("%s reads back as x=%q text=%q", out, a.X, a.Text)
	}
	if again, err := Load(out, LoadOptions{}); err != nil {
		t.Fatal(err)
	} else if out2, _ := again.Serialize(nil, 1); !bytes.Equal(out, out2) {
		t.Fatalf("%s re-ingested serializes to %s", out, out2)
	}
}

// TestSerializeAllocatesNothing: the sweep has no per-node state to
// allocate — into a buffer that has grown to size, a subtree costs zero
// allocations — and it counts one decode per text leaf, no more: the
// decode counter is what the early-stop contract is tested against.
func TestSerializeAllocatesNothing(t *testing.T) {
	s, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 1}), LoadOptions{})
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
	recs := records(s)
	var leaves func(id NodeID) int
	leaves = func(id NodeID) int {
		n := 0
		for _, k := range recs[id-1].kids {
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
