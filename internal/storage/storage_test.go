package storage

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"xquec/internal/compress"
	"xquec/internal/datagen"
	"xquec/internal/xmlparser"
)

const tinyDoc = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>25</age></person>
    <person id="p2"><name>Carol</name><age>41</age></person>
  </people>
  <closed_auctions>
    <closed_auction><buyer person="p1"/><price>19.99</price><date>2001-06-10</date></closed_auction>
    <closed_auction><buyer person="p0"/><price>5.50</price><date>1999-01-02</date></closed_auction>
  </closed_auctions>
</site>`

func loadTiny(t *testing.T) *Store {
	t.Helper()
	s, err := Load([]byte(tinyDoc), LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return s
}

func TestLoadBasicShape(t *testing.T) {
	s := loadTiny(t)
	// 20 elements + 5 attributes (3 person ids + 2 buyer persons).
	if got := s.NumNodes(); got != 25 {
		t.Fatalf("NumNodes = %d, want 25", got)
	}
	if s.TagOf(1) != "site" {
		t.Fatalf("root tag = %q", s.TagOf(1))
	}
	parent, end, _ := shape(s)
	if parent[0] != 0 {
		t.Fatal("root must have no parent")
	}
	// Root subtree spans everything.
	if end[0] != NodeID(s.NumNodes()) {
		t.Fatalf("root End = %d", end[0])
	}
}

func TestContainersByPathAndKinds(t *testing.T) {
	s := loadTiny(t)
	cases := []struct {
		path string
		kind ValueKind
		n    int
	}{
		{"/site/people/person/name/#text", KindString, 3},
		{"/site/people/person/age/#text", KindInt, 3},
		{"/site/people/person/@id", KindString, 3},
		{"/site/closed_auctions/closed_auction/price/#text", KindDecimal, 2},
		{"/site/closed_auctions/closed_auction/date/#text", KindDate, 2},
		{"/site/closed_auctions/closed_auction/buyer/@person", KindString, 2},
	}
	for _, c := range cases {
		cont, ok := s.ContainerByPath(c.path)
		if !ok {
			t.Fatalf("missing container %s", c.path)
		}
		if cont.Kind != c.kind {
			t.Fatalf("%s kind = %v, want %v", c.path, cont.Kind, c.kind)
		}
		if cont.Len() != c.n {
			t.Fatalf("%s has %d records, want %d", c.path, cont.Len(), c.n)
		}
	}
}

func TestContainerSortedAndDecodable(t *testing.T) {
	s := loadTiny(t)
	cont, _ := s.ContainerByPath("/site/people/person/name/#text")
	var got []string
	for i := 0; i < cont.Len(); i++ {
		v, err := cont.Decode(nil, i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(v))
	}
	want := []string{"Alice", "Bob", "Carol"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted names = %v, want %v", got, want)
		}
	}
}

func TestFindEq(t *testing.T) {
	s := loadTiny(t)
	cont, _ := s.ContainerByPath("/site/people/person/name/#text")
	m, err := cont.FindEq([]byte("Bob"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 1 {
		t.Fatalf("FindEq(Bob) count = %d", m.Count())
	}
	if owner := cont.Owner(m.At(0)); s.TagOf(owner) != "name" {
		t.Fatalf("owner tag = %q", s.TagOf(owner))
	}
	if m, _ := cont.FindEq([]byte("Zed")); m.Count() != 0 {
		t.Fatal("found non-existent value")
	}
}

func TestFindRangeOnTypedContainer(t *testing.T) {
	s := loadTiny(t)
	cont, _ := s.ContainerByPath("/site/people/person/age/#text")
	lo, hi, err := cont.FindRange([]byte("26"), true, []byte("40"), true)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo != 1 {
		t.Fatalf("ages in [26,40]: %d, want 1", hi-lo)
	}
	v, _ := cont.Decode(nil, lo)
	if string(v) != "30" {
		t.Fatalf("got %s", v)
	}
	// Unbounded below.
	lo, hi, err = cont.FindRange(nil, true, []byte("30"), false)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo != 1 {
		t.Fatalf("ages < 30: %d, want 1", hi-lo)
	}
}

func TestTextAndDeepText(t *testing.T) {
	s := loadTiny(t)
	sn := s.Sum.Lookup("/site/people/person")
	if sn == nil || len(sn.Extent) != 3 {
		t.Fatalf("person summary: %+v", sn)
	}
	p0 := sn.Extent[0]
	txt, err := s.DeepText(nil, nil, p0)
	if err != nil {
		t.Fatal(err)
	}
	if string(txt) != "Alice30" {
		t.Fatalf("DeepText = %q", txt)
	}
	// Attribute node text.
	attrID := s.Sum.Lookup("/site/people/person/@id").Extent[0]
	if parent, _, _ := shape(s); parent[attrID-1] != p0 {
		t.Fatalf("@id %d is not an attribute of person %d", attrID, p0)
	}
	atxt, err := s.Text(nil, nil, attrID)
	if err != nil || string(atxt) != "p0" {
		t.Fatalf("attr text = %q (%v)", atxt, err)
	}
}

func TestSummaryLookupAndMatch(t *testing.T) {
	s := loadTiny(t)
	if s.Sum.Lookup("/site/people/person/@id") == nil {
		t.Fatal("Lookup @id failed")
	}
	if s.Sum.Lookup("/site/nonexistent") != nil {
		t.Fatal("Lookup invented a path")
	}
}

func TestSummaryExtentsPartitionElements(t *testing.T) {
	s := loadTiny(t)
	seen := map[NodeID]int{}
	for _, sn := range s.Sum.Nodes() {
		for _, id := range sn.Extent {
			seen[id]++
		}
	}
	if len(seen) != s.NumNodes() {
		t.Fatalf("extents cover %d of %d nodes", len(seen), s.NumNodes())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("node %d in %d extents", id, n)
		}
	}
}

func TestSerializeSubtree(t *testing.T) {
	s := loadTiny(t)
	sn := s.Sum.Lookup("/site/people/person")
	out, err := s.Serialize(nil, nil, sn.Extent[1])
	if err != nil {
		t.Fatal(err)
	}
	want := `<person id="p1"><name>Bob</name><age>25</age></person>`
	if string(out) != want {
		t.Fatalf("Serialize = %s", out)
	}
}

func TestSerializeWholeDocumentRoundTrips(t *testing.T) {
	s := loadTiny(t)
	out, err := s.Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reparse and compare canonical forms (whitespace was dropped).
	d1, err := xmlparser.BuildDOM(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	d2, _ := xmlparser.BuildDOM([]byte(tinyDoc))
	if !bytes.Equal(d1.Root.Serialize(nil), d2.Root.Serialize(nil)) {
		t.Fatal("reconstructed document differs from original")
	}
}

func TestPlanGroupsShareModels(t *testing.T) {
	plan := &CompressionPlan{
		Groups: map[string][]string{
			"names": {"/site/people/person/name/#text", "/site/people/person/@id"},
		},
		Algorithms: map[string]string{"names": AlgHuffman},
	}
	s, err := Load([]byte(tinyDoc), LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := s.ContainerByPath("/site/people/person/name/#text")
	c2, _ := s.ContainerByPath("/site/people/person/@id")
	if c1.Group != "names" || c2.Group != "names" {
		t.Fatalf("groups = %q, %q", c1.Group, c2.Group)
	}
	if c1.Codec() != c2.Codec() {
		t.Fatal("grouped containers must share one codec instance")
	}
	if c1.Codec().Name() != "huffman" {
		t.Fatalf("algorithm = %s", c1.Codec().Name())
	}
	// Huffman containers must have the eq permutation.
	m, err := c1.FindEq([]byte("Bob"))
	if err != nil || m.Count() != 1 {
		t.Fatalf("huffman FindEq: %d, %v", m.Count(), err)
	}
}

func TestDefaultAlgorithmIsALM(t *testing.T) {
	s := loadTiny(t)
	c, _ := s.ContainerByPath("/site/people/person/name/#text")
	if c.Codec().Name() != "alm" {
		t.Fatalf("default string codec = %s, want alm", c.Codec().Name())
	}
}

func TestPersistRoundTrip(t *testing.T) {
	s := loadTiny(t)
	blob := s.AppendBinary(nil)
	s2, err := LoadBinary(blob)
	if err != nil {
		t.Fatalf("LoadBinary: %v", err)
	}
	if err := s2.Validate(); err != nil {
		t.Fatalf("reloaded Validate: %v", err)
	}
	if s2.NumNodes() != s.NumNodes() || len(s2.Containers) != len(s.Containers) {
		t.Fatal("shape mismatch after reload")
	}
	o1, _ := s.Serialize(nil, nil, 1)
	o2, err := s2.Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1, o2) {
		t.Fatal("reloaded repository serializes differently")
	}
	if s2.OriginalSize != s.OriginalSize {
		t.Fatal("OriginalSize lost")
	}
	// Binary search still works after reload.
	c, _ := s2.ContainerByPath("/site/people/person/age/#text")
	lo, hi, err := c.FindRange([]byte("25"), true, []byte("30"), true)
	if err != nil || hi-lo != 2 {
		t.Fatalf("reloaded FindRange: [%d,%d) %v", lo, hi, err)
	}
}

// TestLoadedModelsMatchTrained: an ALM model loaded from its bytes, whose
// index is built on first use, is the codec that was trained: on XMark
// scale 1 every one writes the same model of the same size, and encodes
// every value and decodes every record of its containers as the trained
// one does.
func TestLoadedModelsMatchTrained(t *testing.T) {
	s, err := Load(datagen.XMark(datagen.XMarkConfig{Scale: 1, Seed: 1}), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]compress.Codec{}
	for g, gm := range s.Models {
		if gm.Algorithm != AlgALM {
			continue
		}
		model := gm.Codec.AppendModel(nil)
		lc, err := compress.LoadModel(AlgALM, model)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if got := lc.AppendModel(nil); !bytes.Equal(got, model) || lc.ModelSize() != gm.Codec.ModelSize() {
			t.Fatalf("%s: loaded model %d bytes (size %d), trained %d bytes (size %d)",
				g, len(got), lc.ModelSize(), len(model), gm.Codec.ModelSize())
		}
		loaded[g] = lc
	}
	if len(loaded) < 10 {
		t.Fatalf("only %d ALM models", len(loaded))
	}
	records := 0
	for _, c := range s.Containers {
		lc, ok := loaded[c.Group]
		if !ok {
			continue
		}
		for i := 0; i < c.Len(); i++ {
			want, err := c.codec.Decode(nil, c.Value(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := lc.Decode(nil, c.Value(i))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s record %d: loaded codec decodes %q (%v), trained %q", c.Path, i, got, err, want)
			}
			enc, err := lc.Encode(nil, want)
			if err != nil || !bytes.Equal(enc, c.Value(i)) {
				t.Fatalf("%s record %d: loaded codec encodes %q as %x (%v), trained %x", c.Path, i, want, enc, err, c.Value(i))
			}
			records++
		}
	}
	t.Logf("%d ALM models, %d records", len(loaded), records)
}

func TestPersistRejectsCorruption(t *testing.T) {
	s := loadTiny(t)
	blob := s.AppendBinary(nil)
	if _, err := LoadBinary(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated repository accepted")
	}
	if _, err := LoadBinary([]byte("not a repo")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadBinary(append(append([]byte{}, blob...), 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Flip a byte in the middle (may or may not decode, must not panic
	// and if it decodes Validate should usually catch it).
	cp := append([]byte{}, blob...)
	cp[len(cp)/3] ^= 0x7f
	_, _ = LoadBinary(cp)
}

func TestSaveOpenFile(t *testing.T) {
	s := loadTiny(t)
	path := t.TempDir() + "/repo.xqc"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumNodes() != s.NumNodes() {
		t.Fatal("file round trip broken")
	}
}

func TestFootprint(t *testing.T) {
	s := loadTiny(t)
	f := s.Footprint()
	if f.Total() <= 0 || f.Minimal() <= 0 {
		t.Fatalf("footprint: %+v", f)
	}
	if f.Total() <= f.Minimal() {
		t.Fatal("access structures must add to the footprint")
	}
	if f.AccessOverheadFactor() <= 1 {
		t.Fatalf("overhead factor = %v", f.AccessOverheadFactor())
	}
}

func TestCompressionFactorOnXMark(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.3, Seed: 1})
	s, err := Load(doc, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cf := s.CompressionFactor()
	if cf < 0.15 || cf > 0.95 {
		t.Fatalf("XMark compression factor = %.3f, implausible", cf)
	}
	t.Logf("XMark(0.3) CF = %.3f, footprint: %v", cf, s.Footprint())
}

func TestXMarkRoundTripThroughStore(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 2})
	s, err := Load(doc, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := xmlparser.BuildDOM(out)
	if err != nil {
		t.Fatalf("reconstructed XMark unparseable: %v", err)
	}
	d2, _ := xmlparser.BuildDOM(doc)
	if !bytes.Equal(d1.Root.Serialize(nil), d2.Root.Serialize(nil)) {
		t.Fatal("XMark reconstruction differs")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load([]byte("<a></b>"), LoadOptions{}); err == nil {
		t.Fatal("malformed XML accepted")
	}
	if _, err := Load(nil, LoadOptions{}); err == nil {
		t.Fatal("empty input accepted")
	}
	plan := &CompressionPlan{
		Groups:     map[string][]string{"g": {"/site/people/person/name/#text"}},
		Algorithms: map[string]string{"g": "no-such-algorithm"},
	}
	if _, err := Load([]byte(tinyDoc), LoadOptions{Plan: plan}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestMixedContent(t *testing.T) {
	doc := `<a>hello <b>bold</b> world</a>`
	s, err := Load([]byte(doc), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != doc {
		t.Fatalf("mixed content reconstruction = %s", out)
	}
	txt, _ := s.DeepText(nil, nil, 1)
	if string(txt) != "hello bold world" {
		t.Fatalf("DeepText = %q", txt)
	}
}

// TestIsAncestor: the pre/post interval test a <= d <= end(a), on the
// subtree ends SubtreeEndBulk reads for just the nodes asked about.
func TestIsAncestor(t *testing.T) {
	s := loadTiny(t)
	people := s.Sum.Lookup("/site/people").Extent[0]
	person := s.Sum.Lookup("/site/people/person").Extent[0]
	name := s.Sum.Lookup("/site/people/person/name").Extent[0]
	ids := []NodeID{1, people, person, name}
	ends := make([]NodeID, len(ids))
	s.SubtreeEndBulk(ids, ends)
	isAncestor := func(a, d NodeID) bool {
		i := slices.Index(ids, a)
		return a <= d && d <= ends[i]
	}
	if !isAncestor(people, name) || !isAncestor(person, name) || !isAncestor(1, name) {
		t.Fatal("ancestor test failed")
	}
	auction := s.Sum.Lookup("/site/closed_auctions").Extent[0]
	if isAncestor(people, auction) || isAncestor(name, person) {
		t.Fatal("false ancestorship")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := loadTiny(t)
	sn := s.Sum.Lookup("/site/people")
	if sn.Count != 1 {
		t.Fatalf("people count = %d", sn.Count)
	}
}

func TestValueShareAgainstParser(t *testing.T) {
	// The container payload relates to the parser's value accounting.
	st, err := xmlparser.CollectStats([]byte(tinyDoc))
	if err != nil {
		t.Fatal(err)
	}
	s := loadTiny(t)
	total := 0
	for _, c := range s.Containers {
		for i := 0; i < c.Len(); i++ {
			v, _ := c.Decode(nil, i)
			total += len(v)
		}
	}
	if total != st.ValueBytes {
		t.Fatalf("container plaintext bytes %d != parser value bytes %d", total, st.ValueBytes)
	}
}

func TestHuTuckerPlan(t *testing.T) {
	plan := &CompressionPlan{DefaultAlgorithm: AlgHuTucker}
	s, err := Load([]byte(tinyDoc), LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.ContainerByPath("/site/people/person/name/#text")
	if c.Codec().Name() != "hutucker" {
		t.Fatalf("codec = %s", c.Codec().Name())
	}
	lo, hi, err := c.FindRange([]byte("Alice"), true, []byte("Bob"), true)
	if err != nil || hi-lo != 2 {
		t.Fatalf("hutucker range: [%d,%d) %v", lo, hi, err)
	}
}

func TestEmptyAttributeValue(t *testing.T) {
	s, err := Load([]byte(`<a x=""><b>v</b></a>`), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Serialize(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `x=""`) {
		t.Fatalf("empty attribute lost: %s", out)
	}
}

func TestFindRangeDecoding(t *testing.T) {
	plan := &CompressionPlan{DefaultAlgorithm: AlgHuffman}
	s, err := Load([]byte(tinyDoc), LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.ContainerByPath("/site/people/person/name/#text")
	// Huffman is order-agnostic: FindRange answers by decoding its way
	// through the plaintext-sorted records.
	lo, hi, err := c.FindRange([]byte("Alice"), true, []byte("Bob"), true)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo != 2 {
		t.Fatalf("names in [Alice,Bob]: %d", hi-lo)
	}
	var got []string
	for i := lo; i < hi; i++ {
		v, _ := c.Decode(nil, i)
		got = append(got, string(v))
	}
	if got[0] != "Alice" || got[1] != "Bob" {
		t.Fatalf("range values = %v", got)
	}
	// Unbounded ranges.
	lo, hi, err = c.FindRange(nil, true, nil, true)
	if err != nil || hi-lo != c.Len() {
		t.Fatalf("full range = [%d,%d) of %d (%v)", lo, hi, c.Len(), err)
	}
	// Exclusive bounds.
	lo, hi, err = c.FindRange([]byte("Alice"), false, []byte("Carol"), false)
	if err != nil || hi-lo != 1 {
		t.Fatalf("(Alice,Carol) = %d (%v)", hi-lo, err)
	}
}
