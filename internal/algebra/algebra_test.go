package algebra

import (
	"strings"
	"testing"

	"xquec/internal/storage"
)

const testDoc = `<site>
  <people>
    <person id="p0"><name>Alice</name><age>30</age></person>
    <person id="p1"><name>Bob</name><age>25</age></person>
    <person id="p2"><name>Alice</name><age>41</age></person>
  </people>
  <auctions>
    <auction><buyer person="p1"/><price>10</price></auction>
    <auction><buyer person="p0"/><price>55</price></auction>
    <auction><buyer person="p0"/><price>31</price></auction>
  </auctions>
</site>`

func load(t *testing.T, plan *storage.CompressionPlan) *storage.Store {
	t.Helper()
	s, err := storage.Load([]byte(testDoc), storage.LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func extent(t *testing.T, s *storage.Store, path string) NodeSet {
	t.Helper()
	sn := s.Sum.Lookup(path)
	if sn == nil {
		t.Fatalf("no summary node for %s", path)
	}
	return NodeSet(sn.Extent)
}

func tags(s *storage.Store, in NodeSet) string {
	var out []string
	for _, id := range in {
		out = append(out, s.TagOf(id))
	}
	return strings.Join(out, ",")
}

func TestSummaryAccessMergesExtents(t *testing.T) {
	s := load(t, nil)
	people := s.Sum.Lookup("/site/people/person")
	auctions := s.Sum.Lookup("/site/auctions/auction")
	got := SummaryAccess([]*storage.SummaryNode{auctions, people})
	if len(got) != 6 {
		t.Fatalf("got %d nodes", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("not document-ordered")
		}
	}
}

func TestChildAndParent(t *testing.T) {
	s := load(t, nil)
	persons := extent(t, s, "/site/people/person")
	names := Child(s, persons, "name")
	if len(names) != 3 || tags(s, names) != "name,name,name" {
		t.Fatalf("names = %v", tags(s, names))
	}
	all := Child(s, persons, "")
	if len(all) != 6 { // name+age per person; @id excluded
		t.Fatalf("all children = %v", tags(s, all))
	}
	attrs := Child(s, persons, "@id")
	if len(attrs) != 3 {
		t.Fatalf("attrs = %v", tags(s, attrs))
	}
	back := Parent(s, names)
	if len(back) != 3 || tags(s, back) != "person,person,person" {
		t.Fatalf("parents = %v", tags(s, back))
	}
	if got := Child(s, persons, "zzz"); got != nil {
		t.Fatalf("unknown tag should give nil, got %v", got)
	}
}

func TestDescendantsAndSemiJoin(t *testing.T) {
	s := load(t, nil)
	site := extent(t, s, "/site")
	names := extent(t, s, "/site/people/person/name")
	desc := Descendants(s, site, names)
	if len(desc) != 3 {
		t.Fatalf("descendants = %d", len(desc))
	}
	people := extent(t, s, "/site/people")
	auctionPrices := extent(t, s, "/site/auctions/auction/price")
	if got := Descendants(s, people, auctionPrices); len(got) != 0 {
		t.Fatalf("prices are not under people: %v", got)
	}
	persons := extent(t, s, "/site/people/person")
	withNames := SemiJoinAncestor(s, persons, names)
	if len(withNames) != 3 {
		t.Fatalf("semijoin = %d", len(withNames))
	}
}

func TestMapToAncestorIn(t *testing.T) {
	s := load(t, nil)
	persons := extent(t, s, "/site/people/person")
	ages := extent(t, s, "/site/people/person/age")
	pairs := MapToAncestorIn(s, persons, ages)
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if s.TagOf(p.A) != "person" || s.TagOf(p.B) != "age" {
			t.Fatalf("pair tags %s/%s", s.TagOf(p.A), s.TagOf(p.B))
		}
		if !s.IsAncestor(p.A, p.B) {
			t.Fatal("not an ancestor")
		}
	}
}

func TestContEq(t *testing.T) {
	s := load(t, nil)
	c, _ := s.ContainerByPath("/site/people/person/name/#text")
	owners, err := ContEq(c, []byte("Alice"))
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 2 {
		t.Fatalf("Alice owners = %d", len(owners))
	}
	owners, _ = ContEq(c, []byte("Nobody"))
	if len(owners) != 0 {
		t.Fatal("ghost match")
	}
}

func TestContRangeTypedAndFallback(t *testing.T) {
	s := load(t, nil)
	prices, _ := s.ContainerByPath("/site/auctions/auction/price/#text")
	// int container: compressed-domain range
	got, err := ContRange(prices, []byte("30"), true, []byte("60"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("prices in [30,60]: %d", len(got))
	}
	// huffman container: fallback decompressing scan
	plan := &storage.CompressionPlan{DefaultAlgorithm: storage.AlgHuffman}
	s2, err := storage.Load([]byte(testDoc), storage.LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	names, _ := s2.ContainerByPath("/site/people/person/name/#text")
	got2, err := ContRange(names, []byte("Alice"), true, []byte("Bob"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 {
		t.Fatalf("names in [Alice,Bob): %d", len(got2))
	}
}

func TestContFilter(t *testing.T) {
	s := load(t, nil)
	c, _ := s.ContainerByPath("/site/people/person/name/#text")
	owners, err := ContFilter(c, func(p []byte) bool { return strings.Contains(string(p), "li") })
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 2 {
		t.Fatalf("contains 'li': %d", len(owners))
	}
}

func TestMergeJoinRequiresSharedModel(t *testing.T) {
	s := load(t, nil)
	ids, _ := s.ContainerByPath("/site/people/person/@id")
	refs, _ := s.ContainerByPath("/site/auctions/auction/buyer/@person")
	// Default plan: separate models -> merge join must refuse.
	if _, err := MergeJoinContainers(ids, refs); err != storage.ErrNeedsDecompression {
		t.Fatalf("expected ErrNeedsDecompression, got %v", err)
	}
	// Hash join works regardless.
	pairs, err := HashJoinContainers(ids, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("hash join pairs = %d", len(pairs))
	}
}

func TestMergeJoinWithSharedModel(t *testing.T) {
	plan := &storage.CompressionPlan{
		Groups: map[string][]string{
			"refs": {"/site/people/person/@id", "/site/auctions/auction/buyer/@person"},
		},
		Algorithms: map[string]string{"refs": storage.AlgALM},
	}
	s := load(t, plan)
	ids, _ := s.ContainerByPath("/site/people/person/@id")
	refs, _ := s.ContainerByPath("/site/auctions/auction/buyer/@person")
	if !SameModel(ids, refs) {
		t.Fatal("plan did not share the model")
	}
	pairs, err := MergeJoinContainers(ids, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("merge join pairs = %d", len(pairs))
	}
	// Same result as the hash join.
	hpairs, _ := HashJoinContainers(ids, refs)
	if len(hpairs) != len(pairs) {
		t.Fatalf("merge %d vs hash %d", len(pairs), len(hpairs))
	}
	// JoinContainers should pick the merge join here.
	_, merged, err := JoinContainers(ids, refs)
	if err != nil || !merged {
		t.Fatalf("JoinContainers merged=%v err=%v", merged, err)
	}
}

func TestJoinDuplicates(t *testing.T) {
	// p0 is bought from twice: the join must produce both pairs.
	plan := &storage.CompressionPlan{
		Groups: map[string][]string{
			"refs": {"/site/people/person/@id", "/site/auctions/auction/buyer/@person"},
		},
		Algorithms: map[string]string{"refs": storage.AlgALM},
	}
	s := load(t, plan)
	ids, _ := s.ContainerByPath("/site/people/person/@id")
	refs, _ := s.ContainerByPath("/site/auctions/auction/buyer/@person")
	pairs, _ := MergeJoinContainers(ids, refs)
	count := map[storage.NodeID]int{}
	for _, p := range pairs {
		count[p.A]++
	}
	var hist []int
	for _, c := range count {
		hist = append(hist, c)
	}
	if len(pairs) != 3 || len(count) != 2 {
		t.Fatalf("pairs=%v hist=%v", pairs, hist)
	}
}

func TestTextContent(t *testing.T) {
	s := load(t, nil)
	names := extent(t, s, "/site/people/person/name")
	var texts []string
	err := TextContentEach(s, names, func(text string) bool {
		texts = append(texts, text)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(texts, ",") != "Alice,Bob,Alice" {
		t.Fatalf("texts = %v", texts)
	}
}

func TestSetHelpers(t *testing.T) {
	a := NodeSet{1, 3, 5}
	b := NodeSet{2, 3, 5, 9}
	u := MergeUnion(a, b)
	if len(u) != 5 || u[0] != 1 || u[4] != 9 {
		t.Fatalf("union = %v", u)
	}
	su := SortUnique([]storage.NodeID{5, 1, 5, 3, 1})
	if len(su) != 3 || su[0] != 1 || su[2] != 5 {
		t.Fatalf("sortunique = %v", su)
	}
	if MergeUnion() != nil {
		t.Fatal("empty union")
	}
}
