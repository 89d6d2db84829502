package costmodel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xquec/internal/storage"
	"xquec/internal/workload"
)

// makeProse builds a prose-valued container sample.
func makeProse(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	words := strings.Fields("the and of to a in that is my it with his be your for have he you not this gold silver")
	var out [][]byte
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for j := 0; j < 8+rng.Intn(8); j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		out = append(out, []byte(sb.String()))
	}
	return out
}

func makeNames(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	first := []string{"Aldo", "Beth", "Carlo", "Dina", "Elio", "Fania"}
	last := []string{"Smith", "Jones", "Rossi", "Weber"}
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, []byte(first[rng.Intn(len(first))]+" "+last[rng.Intn(len(last))]))
	}
	return out
}

func makeCodes(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, []byte{byte('A' + rng.Intn(4)), byte('0' + rng.Intn(10)), byte('0' + rng.Intn(10)), byte('X')})
	}
	return out
}

func info(path string, sample [][]byte) ContainerInfo {
	total := 0
	for _, v := range sample {
		total += len(v)
	}
	return ContainerInfo{Path: path, TotalBytes: total * 4, Count: len(sample) * 4, Sample: sample}
}

func newTestModel(t *testing.T, w *workload.Workload) *Model {
	t.Helper()
	infos := []ContainerInfo{
		info("/a/prose1", makeProse(1, 100)),
		info("/a/prose2", makeProse(2, 100)),
		info("/a/names", makeNames(3, 100)),
		info("/a/codes", makeCodes(4, 100)),
	}
	m, err := NewModel(infos, w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatricesBuilt(t *testing.T) {
	var w workload.Workload
	w.IneqConst("/a/prose1")
	w.EqJoin("/a/names", "/a/codes")
	w.WildConst("/a/names")
	w.Add(workload.Predicate{Kind: workload.Eq, Left: "/a/prose1", Right: "/a/prose2", Weight: 3})
	m := newTestModel(t, &w)
	constIdx := len(m.Containers)
	if m.I[0][constIdx] != 1 || m.I[constIdx][0] != 1 {
		t.Fatalf("I matrix: %v", m.I)
	}
	if m.E[2][3] != 1 || m.E[3][2] != 1 {
		t.Fatalf("E matrix join entry missing")
	}
	if m.D[2][constIdx] != 1 {
		t.Fatalf("D matrix: %v", m.D)
	}
	if m.E[0][1] != 3 {
		t.Fatalf("weights not honoured: E[0][1] = %d", m.E[0][1])
	}
}

func TestSimilarityMatrixProperties(t *testing.T) {
	m := newTestModel(t, &workload.Workload{})
	n := len(m.Containers)
	for i := 0; i < n; i++ {
		if m.F[i][i] != 1 {
			t.Fatalf("F[%d][%d] = %v", i, i, m.F[i][i])
		}
		for j := 0; j < n; j++ {
			if m.F[i][j] != m.F[j][i] {
				t.Fatal("F not symmetric")
			}
			if m.F[i][j] < 0 || m.F[i][j] > 1 {
				t.Fatalf("F out of range: %v", m.F[i][j])
			}
		}
	}
	// The two prose containers must be more similar to each other than
	// either is to the code container.
	if m.F[0][1] <= m.F[0][3] {
		t.Fatalf("prose/prose similarity %v <= prose/codes %v", m.F[0][1], m.F[0][3])
	}
}

func TestInitialConfiguration(t *testing.T) {
	m := newTestModel(t, &workload.Workload{})
	c := m.Initial()
	if len(c.Sets) != len(m.Containers) {
		t.Fatalf("s0 has %d sets", len(c.Sets))
	}
	for _, s := range c.Sets {
		if len(s.Members) != 1 || s.Algorithm != "blob" {
			t.Fatalf("s0 set: %+v", s)
		}
	}
}

func TestDecompressCostCases(t *testing.T) {
	var w workload.Workload
	w.IneqConst("/a/prose1")           // I: container vs const
	w.EqJoin("/a/prose1", "/a/prose2") // E: join
	m := newTestModel(t, &w)

	// blob supports nothing: both predicates pay decompression.
	c0 := m.Initial()
	if m.DecompressCost(c0) <= 0 {
		t.Fatal("blob config must pay decompression")
	}

	// ALM everywhere but separate models: the join still pays (case ii),
	// the constant comparison does not.
	cSep := m.Initial()
	for i := range cSep.Sets {
		cSep.Sets[i].Algorithm = "alm"
	}
	sepCost := m.DecompressCost(cSep)
	if sepCost <= 0 {
		t.Fatal("separate models must pay for the join")
	}

	// ALM with prose1+prose2 sharing one model: everything is free.
	cShared := Config{Sets: []ConfigSet{
		{Members: []int{0, 1}, Algorithm: "alm"},
		{Members: []int{2}, Algorithm: "alm"},
		{Members: []int{3}, Algorithm: "alm"},
	}}
	if got := m.DecompressCost(cShared); got != 0 {
		t.Fatalf("shared capable config should cost 0, got %v", got)
	}
	if sepCost <= m.DecompressCost(cShared) {
		t.Fatal("sharing must be cheaper than separate models for joins")
	}

	// Same model but incapable algorithm (case iii): huffman on ineq.
	var w2 workload.Workload
	w2.IneqJoin("/a/prose1", "/a/prose2")
	m2, err := NewModel(m.Containers, &w2)
	if err != nil {
		t.Fatal(err)
	}
	cHuff := Config{Sets: []ConfigSet{
		{Members: []int{0, 1}, Algorithm: "huffman"},
		{Members: []int{2}, Algorithm: "huffman"},
		{Members: []int{3}, Algorithm: "huffman"},
	}}
	if m2.DecompressCost(cHuff) <= 0 {
		t.Fatal("huffman cannot do inequality in the compressed domain")
	}
}

func TestSearchPicksCapableAlgorithms(t *testing.T) {
	var w workload.Workload
	w.IneqConst("/a/prose1")
	w.IneqConst("/a/prose2")
	w.IneqJoin("/a/prose1", "/a/prose2")
	w.EqConst("/a/names")
	m := newTestModel(t, &w)
	cfg, cost := m.Search(42)
	if cost >= m.Cost(m.Initial()) {
		t.Fatalf("search did not improve on s0: %v vs %v", cost, m.Cost(m.Initial()))
	}
	// prose1's set must support inequality now.
	si := cfg.setOf(0)
	if a := cfg.Sets[si].Algorithm; !m.supports(a, workload.Ineq) {
		t.Fatalf("prose1 compressed with %s, which cannot do ineq", cfg.Sets[si].Algorithm)
	}
	// The join partners should end up sharing a source model (zero
	// decompression for the join), given their high similarity.
	if cfg.setOf(0) != cfg.setOf(1) {
		t.Logf("note: join partners not merged; sets=%v", cfg.Sets)
	}
	if m.DecompressCost(cfg) > m.DecompressCost(m.Initial()) {
		t.Fatal("search increased decompression cost")
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	var w workload.Workload
	w.IneqConst("/a/prose1")
	w.EqJoin("/a/names", "/a/codes")
	m := newTestModel(t, &w)
	c1, cost1 := m.Search(7)
	c2, cost2 := m.Search(7)
	if cost1 != cost2 || len(c1.Sets) != len(c2.Sets) {
		t.Fatal("search not deterministic for a fixed seed")
	}
}

func TestSearchEmptyWorkload(t *testing.T) {
	m := newTestModel(t, &workload.Workload{})
	cfg, _ := m.Search(1)
	if len(cfg.Sets) != len(m.Containers) {
		t.Fatal("empty workload must keep s0")
	}
}

func TestPlanGroups(t *testing.T) {
	var w workload.Workload
	w.IneqConst("/a/prose1")
	m := newTestModel(t, &w)
	cfg, _ := m.Search(3)
	groups, algs := m.PlanGroups(cfg)
	seen := map[string]bool{}
	for g, paths := range groups {
		if algs[g] == "" {
			t.Fatalf("group %s has no algorithm", g)
		}
		for _, p := range paths {
			if seen[p] {
				t.Fatalf("path %s in two groups", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != len(m.Containers) {
		t.Fatalf("plan covers %d of %d containers", len(seen), len(m.Containers))
	}
}

// TestInfos: the cost model's containers are the loader's lists of the
// workload's paths — storage.Parse's, restricted (Values.Textual) — in
// the order their first values appear, with their counts, bytes and
// capped samples; a path is typed only when every value is, as the
// loader decides it, not on a sample.
func TestInfos(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`<site>
		<person id="p0"><name>Alice</name><age>30</age></person>
		<person id="p1"><name>Bob</name><age>31</age></person>
		<auction><price>10.50</price><note>fine old piece</note></auction>`)
	for i := 0; i < MaxSampleValues+88; i++ {
		fmt.Fprintf(&doc, "<n>%d</n>", i)
	}
	doc.WriteString("<n>n/a</n></site>")
	vals, err := storage.Parse([]byte(doc.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	infos := Infos(vals.Textual([]string{
		"/site/n/#text", "/site/auction/note/#text", "/site/person/age/#text",
		"/site/auction/price/#text", "/site/person/name/#text", "/site/person/@id", "/site/nowhere/#text",
	}))
	// The int ages and decimal prices are typed, so left out; the
	// integers under n are followed by n/a, so they are not.
	want := []struct {
		path         string
		count, bytes int
		sample       []string
	}{
		{"/site/person/@id", 2, 4, []string{"p0", "p1"}},
		{"/site/person/name/#text", 2, 8, []string{"Alice", "Bob"}},
		{"/site/auction/note/#text", 1, 14, []string{"fine old piece"}},
	}
	if len(infos) != len(want)+1 {
		t.Fatalf("%d containers, want %d: %v", len(infos), len(want)+1, infos)
	}
	for i, w := range want {
		ci := infos[i]
		if ci.Path != w.path || ci.Count != w.count || ci.TotalBytes != w.bytes || len(ci.Sample) != len(w.sample) {
			t.Fatalf("container %d = %s count %d bytes %d sample %q, want %+v", i, ci.Path, ci.Count, ci.TotalBytes, ci.Sample, w)
		}
		for k, v := range w.sample {
			if string(ci.Sample[k]) != v {
				t.Fatalf("%s sample %q, want %q", ci.Path, ci.Sample, w.sample)
			}
		}
	}
	n := infos[len(want)]
	if n.Path != "/site/n/#text" || n.Count != MaxSampleValues+89 || len(n.Sample) != MaxSampleValues || string(n.Sample[7]) != "7" {
		t.Fatalf("n container: %s count %d sample of %d", n.Path, n.Count, len(n.Sample))
	}
}

// TestRestrict: the search sees only the workload's paths, in the order
// their first values appear in the document whatever order the workload
// names them in; a path the workload names but the document lacks adds
// nothing.
func TestRestrict(t *testing.T) {
	vals, err := storage.Parse([]byte("<r><a>x</a><b>y</b><c>z</c><a>w</a></r>"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := Infos(vals.Textual([]string{"/r/c/#text", "/r/zz/#text", "/r/a/#text"}))
	if len(got) != 2 || got[0].Path != "/r/a/#text" || got[0].Count != 2 || got[1].Path != "/r/c/#text" || got[1].Count != 1 {
		t.Fatalf("restricted infos = %v", got)
	}
	if got := Infos(vals.Textual(nil)); len(got) != 0 {
		t.Fatalf("empty workload kept %v", got)
	}
}

func TestNewModelErrors(t *testing.T) {
	if _, err := NewModel(nil, &workload.Workload{}); err == nil {
		t.Fatal("empty container set accepted")
	}
	dup := []ContainerInfo{{Path: "/a"}, {Path: "/a"}}
	if _, err := NewModel(dup, &workload.Workload{}); err == nil {
		t.Fatal("duplicate paths accepted")
	}
}

func TestStorageCostPenalizesDissimilarSharing(t *testing.T) {
	// The §3 "ab/cd" example: sharing a model between dissimilar
	// containers must cost more than separate models.
	m := newTestModel(t, &workload.Workload{})
	sep := Config{Sets: []ConfigSet{
		{Members: []int{0}, Algorithm: "alm"},
		{Members: []int{3}, Algorithm: "alm"},
		{Members: []int{1}, Algorithm: "alm"},
		{Members: []int{2}, Algorithm: "alm"},
	}}
	shared := Config{Sets: []ConfigSet{
		{Members: []int{0, 3}, Algorithm: "alm"}, // prose with codes: dissimilar
		{Members: []int{1}, Algorithm: "alm"},
		{Members: []int{2}, Algorithm: "alm"},
	}}
	if m.StorageCost(shared) <= m.StorageCost(sep) {
		t.Fatalf("dissimilar sharing should cost more: shared=%v sep=%v",
			m.StorageCost(shared), m.StorageCost(sep))
	}
}
