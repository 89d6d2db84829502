package datagen

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"xquec/internal/xmlparser"
)

func TestXMarkWellFormed(t *testing.T) {
	doc := XMark(XMarkConfig{Scale: 0.2, Seed: 1})
	if _, err := xmlparser.BuildDOM(doc); err != nil {
		t.Fatalf("generated XMark not well-formed: %v", err)
	}
}

func TestXMarkDeterministic(t *testing.T) {
	a := XMark(XMarkConfig{Scale: 0.1, Seed: 42})
	b := XMark(XMarkConfig{Scale: 0.1, Seed: 42})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different documents")
	}
	c := XMark(XMarkConfig{Scale: 0.1, Seed: 43})
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical documents")
	}
}

func TestXMarkSizeScalesLinearly(t *testing.T) {
	small := len(XMark(XMarkConfig{Scale: 0.5, Seed: 7}))
	large := len(XMark(XMarkConfig{Scale: 2, Seed: 7}))
	ratio := float64(large) / float64(small)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("4x scale gave %.1fx bytes (small=%d large=%d)", ratio, small, large)
	}
	// Scale 1 should be in the neighbourhood of 1 MB.
	one := len(XMark(XMarkConfig{Scale: 1, Seed: 7}))
	if one < 500_000 || one > 2_000_000 {
		t.Fatalf("scale 1 size = %d, want ~1MB", one)
	}
}

func TestXMarkSchemaPopulation(t *testing.T) {
	doc, err := xmlparser.BuildDOM(XMark(XMarkConfig{Scale: 0.3, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	doc.Root.Walk(func(n *xmlparser.Node) {
		if n.Kind == xmlparser.NodeElement {
			counts[n.Name]++
		}
	})
	for _, tag := range []string{
		"site", "regions", "europe", "item", "name", "description", "text",
		"categories", "category", "people", "person", "address", "city",
		"profile", "age", "open_auctions", "open_auction", "initial",
		"itemref", "seller", "closed_auctions", "closed_auction", "price",
		"date",
	} {
		if counts[tag] == 0 {
			t.Fatalf("generated document has no <%s> elements", tag)
		}
	}
	if counts["person"] < counts["site"]*10 {
		t.Fatalf("suspiciously few persons: %d", counts["person"])
	}
	// IDREFs must point at existing IDs.
	ids := map[string]bool{}
	doc.Root.Walk(func(n *xmlparser.Node) {
		if id, ok := n.Attr("id"); ok {
			ids[id] = true
		}
	})
	var bad []string
	doc.Root.Walk(func(n *xmlparser.Node) {
		for _, attr := range []string{"person", "item"} {
			if ref, ok := n.Attr(attr); ok && !ids[ref] {
				bad = append(bad, ref)
			}
		}
	})
	if len(bad) > 0 {
		t.Fatalf("dangling IDREFs: %v", bad[:min(5, len(bad))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestXMarkValueShare(t *testing.T) {
	// §1 of the paper: values make up 70-80% of documents. Our generator
	// should land in a broadly similar band (values dominate).
	st, err := xmlparser.CollectStats(XMark(XMarkConfig{Scale: 0.5, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if s := st.ValueShare(); s < 0.30 || s > 0.95 {
		t.Fatalf("value share = %.2f, implausible", s)
	}
}

func TestShakespeareProfile(t *testing.T) {
	d := Shakespeare(200_000, 1)
	if _, err := xmlparser.BuildDOM(d); err != nil {
		t.Fatalf("not well-formed: %v", err)
	}
	if len(d) < 200_000 || len(d) > 400_000 {
		t.Fatalf("size = %d, want >= target", len(d))
	}
	if !bytes.Contains(d, []byte("<SPEECH>")) || !bytes.Contains(d, []byte("<LINE>")) {
		t.Fatal("missing play structure")
	}
	st, _ := xmlparser.CollectStats(d)
	if st.ValueShare() < 0.4 {
		t.Fatalf("Shakespeare substitute should be prose-heavy, value share = %.2f", st.ValueShare())
	}
}

func TestWashingtonCourseProfile(t *testing.T) {
	d := WashingtonCourse(150_000, 2)
	if _, err := xmlparser.BuildDOM(d); err != nil {
		t.Fatalf("not well-formed: %v", err)
	}
	if !bytes.Contains(d, []byte("course-listing")) || !bytes.Contains(d, []byte("instructor")) {
		t.Fatal("missing course structure")
	}
	st, _ := xmlparser.CollectStats(d)
	if st.Attributes == 0 {
		t.Fatal("course substitute must be attribute-heavy")
	}
}

func TestBaseballProfile(t *testing.T) {
	d := Baseball(120_000, 3)
	if _, err := xmlparser.BuildDOM(d); err != nil {
		t.Fatalf("not well-formed: %v", err)
	}
	if !bytes.Contains(d, []byte("<PLAYER>")) || !bytes.Contains(d, []byte("<HOME_RUNS>")) {
		t.Fatal("missing stats structure")
	}
	// Numeric-dominated: many short text values.
	st, _ := xmlparser.CollectStats(d)
	if st.TextNodes < 1000 {
		t.Fatalf("too few stat values: %d", st.TextNodes)
	}
}

func TestRealLifeCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation is sizeable")
	}
	sets := RealLifeCorpus(9, 1)
	if len(sets) != 3 {
		t.Fatalf("got %d datasets", len(sets))
	}
	for _, ds := range sets {
		if _, err := xmlparser.CollectStats(ds.Data); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
	}
	if !(len(sets[0].Data) > len(sets[1].Data) && len(sets[1].Data) > len(sets[2].Data)) {
		t.Fatal("expected Shakespeare > WashingtonCourse > Baseball sizes")
	}
}

func TestIsoDateFormat(t *testing.T) {
	rng := newTestRand()
	for i := 0; i < 100; i++ {
		d := isoDate(rng)
		if len(d) != 10 || d[4] != '-' || d[7] != '-' {
			t.Fatalf("bad date %q", d)
		}
	}
}

func TestAppendIntPadding(t *testing.T) {
	if got := string(appendInt(nil, 7, 2)); got != "07" {
		t.Fatalf("appendInt(7,2) = %q", got)
	}
	if got := string(appendInt(nil, 0, 2)); got != "00" {
		t.Fatalf("appendInt(0,2) = %q", got)
	}
	if got := string(appendInt(nil, 1234, 2)); got != "1234" {
		t.Fatalf("appendInt(1234,2) = %q", got)
	}
}

func TestSentenceShape(t *testing.T) {
	rng := newTestRand()
	s := string(sentence(nil, rng, 5))
	if !strings.HasSuffix(s, ".") {
		t.Fatalf("sentence %q must end with a period", s)
	}
	if s[0] < 'A' || s[0] > 'Z' {
		t.Fatalf("sentence %q must start uppercase", s)
	}
	if got := len(strings.Fields(s)); got != 5 {
		t.Fatalf("sentence has %d words, want 5", got)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }
