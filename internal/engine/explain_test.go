package engine

import (
	"strings"
	"testing"

	"xquec/internal/storage"
	"xquec/internal/xmarkq"
)

func TestExplainSummaryAccess(t *testing.T) {
	e := newEngine(t, peopleDoc)
	out, err := e.Explain(`/site/people/person/name`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "StructureSummaryAccess") || !strings.Contains(out, "(3 nodes)") {
		t.Fatalf("explain = %s", out)
	}
}

func TestExplainLitPushdown(t *testing.T) {
	e := newEngine(t, peopleDoc)
	out, err := e.Explain(`FOR $p IN /site/people/person WHERE $p/age >= 30 RETURN $p/name/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pushdown") || !strings.Contains(out, "ContAccess range on compressed bytes") {
		t.Fatalf("explain = %s", out)
	}
}

func TestExplainJoinStrategies(t *testing.T) {
	q := `FOR $p IN /site/people/person
	      LET $a := FOR $t IN /site/auctions/auction WHERE $t/buyer/@person = $p/@id RETURN $t
	      RETURN count($a)`
	// Default plan: separate models -> hash join.
	e := newEngine(t, peopleDoc)
	out, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "HashJoin") {
		t.Fatalf("explain = %s", out)
	}
	// Shared model -> merge join.
	plan := &storage.CompressionPlan{
		Groups: map[string][]string{
			"refs": {"/site/people/person/@id", "/site/auctions/auction/buyer/@person"},
		},
		Algorithms: map[string]string{"refs": storage.AlgALM},
	}
	s, err := storage.Load([]byte(peopleDoc), storage.LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := New(s).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "MergeJoin on compressed bytes") {
		t.Fatalf("explain = %s", out2)
	}
}

func TestExplainResidualAndCtor(t *testing.T) {
	e := newEngine(t, peopleDoc)
	out, err := e.Explain(`FOR $a IN /site/auctions/auction
	                       WHERE contains($a/note, "gold")
	                       RETURN <hit id="{$a/@id}"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "residual") || !strings.Contains(out, "Construct <hit>") {
		t.Fatalf("explain = %s", out)
	}
}

func TestExplainStaticallyEmpty(t *testing.T) {
	e := newEngine(t, peopleDoc)
	out, err := e.Explain(`/site/nowhere/nothing`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "statically empty") {
		t.Fatalf("explain = %s", out)
	}
}

func TestExplainBenchmarkQueriesDoNotError(t *testing.T) {
	e := newEngine(t, peopleDoc) // schema mismatch is fine: explain is static
	for _, q := range xmarkq.Queries() {
		if _, err := e.Explain(q.Text); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
}

func TestExplainParseError(t *testing.T) {
	e := newEngine(t, peopleDoc)
	if _, err := e.Explain(`for $x in`); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestExplainJoinStrategyPerPair: a join whose side spans two containers
// runs one strategy per container pair (JoinContainers), and explain
// reports each pair's when they differ.
func TestExplainJoinStrategyPerPair(t *testing.T) {
	doc := `<r><a><x ref="p1"/></a><b><x ref="p2"/></b><p id="p1"/><p id="p2"/></r>`
	plan := &storage.CompressionPlan{
		Groups:     map[string][]string{"refs": {"/r/a/x/@ref", "/r/p/@id"}},
		Algorithms: map[string]string{"refs": storage.AlgALM},
	}
	s, err := storage.Load([]byte(doc), storage.LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(s).Explain(`FOR $p IN /r/p LET $a := FOR $t IN /r//x WHERE $t/@ref = $p/@id RETURN $t RETURN count($a)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"-> mixed: ",
		"MergeJoin on compressed bytes (shared source model): /r/a/x/@ref ⋈ /r/p/@id",
		"HashJoin (decompress both sides): /r/b/x/@ref ⋈ /r/p/@id",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain lacks %q:\n%s", want, out)
		}
	}
}
