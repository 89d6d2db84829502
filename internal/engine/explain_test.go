package engine_test

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

// The plan of a query is its compiled program's listing: these tests
// assert on it the decisions the executor makes.

func loadPlan(t *testing.T, doc string, plan *storage.CompressionPlan) *storage.Store {
	t.Helper()
	s, err := storage.Load([]byte(doc), storage.LoadOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// explain parses q and compiles it against s, returning its listing.
func explain(s *storage.Store, q string) (string, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return "", err
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		return "", err
	}
	return prog.Disassemble(), nil
}

// listing is explain that fails the test on an error or on a listing
// that lacks one of want.
func listing(t *testing.T, s *storage.Store, q string, want ...string) string {
	t.Helper()
	dis, err := explain(s, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, w := range want {
		if !strings.Contains(dis, w) {
			t.Errorf("%s: listing lacks %q:\n%s", q, w, dis)
		}
	}
	return dis
}

// items runs q and counts its items.
func items(t *testing.T, s *storage.Store, q string) int {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// TestExplainSummaryAccess: a path is read off the summary, with the
// number of nodes its extents hold. A text() tail lists the owners of
// its text, and returns their texts; a relative path names the
// navigation its bindings make.
func TestExplainSummaryAccess(t *testing.T) {
	s := loadPlan(t, engine.PeopleDoc, nil)
	listing(t, s, `/site/people/person/name`, "SCAN", "StructureSummaryAccess /site/people/person/name (3 nodes)")
	dis := listing(t, s, `/site/people/person/name/text()`, "StructureSummaryAccess /site/people/person/name (3 nodes), text()")
	if strings.Contains(dis, "statically empty") {
		t.Errorf("a text() tail with owners is listed statically empty:\n%s", dis)
	}
	if n := items(t, s, `/site/people/person/name/text()`); n != 3 {
		t.Errorf("name/text() returns %d items, want 3", n)
	}
	listing(t, s, `FOR $p IN /site/people/person RETURN $p/name/text()`,
		"EVAL", "summary-guided navigation /site/people/person/name (3 nodes)")
}

// TestExplainStaticallyEmpty: a path that reaches no summary node is
// statically empty, with or without a text() tail, and returns nothing.
func TestExplainStaticallyEmpty(t *testing.T) {
	s := loadPlan(t, engine.PeopleDoc, nil)
	for _, q := range []string{`/site/nowhere/nothing`, `/site/nowhere/text()`} {
		listing(t, s, q, "statically empty")
		if n := items(t, s, q); n != 0 {
			t.Errorf("%s returns %d items, want 0", q, n)
		}
	}
}

// TestExplainLitPushdown: a range on a decimal container is answered on
// the compressed bytes.
func TestExplainLitPushdown(t *testing.T) {
	s := loadPlan(t, engine.PeopleDoc, nil)
	listing(t, s, `FOR $a IN /site/auctions/auction WHERE $a/price >= 30 RETURN $a/note/text()`,
		"LITREST", "/site/auctions/auction/price/#text[decimal](3 recs) ContAccess range on compressed bytes")
}

// TestExplainJoinStrategies: a join index over separate models is a hash
// join; over a shared model, a merge join on the compressed bytes.
func TestExplainJoinStrategies(t *testing.T) {
	q := `FOR $p IN /site/people/person
	      LET $a := FOR $t IN /site/auctions/auction WHERE $t/buyer/@person = $p/@id RETURN $t
	      RETURN count($a)`
	listing(t, loadPlan(t, engine.PeopleDoc, nil), q, "JOINREST", "index built at compile",
		"MergeJoin on decoded values: /site/auctions/auction/buyer/@person ⋈ /site/people/person/@id")
	shared := &storage.CompressionPlan{
		Groups:     map[string][]string{"refs": {"/site/people/person/@id", "/site/auctions/auction/buyer/@person"}},
		Algorithms: map[string]string{"refs": storage.AlgALM},
	}
	listing(t, loadPlan(t, engine.PeopleDoc, shared), q,
		"MergeJoin on compressed bytes (shared source model): /site/auctions/auction/buyer/@person ⋈ /site/people/person/@id")
}

// TestExplainResidualAndCtor: contains() with a literal is a container
// scan of the note texts, decoding each record; string-length() stays a
// per-tuple WHERE, compared as numbers; the RETURN constructor is an
// emission template.
func TestExplainResidualAndCtor(t *testing.T) {
	s := loadPlan(t, engine.PeopleDoc, nil)
	dis := listing(t, s, `FOR $a IN /site/auctions/auction
	                      WHERE contains($a/note, "gold") AND string-length($a/note) > 3
	                      RETURN <hit id="{$a/@id}"/>`,
		`LITREST  c0, p0          ; contains($a/note, "gold") ; conts /site/auctions/auction/note/#text[`,
		"ContScan decoding every record",
		"EMITCTOR", `<hit id={...}>`)
	where := regexp.MustCompile(`(?m)^.*WHERE .*$`).FindString(dis)
	for _, w := range []string{"(string-length($a/note) > 3)", "as numbers", "summary-guided navigation /site/auctions/auction/note (3 nodes)"} {
		if !strings.Contains(where, w) {
			t.Errorf("WHERE line lacks %q:\n%s", w, dis)
		}
	}
	// A comparison with a path is not made as numbers.
	dis = listing(t, s, `FOR $p IN /site/people/person WHERE count($p/name) = $p/age RETURN 1`, "WHERE")
	if strings.Contains(dis, "as numbers") {
		t.Errorf("a string comparison is listed as numbers:\n%s", dis)
	}
}

// TestExplainBenchmarkQueriesDoNotError: every benchmark query compiles
// and lists, also against a document of another schema.
func TestExplainBenchmarkQueriesDoNotError(t *testing.T) {
	s := loadPlan(t, engine.PeopleDoc, nil)
	for _, q := range xmarkq.Queries() {
		dis, err := explain(s, q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if !strings.Contains(dis, "HALT") {
			t.Errorf("%s: listing without HALT:\n%s", q.ID, dis)
		}
	}
}

func TestExplainParseError(t *testing.T) {
	s := loadPlan(t, engine.PeopleDoc, nil)
	if _, err := explain(s, `for $x in`); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestExplainJoinStrategyPerPair: a join whose side spans two containers
// runs one strategy per container pair, and the listing names each
// pair's when they differ.
func TestExplainJoinStrategyPerPair(t *testing.T) {
	doc := `<r><a><x ref="p1"/></a><b><x ref="p2"/></b><p id="p1"/><p id="p2"/></r>`
	half := &storage.CompressionPlan{
		Groups:     map[string][]string{"refs": {"/r/a/x/@ref", "/r/p/@id"}},
		Algorithms: map[string]string{"refs": storage.AlgALM},
	}
	listing(t, loadPlan(t, doc, half),
		`FOR $p IN /r/p LET $a := FOR $t IN /r//x WHERE $t/@ref = $p/@id RETURN $t RETURN count($a)`,
		"; mixed: ",
		"MergeJoin on compressed bytes (shared source model): /r/a/x/@ref ⋈ /r/p/@id",
		"MergeJoin on decoded values: /r/b/x/@ref ⋈ /r/p/@id")
}
