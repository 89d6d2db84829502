package engine_test

import (
	"context"
	"regexp"
	"slices"
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/partition"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

// cardListed matches what the listing says of a cardinality rule.
var cardListed = regexp.MustCompile(`(count|empty|exists)( of the FOR's domain)? (= \d+ at compile|from reach spans|from record spans)|LETCUR|WHERE +dropped`)

// cardCase is a query and what its listing must say of the rules: a
// substring, "" for no rule at all (it falls back), "*" for either.
type cardCase struct{ q, listed string }

// cardCases are the shapes of every rule and of the ones that must fall
// back: statically empty paths with and without text(), unions, counts
// from a binding by offsets and one per parent, container ranges on
// string, int and decimal operands with intersections (one empty), an
// operand that repeats under its instance, !=, a LET-FLWOR bound at
// once, with a deferred or a residual conjunct or an ORDER BY, counted
// FORs whose RETURN yields one, none or two items or fails, and a path
// from a number.
func cardCases(name string) []cardCase {
	const (
		persons = `/site/people/person`
		closed  = `/site/closed_auctions/closed_auction`
		open    = `/site/open_auctions/open_auction`
		bought  = `FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id`
	)
	cases := []cardCase{
		{`count(` + persons + `/homepage)`, "count = 0 at compile"},
		{`FOR $p IN ` + persons + ` WHERE empty($p/homepage/text()) RETURN $p/@id`, "WHERE    dropped"},
		{`FOR $p IN ` + persons + ` WHERE exists($p/homepage) RETURN $p/@id`, "exists = 0 at compile"},
		{`count(/site//description)`, " at compile"},
		{`(count(/site//description/text()), count(/site/regions//item/name/text()), exists(/site//item))`, " at compile"},
		{`FOR $b IN ` + open + ` RETURN count($b/bidder)`, "count from reach spans, by extent offsets"},
		{`FOR $b IN ` + open + ` WHERE count($b/bidder) > 0 RETURN $b/@id`, "count from reach spans"},
		{`FOR $p IN ` + persons + ` RETURN (count($p/name), exists($p/profile/@income), empty($p/name/text()))`, "count from reach spans, one per parent"},
		{`FOR $b IN /site/regions RETURN count($b//item/name)`, "count from reach spans"},
		{`FOR $i IN /site/regions//item RETURN count($i/description/text/text())`, "*"},
		{`FOR $p IN ` + persons + ` LET $w := $p/watches/watch RETURN count($w)`, ""},
		{persons + `[count(watches/watch) > 1]/@id`, ""},
		{`FOR $x IN (1, 2) RETURN empty($x/a)`, ""},
		{`count(` + persons + `/profile[@income >= 65000])`, "count from record spans"},
		{`count(` + persons + `/profile[@income >= 30000 AND @income < 65000])`, "2 conjuncts intersected"},
		{`count(` + persons + `/profile[@income >= 65000 AND @income < 30000])`, "2 conjuncts intersected"},
		{`count(` + persons + `/profile[@income = 40000 AND @income >= 1])`, "2 conjuncts intersected"},
		{`count(` + persons + `/profile[@income != 40000])`, ""},
		{`count(` + open + `[bidder/increase >= 10])`, ""},
		{`count(` + persons + `/profile[age >= 30])`, "count from record spans"},
		{`count(` + persons + `/profile[age = 30])`, "count from record spans"},
		{`count(` + closed + `[price >= 40])`, "count from record spans"},
		{`count(` + persons + `[name >= "M" AND name < "S"])`, "2 conjuncts intersected"},
		{`count(` + persons + `[name = "` + name + `"])`, "count from record spans"},
		{`count(` + persons + `[name = "` + name + `" AND name >= "A"])`, "2 conjuncts intersected"},
		{`count(` + persons + `[@id = "person3"])`, "count from record spans"},
		{`count(` + persons + `[@id = "person3"]/text())`, "count = 0 at compile"},
		{`exists(` + persons + `/profile[@income >= 0]/text())`, "exists = 0 at compile"},
		{`FOR $p IN ` + persons + ` LET $a := ` + bought + ` RETURN $t RETURN <n>{count($a)}</n>`, "LETCUR"},
		{`FOR $p IN ` + persons + ` LET $a := ` + bought + ` AND $t/price >= 100 RETURN $t RETURN <n>{count($a)}</n>`, "LETCUR"},
		{`FOR $p IN ` + persons + ` LET $a := ` + bought + ` AND $t/price[1] >= 100 RETURN $t RETURN <n>{count($a)}</n>`, "LETCUR"},
		{`FOR $p IN ` + persons + ` LET $a := ` + bought + ` AND number($t/price) > 100 RETURN $t RETURN <n>{count($a)}</n>`, ""},
		{`FOR $p IN ` + persons + ` LET $a := ` + bought + ` ORDER BY $t/price RETURN $t RETURN <n>{count($a)}</n>`, ""},
		{`FOR $p IN ` + persons + ` LET $a := FOR $a IN ` + closed + ` WHERE $a/buyer/@person = $p/@id RETURN $a RETURN <n>{count($a)}{$a/price/text()}</n>`, "LETCUR"},
		{`count(FOR $i IN ` + closed + ` RETURN $i)`, "count of the FOR's domain = "},
		{`count(FOR $i IN ` + closed + ` WHERE $i/price >= 40 AND $i/price < 100 RETURN $i/seller/@person)`, "count of the FOR's domain from record spans"},
		{`exists(FOR $i IN ` + closed + ` WHERE $i/price >= 400 RETURN $i)`, "exists of the FOR's domain from record spans"},
		{`count(FOR $i IN ` + closed + ` WHERE $i/price[1] >= 100 RETURN $i)`, ""},
		{`count(FOR $i IN ` + open + ` RETURN $i/bidder)`, ""},
		{`count(FOR $i IN ` + closed + ` RETURN ($i, $i))`, ""},
		{`FOR $p IN ` + persons + ` RETURN (count(` + bought + ` RETURN number($t/price) mod 0), $p/name/text())`, ""},
	}
	for _, q := range []string{xmarkq.Q3, xmarkq.Q5, xmarkq.Q6, xmarkq.Q7, xmarkq.Q8, xmarkq.Q17, xmarkq.Q20} {
		cases = append(cases, cardCase{q, "*"})
	}
	return cases
}

// firstName is the first person's name in doc: a string an equality
// restrict finds.
func firstName(doc []byte) string {
	m := regexp.MustCompile(`<person id="person0"><name>([^<]*)</name>`).FindSubmatch(doc)
	return string(m[1])
}

// TestCardinalityMatchesMaterialized holds every cardinality rule to the
// materialized count — the same program compiled with no rule, whose
// count, empty and exists build their argument and take its length — and
// the query's bytes to the DOM reference's, on single repositories under
// ALM, Hu-Tucker and Huffman, a 4-part cut, an appended set and its
// compaction; and each listing to name the rule the case expects, or
// none. On documents where some profiles lack @income or have text, the
// ranges over them fall back.
func TestCardinalityMatchesMaterialized(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 7})
	name := firstName(doc)
	type fixture struct {
		name   string
		s      *storage.Store
		corpus []byte
	}
	var fixtures []fixture
	for _, alg := range []string{storage.AlgALM, storage.AlgHuTucker, storage.AlgHuffman} {
		s, err := storage.Load(doc, storage.LoadOptions{Plan: &storage.CompressionPlan{DefaultAlgorithm: alg}})
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{alg, s, doc})
	}
	fixtures = append(fixtures, fixture{"cut into 4", cutSet(t, doc, 4, 0).Store(), doc})
	docs := [][]byte{doc, datagen.XMark(datagen.XMarkConfig{Scale: 0.02, Seed: 8})}
	corpus, err := partition.Concat(docs...)
	if err != nil {
		t.Fatal(err)
	}
	appended := segmentSet(t, docs, 1)
	compacted, err := appended.Compact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"appended", appended.Store(), corpus}, fixture{"compacted", compacted.Store(), corpus})

	for _, f := range fixtures {
		ref := galaxlike.New(f.corpus)
		ref.ParsePerQuery = false
		for _, c := range cardCases(name) {
			checkCardinality(t, f.name, f.s, ref, c)
		}
	}

	// Profiles rewritten three ways: every fifth without @income, so the
	// operand is missing for some instances and the ranges on it count the
	// instances instead; every third with immediate text, so a text() tail
	// keeps only some of the instances the ranges select, which the rule
	// cannot tell; and every one with text, which it counts by ranges.
	profile := regexp.MustCompile(`<profile income="[^"]*">`)
	for _, v := range []struct {
		name    string
		rewrite func(n int, m []byte) []byte
		queries []string
		listed  string
	}{
		{"some without @income", func(n int, m []byte) []byte {
			if n%5 == 0 {
				return []byte("<profile>")
			}
			return m
		}, []string{
			`count(/site/people/person/profile[@income >= 65000])`,
			`count(/site/people/person/profile[@income >= 30000 AND @income < 65000])`,
			`count(FOR $p IN /site/people/person/profile WHERE $p/@income < 30000 RETURN $p)`,
		}, ""},
		{"some with text", func(n int, m []byte) []byte {
			if n%3 == 0 {
				return append(m, "note"...)
			}
			return m
		}, []string{
			`count(/site/people/person/profile[@income >= 50000]/text())`,
			`exists(/site/people/person/profile[@income >= 0]/text())`,
		}, ""},
		{"all with text", func(_ int, m []byte) []byte {
			return append(m, "note"...)
		}, []string{
			`count(/site/people/person/profile[@income >= 50000]/text())`,
			`count(/site/people/person/profile[@income >= 30000 AND @income < 65000]/text())`,
		}, "count from record spans"},
	} {
		n := 0
		varied := profile.ReplaceAllFunc(doc, func(m []byte) []byte {
			n++
			return v.rewrite(n, slices.Clone(m))
		})
		s, err := storage.Load(varied, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref := galaxlike.New(varied)
		ref.ParsePerQuery = false
		for _, q := range v.queries {
			checkCardinality(t, v.name, s, ref, cardCase{q, v.listed})
		}
	}
}

// checkCardinality runs one case on s: with the rules, materialized and
// on the reference, which must all fail or all agree, and holds the
// listing to c.listed.
func checkCardinality(t *testing.T, fixture string, s *storage.Store, ref *galaxlike.Engine, c cardCase) {
	t.Helper()
	expr, err := xquery.Parse(c.q)
	if err != nil {
		t.Fatalf("parse %s: %v", c.q, err)
	}
	run := func(compile func(xquery.Expr, *storage.Store, string) (*engine.Program, error)) (string, string, error) {
		prog, err := compile(expr, s, c.q)
		if err != nil {
			t.Fatalf("%s: compile %s: %v", fixture, c.q, err)
		}
		res, err := prog.Run(context.Background())
		if err != nil {
			return "", prog.Disassemble(), err
		}
		out, err := res.SerializeXML()
		return out, prog.Disassemble(), err
	}
	got, listing, gerr := run(engine.Compile)
	mat, _, merr := run(engine.CompileMaterialized)
	var want string
	res, werr := ref.Query(c.q)
	if werr == nil {
		want, werr = res.SerializeXML()
	}
	switch {
	case (gerr == nil) != (merr == nil) || (gerr == nil) != (werr == nil):
		t.Errorf("%s: %s\nerrors: rules %v, materialized %v, reference %v\n%s", fixture, c.q, gerr, merr, werr, listing)
	case gerr == nil && (got != mat || got != want):
		t.Errorf("%s: %s\nrules:        %.300q\nmaterialized: %.300q\nreference:    %.300q\n%s", fixture, c.q, got, mat, want, listing)
	}
	switch marks := cardListed.FindAllString(listing, -1); {
	case c.listed == "*":
	case c.listed == "" && len(marks) > 0:
		t.Errorf("%s: %s falls back, but the listing names %q:\n%s", fixture, c.q, marks, listing)
	case c.listed != "" && !strings.Contains(listing, c.listed):
		t.Errorf("%s: %s: listing lacks %q:\n%s", fixture, c.q, c.listed, listing)
	}
}
