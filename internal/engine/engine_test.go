package engine_test

import (
	"strings"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xmarkq"
	"xquec/internal/xquery"
)

func newStore(t *testing.T, doc string) *storage.Store {
	t.Helper()
	s, err := storage.Load([]byte(doc), storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// query parses q, compiles it against s and runs it serially, returning
// its serialization.
func query(s *storage.Store, q string) (string, error) {
	return queryPar(s, q, 1)
}

// queryPar is query with a worker budget.
func queryPar(s *storage.Store, q string, par int) (string, error) {
	expr, err := xquery.Parse(q)
	if err != nil {
		return "", err
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		return "", err
	}
	res, err := prog.Run(engine.RunOptions{Parallelism: par})
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

func run(t *testing.T, s *storage.Store, q string) string {
	t.Helper()
	out, err := query(s, q)
	if err != nil {
		t.Fatalf("query(%s): %v", q, err)
	}
	return out
}

// reference evaluates q with the DOM reference evaluator.
func reference(t *testing.T, doc []byte, q string) string {
	t.Helper()
	res, err := galaxlike.New(doc).Query(q)
	if err != nil {
		t.Fatalf("reference: %s: %v", q, err)
	}
	out, err := res.SerializeXML()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSimplePaths(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	if got := run(t, s, `document("d")/site/people/person/name/text()`); got != "Alice\nBob\nCarol" {
		t.Fatalf("names = %q", got)
	}
	if got := run(t, s, `/site/people/person/@id`); !strings.Contains(got, `id="p1"`) {
		t.Fatalf("ids = %q", got)
	}
	if got := run(t, s, `count(/site//person)`); got != "3" {
		t.Fatalf("count = %q", got)
	}
	if got := run(t, s, `/site/*/auction/@id`); !strings.Contains(got, "a2") {
		t.Fatalf("wildcard = %q", got)
	}
}

func TestAttributePredicateFastPath(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `FOR $b IN /site/people/person[@id = "p1"] RETURN $b/name/text()`)
	if got != "Bob" {
		t.Fatalf("got %q", got)
	}
	if got := run(t, s, `FOR $b IN /site/people/person[@id = "nope"] RETURN $b`); got != "" {
		t.Fatalf("ghost person: %q", got)
	}
}

func TestRangePredicateOnTypedContainer(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `FOR $p IN /site/people/person WHERE $p/age >= 30 RETURN $p/name/text()`)
	if got != "Alice\nCarol" {
		t.Fatalf("ages >= 30: %q", got)
	}
	got = run(t, s, `count(FOR $a IN /site/auctions/auction WHERE $a/price >= 31 RETURN $a)`)
	if got != "2" {
		t.Fatalf("prices >= 31: %q", got)
	}
	// decimal literal against decimal container
	got = run(t, s, `count(FOR $a IN /site/auctions/auction WHERE $a/price = 10.5 RETURN $a)`)
	if got != "1" {
		t.Fatalf("price = 10.5: %q", got)
	}
}

func TestPositionalPredicates(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `/site/people/person[1]/name/text()`)
	if got != "Alice" {
		t.Fatalf("[1] = %q", got)
	}
	got = run(t, s, `/site/people/person[last()]/name/text()`)
	if got != "Carol" {
		t.Fatalf("[last()] = %q", got)
	}
	got = run(t, s, `/site/people/person[7]/name/text()`)
	if got != "" {
		t.Fatalf("[7] = %q", got)
	}
}

func TestJoinThroughIndex(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	q := `FOR $p IN /site/people/person
	      LET $a := FOR $t IN /site/auctions/auction WHERE $t/buyer/@person = $p/@id RETURN $t
	      RETURN <bought name="{$p/name/text()}">{count($a)}</bought>`
	before := engine.JoinIndexBuilds()
	got := run(t, s, q)
	want := `<bought name="Alice">2</bought>
<bought name="Bob">1</bought>
<bought name="Carol">0</bought>`
	if got != want {
		t.Fatalf("join result:\n%s\nwant:\n%s", got, want)
	}
	// The join index must have been built (and only once).
	if n := engine.JoinIndexBuilds() - before; n != 1 {
		t.Fatalf("join indexes built = %d, want 1", n)
	}
}

func TestConstructorsAndSequences(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `<wrap n="{count(/site/people/person)}"><inner/>text</wrap>`)
	if got != `<wrap n="3"><inner/>text</wrap>` {
		t.Fatalf("ctor = %q", got)
	}
	got = run(t, s, `("a", 1 + 1, "b")`)
	if got != "a\n2\nb" {
		t.Fatalf("seq = %q", got)
	}
}

func TestSubtreeSerialization(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `FOR $p IN /site/people/person[@id = "p0"] RETURN $p`)
	want := `<person id="p0"><name>Alice</name><age>30</age><city>Rome</city></person>`
	if got != want {
		t.Fatalf("subtree = %q", got)
	}
}

func TestContainsAndFunctions(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `FOR $a IN /site/auctions/auction WHERE contains($a/note, "gold") RETURN $a/@id`)
	if !strings.Contains(got, "a0") || !strings.Contains(got, "a2") || strings.Contains(got, "a1") {
		t.Fatalf("contains: %q", got)
	}
	if got := run(t, s, `sum(/site/auctions/auction/price)`); got != "96.75" {
		t.Fatalf("sum = %q", got)
	}
	if got := run(t, s, `avg(/site/people/person/age)`); got != "32" {
		t.Fatalf("avg = %q", got)
	}
	if got := run(t, s, `min(/site/people/person/age)`); got != "25" {
		t.Fatalf("min = %q", got)
	}
	if got := run(t, s, `string-join(distinct-values(/site/people/person/city/text()), "|")`); got != "Rome|Paris" {
		t.Fatalf("distinct = %q", got)
	}
	if got := run(t, s, `starts-with(/site/people/person[1]/name/text(), "Al")`); got != "true" {
		t.Fatalf("starts-with = %q", got)
	}
	if got := run(t, s, `if (count(/site/people/person) > 2) then "many" else "few"`); got != "many" {
		t.Fatalf("if = %q", got)
	}
}

func TestOrderBy(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `FOR $p IN /site/people/person ORDER BY $p/age RETURN $p/name/text()`)
	if got != "Bob\nAlice\nCarol" {
		t.Fatalf("order by age = %q", got)
	}
	// Names sort Alice, Bob, Carol -> ages 30, 25, 41.
	got = run(t, s, `FOR $p IN /site/people/person ORDER BY $p/name RETURN $p/age/text()`)
	if got != "30\n25\n41" {
		t.Fatalf("order by name = %q", got)
	}
}

func TestErrors(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	for _, q := range []string{
		`$undefined`,
		`unknownfn(1)`,
		`sum(/site/people/person/name)`, // non-numeric aggregate
		`1 + /site/people/person`,       // arithmetic over sequence
	} {
		if _, err := query(s, q); err == nil {
			t.Fatalf("no error for %q", q)
		}
	}
}

// TestDifferentialXMark is the semantic anchor: every benchmark query
// must produce byte-identical output on the compressed engine and on
// the uncompressed DOM reference evaluator.
func TestDifferentialXMark(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.08, Seed: 21})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range xmarkq.Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			gs := run(t, s, q.Text)
			if ws := reference(t, doc, q.Text); gs != ws {
				t.Fatalf("results differ\nengine:\n%.600s\nreference:\n%.600s", gs, ws)
			}
		})
	}
}

// TestDifferentialWithPlans re-runs the differential suite under
// different compression plans: the semantics must not depend on the
// chosen algorithms.
func TestDifferentialWithPlans(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 22})
	plans := map[string]*storage.CompressionPlan{
		"huffman":  {DefaultAlgorithm: storage.AlgHuffman},
		"hutucker": {DefaultAlgorithm: storage.AlgHuTucker},
		"shared-refs": {
			Groups: map[string][]string{
				"refs": {
					"/site/people/person/@id",
					"/site/closed_auctions/closed_auction/buyer/@person",
					"/site/closed_auctions/closed_auction/seller/@person",
				},
			},
			Algorithms: map[string]string{"refs": storage.AlgALM},
		},
	}
	for name, plan := range plans {
		name, plan := name, plan
		t.Run(name, func(t *testing.T) {
			s, err := storage.Load(doc, storage.LoadOptions{Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{xmarkq.Q1, xmarkq.Q5, xmarkq.Q8, xmarkq.Q14, xmarkq.Q16} {
				if gs, ws := run(t, s, q), reference(t, doc, q); gs != ws {
					t.Fatalf("plan %s: results differ for %.60q", name, q)
				}
			}
		})
	}
}

func TestQueryAfterReload(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.03, Seed: 23})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob := s.AppendBinary(nil)
	s2, err := storage.LoadBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	a := run(t, s, xmarkq.Q1)
	b := run(t, s2, xmarkq.Q1)
	if a != b {
		t.Fatalf("reloaded store answers differently: %q vs %q", a, b)
	}
}

// TestDifferentialXMarkExtended covers the queries beyond the paper's
// Figure-7 chart.
func TestDifferentialXMarkExtended(t *testing.T) {
	doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.05, Seed: 24})
	s, err := storage.Load(doc, storage.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range xmarkq.ExtendedQueries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			gs := run(t, s, q.Text)
			if ws := reference(t, doc, q.Text); gs != ws {
				t.Fatalf("results differ\nengine:\n%.400s\nreference:\n%.400s", gs, ws)
			}
		})
	}
}

func TestOrderByDescending(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	got := run(t, s, `FOR $p IN /site/people/person ORDER BY $p/age DESCENDING RETURN $p/name/text()`)
	if got != "Carol\nAlice\nBob" {
		t.Fatalf("descending = %q", got)
	}
	got = run(t, s, `FOR $p IN /site/people/person ORDER BY $p/age ASCENDING RETURN $p/name/text()`)
	if got != "Bob\nAlice\nCarol" {
		t.Fatalf("ascending = %q", got)
	}
}

func TestForPreservesBoundSequenceOrder(t *testing.T) {
	s := newStore(t, engine.PeopleDoc)
	// $a carries an ORDER BY arrangement; iterating it with FOR must not
	// silently restore document order.
	q := `LET $a := (FOR $p IN /site/people/person ORDER BY $p/age DESCENDING RETURN $p)
	      FOR $x IN $a
	      RETURN $x/name/text()`
	if got := run(t, s, q); got != "Carol\nAlice\nBob" {
		t.Fatalf("order lost through FOR over LET: %q", got)
	}
}

// TestFastPathSoundness pins the predicate fast path's bail-out cases:
// nested-element content, empty elements and empty-string literals must
// all match the reference semantics.
func TestFastPathSoundness(t *testing.T) {
	doc := `<root>
	  <rec><name><first>Alice</first></name><v>1</v></rec>
	  <rec><name>Bob</name><v>2</v></rec>
	  <rec><name/><v>3</v></rec>
	  <rec><name>Ali<b/>ce</name><v>4</v></rec>
	</root>`
	s := newStore(t, doc)
	queries := []string{
		`FOR $r IN /root/rec WHERE $r/name = "Alice" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name != "Bob" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name = "" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name < "B" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name >= "" RETURN $r/v/text()`,
		`/root/rec[name = "Alice"]/v/text()`,
		`/root/rec[name != "x"]/v/text()`,
	}
	for _, q := range queries {
		if gs, ws := run(t, s, q), reference(t, []byte(doc), q); gs != ws {
			t.Errorf("%s\nengine:    %q\nreference: %q", q, gs, ws)
		}
	}
}

// TestFastPathOptionalValues covers containers where only some
// instances carry a value.
func TestFastPathOptionalValues(t *testing.T) {
	doc := `<root>
	  <p><phone>123</phone></p>
	  <p></p>
	  <p><phone>456</phone></p>
	</root>`
	s := newStore(t, doc)
	for _, q := range []string{
		`count(FOR $p IN /root/p WHERE $p/phone = 123 RETURN $p)`,
		`count(FOR $p IN /root/p WHERE $p/phone != 123 RETURN $p)`,
		`count(FOR $p IN /root/p WHERE $p/phone < 400 RETURN $p)`,
	} {
		if gs, ws := run(t, s, q), reference(t, []byte(doc), q); gs != ws {
			t.Errorf("%s: engine %q vs reference %q", q, gs, ws)
		}
	}
}
