package engine_test

import (
	"context"
	"fmt"
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
	expr, err := xquery.Parse(q)
	if err != nil {
		return "", err
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		return "", err
	}
	res, err := prog.Run(context.Background())
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
	// The index joins on the comparison's equality, numbers as numbers:
	// a decimal container against an int one, and string containers that
	// hold numbers among other values — "40.0", " 3" — against typed
	// ones; NaN equals nothing, also where its bytes are equal. With a
	// model shared by both sides (the plan's group), the compressed bytes
	// are merged only where no side holds a number.
	const doc = `<r><p><v>40.00</v></p><p><v>2.50</v></p><n><v>40</v></n><n><v>3</v></n><n><v>7</v></n>` +
		`<s><v>40.0</v></s><s><v> 3</v></s><s><v>x</v></s><s><v>NaN</v></s><s><v>inf</v></s>` +
		`<t><v>NaN</v></t><t><v>x</v></t><t><v>+Inf</v></t><t><v>3.0</v></t><t><v>y</v></t></r>`
	shared := &storage.CompressionPlan{
		Groups:     map[string][]string{"v": {"/r/s/v/#text", "/r/t/v/#text"}},
		Algorithms: map[string]string{"v": storage.AlgALM},
	}
	for _, plan := range []*storage.CompressionPlan{nil, shared, {DefaultAlgorithm: storage.AlgHuffman}} {
		s, err := storage.Load([]byte(doc), storage.LoadOptions{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]string{{"p", "n"}, {"p", "s"}, {"n", "s"}, {"s", "t"}, {"t", "s"}, {"n", "t"}} {
			q := fmt.Sprintf(`FOR $a IN /r/%s, $b IN /r/%s WHERE $a/v = $b/v RETURN <m>{$a/v/text()}={$b/v/text()}</m>`, pair[0], pair[1])
			before := engine.JoinIndexBuilds()
			if got, want := run(t, s, q), reference(t, []byte(doc), q); got != want {
				t.Errorf("%s\nengine:    %q\nreference: %q", q, got, want)
			}
			if engine.JoinIndexBuilds() == before {
				t.Errorf("%s: no join index built", q)
			}
		}
	}
	// Two number-free sides of one model merge on compressed bytes.
	words := `<r><s><v>x</v></s><s><v>y</v></s><t><v>y</v></t><t><v>z</v></t></r>`
	s, err := storage.Load([]byte(words), storage.LoadOptions{Plan: shared})
	if err != nil {
		t.Fatal(err)
	}
	q = `FOR $a IN /r/s, $b IN /r/t WHERE $a/v = $b/v RETURN $a`
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if dis := prog.Disassemble(); !strings.Contains(dis, "MergeJoin on compressed bytes") {
		t.Errorf("number-free sides of one model are not merged on compressed bytes:\n%s", dis)
	}
	if got := run(t, s, q); got != "<s><v>y</v></s>" {
		t.Errorf("%s = %q", q, got)
	}
	// A node without text has the value "", equal to the other side's and
	// in no container: no index may leave it out.
	const empty = `<r><a><x/></a><a><x>1</x></a><b><y/></b><b><y>1</y></b><c k=""/></r>`
	s = newStore(t, empty)
	for _, q := range []string{
		`FOR $a IN /r/a, $b IN /r/b WHERE $a/x = $b/y RETURN <p>{$a}{$b}</p>`,
		`FOR $a IN /r/a, $c IN /r/c WHERE $a/x = $c/@k RETURN $a`,
	} {
		if got, want := run(t, s, q), reference(t, []byte(empty), q); got != want {
			t.Errorf("%s\nengine:    %q\nreference: %q", q, got, want)
		}
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
// nested-element content, empty elements, empty-string literals, text
// split by a comment or a processing instruction (merged into one leaf at
// ingest) and text split into two leaves by an empty element — whose
// records are pieces of a value, not values — must all match the
// reference semantics, in a step predicate, a WHERE, a join, a count and
// an ORDER BY.
func TestFastPathSoundness(t *testing.T) {
	doc := `<root>
	  <rec><name><first>Alice</first></name><v>1</v></rec>
	  <rec><name>Bob</name><v>2</v></rec>
	  <rec><name/><v>3</v></rec>
	  <rec><name>Ali<b/>ce</name><v>4</v></rec>
	</root>`
	queries := []string{
		`FOR $r IN /root/rec WHERE $r/name = "Alice" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name != "Bob" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name = "" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name < "B" RETURN $r/v/text()`,
		`FOR $r IN /root/rec WHERE $r/name >= "" RETURN $r/v/text()`,
		`/root/rec[name = "Alice"]/v/text()`,
		`/root/rec[name != "x"]/v/text()`,
	}
	split := []string{
		`/site/r[name = "z"]/v/text()`,
		`/site/r[name = "za"]/v/text()`,
		`/site/r[name/text() = "z"]/v/text()`,
		`FOR $r IN /site/r WHERE $r/name = "z" RETURN $r/v/text()`,
		`FOR $r IN /site/r WHERE $r/name = "za" RETURN $r/v/text()`,
		`FOR $r IN /site/r WHERE $r/name < "za" RETURN $r/v/text()`,
		`FOR $r IN /site/r, $m IN /site/m WHERE $r/name = $m/name RETURN <p>{$r/v/text()}{$m/v/text()}</p>`,
		`count(/site/r[name = "z"])`,
		`count(/site/r[name >= "z"])`,
		`count(FOR $r IN /site/r WHERE $r/name = "za" RETURN $r)`,
		`FOR $r IN /site/r ORDER BY $r/name RETURN $r/v/text()`,
		`FOR $r IN /site/r ORDER BY $r/name/text() DESCENDING RETURN $r/v/text()`,
		`FOR $r IN /site/r WHERE contains($r/name, "za") RETURN $r/v/text()`,
	}
	docs := map[string][]string{doc: queries}
	for _, sep := range []string{"<!--c-->", "<?pi x?>", "<b/>"} {
		d := `<site><r><name>z` + sep + `a</name><v>1</v></r><r><name>q</name><v>2</v></r><r><name>zb</name><v>3</v></r>` +
			`<m><name>z</name><v>4</v></m><m><name>za</name><v>5</v></m></site>`
		docs[d] = split
	}
	for d, queries := range docs {
		s := newStore(t, d)
		for _, q := range queries {
			if gs, ws := run(t, s, q), reference(t, []byte(d), q); gs != ws {
				t.Errorf("%s\non %s\nengine:    %q\nreference: %q", q, d, gs, ws)
			}
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
