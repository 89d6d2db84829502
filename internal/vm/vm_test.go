// Package vm tests the compiled evaluator from outside internal/engine,
// through the surface the rest of the module uses: engine.Compile,
// Program.Run and Program.Disassemble. The unit battery and the fuzz
// target check every compiled construct against the DOM reference.
package vm

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

var (
	testStore *storage.Store
	testRef   *galaxlike.Engine // the DOM reference over the same document
)

func store(t testing.TB) *storage.Store {
	t.Helper()
	if testStore == nil {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 7})
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		testStore, testRef = s, galaxlike.New(doc)
		testRef.ParsePerQuery = false
	}
	return testStore
}

// evalRef runs the DOM reference evaluator, the oracle, over the
// document of the test store.
func evalRef(t testing.TB, q string) (string, error) {
	store(t)
	res, err := testRef.Query(q)
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

// evalVM compiles and runs the program.
func evalVM(t testing.TB, s *storage.Store, q string) (string, error) {
	t.Helper()
	expr, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	prog, err := engine.Compile(expr, s, q)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	res, err := prog.Run(context.Background())
	if err != nil {
		return "", err
	}
	defer res.Close()
	return serialize(res)
}

// serialize renders the remaining items of res as XML/text, one item
// per line.
func serialize(res *engine.Result) (string, error) {
	var sb strings.Builder
	if _, err := res.WriteXML(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// queryBattery is the unit-level differential corpus: XMark plus
// targeted shapes for each compiled construct (restrict reordering,
// deferred slots, invariant domains, LET propagation, residual WHERE,
// fallback blocks, text tails, sequences of blocks), the nested LET
// shapes the compiler lowers to loops, the nested FLWORs it compiles to
// sub-programs and the string-function restricts.
func queryBattery() []xmarkq.Query {
	qs := append([]xmarkq.Query{}, xmarkq.Queries()...)
	qs = append(qs, xmarkq.ExtendedQueries()...)
	extra := []xmarkq.Query{
		{ID: "top-path", Text: `/site/regions/africa/item/name`},
		{ID: "top-path-text", Text: `/site/regions/africa/item/name/text()`},
		{ID: "top-path-desc", Text: `/site//item/name/text()`},
		{ID: "top-path-pred", Text: `/site/people/person[@id = "person0"]/name/text()`},
		{ID: "seq-blocks", Text: `(count(/site/people/person), /site/regions/africa/item/name/text(), 1 + 2)`},
		{ID: "fold-arith", Text: `FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 2 * 10 RETURN $i/initial/text()`},
		{ID: "fold-div", Text: `FOR $i IN /site/open_auctions/open_auction WHERE $i/initial > 100 div 5 RETURN $i/initial/text()`},
		{ID: "two-lits", Text: `FOR $p IN /site/people/person/profile WHERE $p/@income >= 30000 AND $p/age >= 30 RETURN $p/age/text()`},
		{ID: "lit-and-residual", Text: `FOR $p IN /site/people/person WHERE $p/profile/@income >= 30000 AND contains($p/name, "a") RETURN $p/name/text()`},
		{ID: "let-prop", Text: `LET $ps := /site/people/person FOR $p IN $ps WHERE $p/profile/@income >= 40000 RETURN $p/name/text()`},
		{ID: "nested-for", Text: `FOR $a IN /site/closed_auctions/closed_auction FOR $p IN /site/people/person WHERE $p/@id = $a/buyer/@person RETURN $p/name/text()`},
		{ID: "text-domain", Text: `FOR $t IN /site/regions/africa/item/name/text() RETURN $t`},
		{ID: "where-no-for", Text: `LET $n := count(/site/people/person) WHERE $n > 0 RETURN $n`},
		{ID: "orderby", Text: `FOR $p IN /site/people/person ORDER BY $p/name RETURN $p/name/text()`},
		{ID: "orderby-desc", Text: `FOR $p IN /site/people/person ORDER BY $p/name DESCENDING RETURN $p/name/text()`},
		{ID: "ctor-return", Text: `FOR $i IN /site/regions/asia/item RETURN <it name="{$i/name/text()}"/>`},
		{ID: "empty-domain", Text: `FOR $x IN /site/nonexistent/thing RETURN $x`},
		{ID: "if-return", Text: `FOR $p IN /site/people/person RETURN if ($p/profile/@income >= 50000) then $p/name/text() else "modest"`},
		{ID: "var-return", Text: `FOR $i IN /site/regions/africa/item/name RETURN $i`},
		{ID: "agg-block", Text: `sum(/site/open_auctions/open_auction/initial)`},
		{ID: "invariant-inner", Text: `FOR $p IN /site/people/person FOR $e IN /site/regions/europe/item WHERE $p/@id = "person1" RETURN $e/name/text()`},
		// Emission templates: every kind of piece, escaping, empty content.
		{ID: "ctor-mixed", Text: `FOR $i IN /site/regions/africa/item RETURN <it id="{$i/@id}" k="a&lt;b {$i/location/text()} &quot;q&quot;">lit &amp; more <n>{$i/name/text()}</n> {count($i/mailbox/mail)} <e/>{$i/payment/text()}</it>`},
		{ID: "ctor-empty-content", Text: `FOR $p IN /site/people/person RETURN <p>{$p/homepage/text()}</p>`},
		{ID: "ctor-empty-string", Text: `FOR $p IN /site/people/person[@id = "person1"] RETURN <p a="">{""}</p>`},
		{ID: "ctor-whitespace", Text: `FOR $p IN /site/people/person[@id = "person2"] RETURN <p>  {$p/name/text()}  </p>`},
		{ID: "ctor-node-content", Text: `FOR $p IN /site/people/person[@id = "person3"] RETURN <p>{$p/profile}{$p/@id}{$p}</p>`},
		{ID: "ctor-generic-attr", Text: `FOR $p IN /site/people/person RETURN <p n="{count($p/watches/watch) + 1}" s="{($p/name/text(), "x")}" d="{$p/address}"/>`},
		{ID: "ctor-generic-content", Text: `FOR $p IN /site/people/person RETURN <p>{if ($p/profile/@income >= 50000) then "rich" else <poor/>}{($p/@id, 1.5, $p/name/text() = "x")}</p>`},
		{ID: "ctor-var-content", Text: `FOR $p IN /site/people/person LET $n := $p/name/text() LET $w := $p/watches/watch RETURN <p>{$n}{$w}{count($w)}</p>`},
		{ID: "ctor-orderby", Text: `FOR $i IN /site/regions//item ORDER BY $i/name DESCENDING RETURN <i n="{$i/name/text()}">{$i/quantity/text()}</i>`},
		{ID: "ctor-top", Text: `<r a="1"><c>{count(/site/people/person)}</c>{/site/regions/africa/item[1]/name}</r>`},
		{ID: "ctor-top-seq", Text: `(<a/>, <b>{count(/site/regions/asia/item)}</b>, 1)`},
		{ID: "ctor-nested-flwor", Text: `FOR $p IN /site/people/person[@id = "person0"] RETURN <p>{FOR $w IN $p/watches/watch RETURN <w>{$w/@open_auction}</w>}</p>`},
		{ID: "ctor-error", Text: `FOR $p IN /site/people/person RETURN <p n="{number($p/name/text())}"/>`},
		{ID: "let-ctor-emitted", Text: `FOR $p IN /site/people/person LET $a := FOR $t IN /site/closed_auctions/closed_auction WHERE $t/buyer/@person = $p/@id RETURN <t p="{$t/price/text()}"/> RETURN <p n="{count($a)}" e="{exists($a)}">{$a}<x>{$a}</x></p>`},
		// Shapes the fuzzer found where the engine and the reference
		// differed: a descendant step's position from the document, a
		// number inside an AND predicate, an attribute's text(), a bare
		// doc(), and a zero divisor.
		{ID: "desc-position", Text: `(//person[1]/@id, //item[last()]/name/text(), count(//person[2]))`},
		{ID: "and-number-pred", Text: `count(//person/profile[1 AND @income])`},
		{ID: "attr-text", Text: `FOR $a IN //closed_auction RETURN <r>{$a//@person/text()}</r>`},
		{ID: "bare-doc", Text: `(count(doc("")), FOR $d IN doc("x") RETURN 1)`},
		{ID: "mod-zero", Text: `FOR $p IN /site/people/person RETURN count($p/watches/watch) mod 0`},
		// A join whose other side is a LET of the same FLWOR bound after
		// the FOR: the comparison must wait for the LET, also when the
		// LET shadows an outer variable of the same name.
		{ID: "join-later-let", Text: `FOR $t IN /site/closed_auctions/closed_auction LET $a := $t/seller WHERE $t/buyer/@person = $a/@person RETURN $t/price/text()`},
		{ID: "join-later-let-shadow", Text: `FOR $a IN /site/people/person RETURN count(FOR $t IN /site/closed_auctions/closed_auction LET $a := $t/buyer WHERE $t/buyer/@person = $a/@person RETURN $t)`},
		{ID: "join-self", Text: `FOR $a IN /site/people/person RETURN count(FOR $a IN /site/closed_auctions/closed_auction WHERE $a/buyer/@person = $a/buyer/@person RETURN $a)`},
		{ID: "let-ctor-atomized", Text: `FOR $p IN /site/people/person LET $a := FOR $t IN /site/closed_auctions/closed_auction WHERE $t/buyer/@person = $p/@id RETURN <t>{$t/price/text()}</t> RETURN <p s="{$a}">{string($a)}</p>`},
	}
	qs = append(qs, extra...)
	qs = append(qs, xmarkq.StringRestricts()...)
	return append(qs, xmarkq.NestedFLWORs()...)
}

// TestDifferentialBattery: VM output must be byte-identical to the DOM
// reference for every battery query, and fail where the reference fails
// (the two word their errors differently).
func TestDifferentialBattery(t *testing.T) {
	s := store(t)
	for _, q := range queryBattery() {
		want, wErr := evalRef(t, q.Text)
		got, vErr := evalVM(t, s, q.Text)
		if err := differ(want, wErr, got, vErr); err != "" {
			t.Fatalf("%s: %s", q.ID, err)
		}
	}
}

// differ compares a VM result with the oracle's: both fail, or neither
// does and the outputs are the same. It returns what differs, "" if
// nothing.
func differ(want string, wErr error, got string, vErr error) string {
	switch {
	case (wErr == nil) != (vErr == nil):
		return fmt.Sprintf("reference err=%v, vm err=%v", wErr, vErr)
	case wErr == nil && got != want:
		return fmt.Sprintf("output mismatch\n--- reference ---\n%s\n--- vm ---\n%s", want, got)
	}
	return ""
}
