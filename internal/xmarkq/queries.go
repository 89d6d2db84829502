// Package xmarkq holds the XMark benchmark queries used throughout the
// repository (Figure 7 of the paper plus the Q8/Q9 numbers quoted in
// its text), adapted to the schema produced by internal/datagen. The
// paper's chart shows Q1, Q2, Q3, Q5, Q13, Q14, Q16 and Q20, with Q8
// and Q9 reported separately because Galax could not complete them in
// comparable time.
package xmarkq

// Query pairs a benchmark ID with its XQuery text.
type Query struct {
	ID   string
	Text string
}

// Queries returns the benchmark queries in the paper's order.
func Queries() []Query {
	return []Query{
		{"q1", Q1}, {"q2", Q2}, {"q3", Q3}, {"q5", Q5},
		{"q8", Q8}, {"q9", Q9}, {"q13", Q13}, {"q14", Q14},
		{"q16", Q16}, {"q20", Q20},
	}
}

// Q1: return the name of the person with ID person0 (exact-match
// attribute lookup).
const Q1 = `FOR $b IN document("auction.xml")/site/people/person[@id = "person0"]
RETURN $b/name/text()`

// Q2: return the initial increases of all open auctions (positional
// predicate).
const Q2 = `FOR $b IN document("auction.xml")/site/open_auctions/open_auction
RETURN <increase>{$b/bidder[1]/increase/text()}</increase>`

// Q3: return the IDs of auctions whose first increase is at most half
// the last one (two positional predicates plus arithmetic).
const Q3 = `FOR $b IN document("auction.xml")/site/open_auctions/open_auction
WHERE count($b/bidder) > 0 AND number($b/bidder[1]/increase/text()) * 2 <= number($b/bidder[last()]/increase/text())
RETURN <increase id="{$b/@id}" first="{$b/bidder[1]/increase/text()}" last="{$b/bidder[last()]/increase/text()}"/>`

// Q5: how many sold items cost more than 40 (aggregate over an
// inequality on a decimal container).
const Q5 = `count(FOR $i IN document("auction.xml")/site/closed_auctions/closed_auction
WHERE $i/price >= 40
RETURN $i/price)`

// Q8: list the names of persons and the number of items they bought
// (correlated join on IDREFs).
const Q8 = `FOR $p IN document("auction.xml")/site/people/person
LET $a := FOR $t IN document("auction.xml")/site/closed_auctions/closed_auction
          WHERE $t/buyer/@person = $p/@id
          RETURN $t
RETURN <item person="{$p/name/text()}">{count($a)}</item>`

// Q9: list the names of persons and the names of the European items
// they bought (three-way join, the Fig. 5 plan).
const Q9 = `FOR $p IN document("auction.xml")/site/people/person
LET $a := FOR $t IN document("auction.xml")/site/closed_auctions/closed_auction,
              $t2 IN document("auction.xml")/site/regions/europe/item
          WHERE $t/itemref/@item = $t2/@id AND $p/@id = $t/buyer/@person
          RETURN <item>{$t2/name/text()}</item>
RETURN <person name="{$p/name/text()}">{$a}</person>`

// Q13: list the names of Australian items with their descriptions
// (result reconstruction of whole subtrees).
const Q13 = `FOR $i IN document("auction.xml")/site/regions/australia/item
RETURN <item name="{$i/name/text()}">{$i/description}</item>`

// Q14: return the names of all items whose description contains the
// word "gold" (descendant axis plus full-text predicate, the §2.3
// example).
const Q14 = `FOR $i IN document("auction.xml")/site//item
WHERE contains($i/description, "gold")
RETURN $i/name/text()`

// Q16: references: for every closed auction, the seller's name resolved
// through the IDREF (parent-child-join-heavy query; the paper notes
// XQueC is slightly worse than Galax on this class because of the many
// parent-child joins its data model imposes).
const Q16 = `FOR $a IN document("auction.xml")/site/closed_auctions/closed_auction
LET $n := FOR $p IN document("auction.xml")/site/people/person
          WHERE $p/@id = $a/seller/@person
          RETURN $p/name/text()
RETURN <reference item="{$a/itemref/@item}">{$n}</reference>`

// Q20: group customers by income brackets (aggregates over range
// predicates on a decimal attribute).
const Q20 = `<result>
 <preferred>{count(document("auction.xml")/site/people/person/profile[@income >= 65000])}</preferred>
 <standard>{count(document("auction.xml")/site/people/person/profile[@income >= 30000 AND @income < 65000])}</standard>
 <challenge>{count(document("auction.xml")/site/people/person/profile[@income < 30000])}</challenge>
</result>`

// ExtendedQueries returns additional XMark queries beyond the paper's
// Figure-7 chart, used for differential testing and wider workload
// coverage.
func ExtendedQueries() []Query {
	return []Query{
		{"q6", Q6}, {"q7", Q7}, {"q11", Q11}, {"q17", Q17}, {"q19", Q19},
	}
}

// Q6: how many items are listed on all continents (descendant counting
// under each region).
const Q6 = `FOR $b IN document("auction.xml")/site/regions RETURN count($b//item)`

// Q7: how many pieces of prose are in the database.
const Q7 = `count(document("auction.xml")/site//description) +
count(document("auction.xml")/site//annotation) +
count(document("auction.xml")/site//emailaddress)`

// Q11: for each person, the number of open auctions whose initial price
// the person's income would cover 5000 times over (value theta-join
// with arithmetic).
const Q11 = `FOR $p IN document("auction.xml")/site/people/person
LET $l := FOR $i IN document("auction.xml")/site/open_auctions/open_auction/initial
          WHERE number($p/profile/@income) > 5000 * number($i/text())
          RETURN $i
RETURN <items name="{$p/name/text()}">{count($l)}</items>`

// Q17: which persons don't have a homepage.
const Q17 = `FOR $p IN document("auction.xml")/site/people/person
WHERE empty($p/homepage/text())
RETURN <person name="{$p/name/text()}"/>`

// Q19: give an alphabetically ordered list of all items along with
// their location.
const Q19 = `FOR $b IN document("auction.xml")/site/regions//item
LET $k := $b/name/text()
ORDER BY $b/location
RETURN <item name="{$k}">{$b/location/text()}</item>`

// NestedFLWORs returns the shapes a nested FLWOR takes beyond Q5, Q8, Q9,
// Q11 and Q16: bound to a LET ("let-", loops of the program; with
// shadowing, inner and outer ORDER BY, joins, restricts, chains, empty
// results) and anywhere else ("flwor-", a sub-program: a RETURN body,
// count/exists/sum with a literal restrict, a predicate, a sequence item,
// a WHERE, constructor attributes and content, a LET-FLWOR under an ORDER
// BY read before or after the sort, shadowing, and a part-way failure).
func NestedFLWORs() []Query {
	const (
		persons = `/site/people/person`
		closed  = `/site/closed_auctions/closed_auction`
		open    = `/site/open_auctions/open_auction`
		bought  = `FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t`
	)
	return []Query{
		{"let-shadow", `FOR $p IN ` + persons + ` LET $a := FOR $a IN ` + closed + ` WHERE $a/buyer/@person = $p/@id RETURN $a RETURN <n id="{$p/@id}">{count($a)}</n>`},
		{"let-outer-same-name", `FOR $a IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $a/@id RETURN $t RETURN count($a)`},
		{"let-inner-orderby", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id ORDER BY $t/price RETURN $t/price/text() RETURN <p>{$a}</p>`},
		{"let-two-joins", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + `, $o IN ` + open + ` WHERE $t/buyer/@person = $p/@id AND $o/seller/@person = $p/@id RETURN <x>{$t/price/text()}/{$o/initial/text()}</x> RETURN <p>{$a}</p>`},
		{"let-lit-and-join", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id AND $t/price >= 20 RETURN $t RETURN <p n="{count($a)}">{$a/price/text()}</p>`},
		{"let-returns-outer", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/seller/@person = $p/@id RETURN $p RETURN <p>{count($a)}</p>`},
		{"let-seq-source", `FOR $p IN ` + persons + ` LET $a := (FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t, $p) RETURN count($a)`},
		{"let-in-seq", `(FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t RETURN count($a), count(` + persons + `))`},
		{"let-chain", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t LET $b := FOR $u IN $a WHERE $u/price >= 20 RETURN $u/price/text() RETURN <p>{$b}</p>`},
		{"let-outer-orderby", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t ORDER BY $p/name RETURN <p>{count($a)}</p>`},
		{"let-outer-where", `FOR $a IN ` + closed + ` LET $n := FOR $p IN ` + persons + ` WHERE $p/@id = $a/seller/@person RETURN $p/name/text() WHERE count($n) > 0 RETURN <r>{$n}</r>`},
		{"let-nodeset-path", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t RETURN <p>{$a/price/text()}</p>`},
		{"let-empty-domain", `FOR $p IN ` + persons + ` LET $a := FOR $t IN /site/nowhere/thing RETURN $t RETURN count($a)`},
		{"let-nested", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` LET $b := FOR $o IN ` + open + ` WHERE $o/seller/@person = $t/seller/@person RETURN $o WHERE $t/buyer/@person = $p/@id RETURN count($b) RETURN <p>{$a}</p>`},
		{"let-top", `LET $a := FOR $t IN ` + closed + ` WHERE $t/price >= 40 RETURN $t RETURN count($a)`},
		{"let-empty-join", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = "nobody" RETURN $t RETURN <p>{$a}</p>`},
		{"flwor-return-body", `FOR $p IN ` + persons + ` RETURN FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t/price/text()`},
		{"flwor-count-lit", `count(FOR $i IN ` + closed + ` WHERE $i/price >= 40 RETURN $i/price)`},
		{"flwor-exists-sum-lit", `(exists(FOR $i IN ` + closed + ` WHERE $i/price >= 400 RETURN $i), sum(FOR $i IN ` + closed + ` WHERE $i/price >= 40 RETURN $i/price))`},
		{"flwor-predicate", persons + `[count(FOR $w IN ./watches/watch RETURN $w) > 1]`},
		{"flwor-predicate-join", persons + `[count(FOR $t IN ` + closed + ` WHERE $t/buyer/@person = ./@id RETURN $t) > 0]/name/text()`},
		{"flwor-seq-item", `FOR $p IN ` + persons + ` RETURN ($p/name/text(), FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN $t/price/text(), "|")`},
		{"flwor-where", `FOR $p IN ` + persons + ` WHERE count(` + bought + `) > 0 RETURN $p/name/text()`},
		{"flwor-ctor-attr", `FOR $p IN ` + persons + ` RETURN <p n="{count(` + bought + `)}" s="{FOR $t IN ` + closed + ` WHERE $t/seller/@person = $p/@id RETURN $t/price/text()}"/>`},
		{"flwor-let-orderby", `FOR $p IN ` + persons + ` LET $a := FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id ORDER BY $t/price DESCENDING RETURN <t>{$t/price/text()}</t> RETURN <p n="{count($a)}">{$a}</p>`},
		{"flwor-let-collected", `FOR $p IN ` + persons + ` LET $a := ` + bought + ` WHERE count($a) > 0 ORDER BY $p/name RETURN $p/name/text()`},
		{"flwor-let-replayed", `FOR $p IN ` + persons + ` LET $a := ` + bought + ` ORDER BY $p/name DESCENDING RETURN <p>{$a/price/text()}</p>`},
		{"flwor-let-both", `FOR $p IN ` + persons + ` LET $a := ` + bought + ` ORDER BY count($a) RETURN <p n="{count($a)}">{$p/name/text()}</p>`},
		{"flwor-shadow", `FOR $p IN ` + persons + ` RETURN <p>{FOR $p IN ` + closed + ` WHERE $p/price >= 40 RETURN $p/price/text()}{$p/name/text()}</p>`},
		{"flwor-shadow-orderby", `FOR $t IN ` + closed + ` RETURN (count(FOR $t IN $t/annotation ORDER BY $t RETURN $t), $t/price/text())`},
		{"flwor-fails", `FOR $p IN ` + persons + ` RETURN (count(FOR $t IN ` + closed + ` WHERE $t/buyer/@person = $p/@id RETURN number($t/price) mod 0), $p/name/text())`},
	}
}

// StringRestricts returns the shapes of a string-function restrict —
// contains, starts-with or ends-with of a path and a literal, the Q14
// conjunct — beyond Q14 itself: scans of the containers for a FOR clause,
// a step predicate, an attribute, a text() path, two restricts at once
// and a nested FLWOR; conjuncts that stay per tuple (an empty literal, a
// path that repeats, a negation, a domain smaller than the containers);
// a number() error beside a restrict; and comparisons of numbers, NaN
// among them.
func StringRestricts() []Query {
	const (
		items   = `/site//item`
		persons = `/site/people/person`
	)
	return []Query{
		{"str-starts", `FOR $i IN ` + items + ` WHERE starts-with($i/name, "t") RETURN $i/name/text()`},
		{"str-ends", `FOR $p IN ` + persons + ` WHERE ends-with($p/name, "n") RETURN $p/@id`},
		{"str-step-pred", items + `[contains(description, "gold")]/name/text()`},
		{"str-count-pred", `count(/site/regions/*/item[starts-with(location, "U")])`},
		{"str-attr", `FOR $p IN ` + persons + ` WHERE contains($p/@id, "7") RETURN $p/name/text()`},
		{"str-text-tail", `FOR $i IN ` + items + ` WHERE contains($i/description/text/text(), "gold") RETURN $i/@id`},
		{"str-two", `FOR $i IN ` + items + ` WHERE contains($i/description, "gold") AND starts-with($i/location, "U") RETURN $i/name/text()`},
		{"str-nested", `count(FOR $i IN ` + items + ` WHERE contains($i/description, "gold") RETURN $i)`},
		{"str-not", `FOR $i IN ` + items + ` WHERE not(contains($i/description, "gold")) RETURN $i/@id`},
		{"str-empty-literal", `FOR $i IN ` + items + ` WHERE contains($i/description, "") RETURN $i/@id`},
		{"str-repeating", `FOR $o IN /site/open_auctions/open_auction WHERE ends-with($o/bidder/increase, "5") RETURN $o/@id`},
		{"str-let-per-region", `FOR $r IN /site/regions/* LET $g := FOR $i IN $r/item WHERE contains($i/description, "gold") RETURN $i RETURN <r n="{count($g)}">{$g/name/text()}</r>`},
		{"str-number-error", `FOR $i IN ` + items + ` WHERE contains($i/description, "gold") AND number($i/name) > 0 RETURN $i/@id`},
		{"num-compare", `FOR $o IN /site/open_auctions/open_auction WHERE string-length($o/initial) > 4 AND count($o/bidder) * 2 >= number($o/initial) div 10 RETURN $o/@id`},
		{"num-nan", `(0 div 0 = 1, 0 div 0 >= 1, 0 div 0 = 0 div 0, 0 div 0 != 0 div 0, 0 div 0 < 1, count(` + persons + `) div 0 > 1)`},
	}
}

// Shapes returns targeted shapes for each construct the compiler lowers
// — restrict reordering, deferred slots, invariant domains, LET
// propagation, residual WHERE, fallback blocks, text tails, sequences of
// blocks, emission templates, joins and variable shadowing — on the
// XMark schema, as the internal/vm differential battery runs them.
func Shapes() []Query {
	return []Query{
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
		// A literal restrict on a LET that shadows a FOR of the same FLWOR
		// is no restrict of the FOR's domain.
		{ID: "lit-later-let-shadow", Text: `FOR $a IN /site/people/person LET $a := $a/profile WHERE $a/@income >= 50000 RETURN $a/@income`},
		// Shadowing under an ORDER BY: a LET replayed after the sort
		// reads an outer $a that a later clause shadows, or the outer
		// variable of its own name.
		{ID: "orderby-replay-shadowed", Text: `FOR $a IN /site/people/person[@id = "person0"] RETURN FOR $t IN /site/closed_auctions/closed_auction LET $n := $a/name/text() FOR $a IN $t/buyer ORDER BY $t/price RETURN <r n="{$n}" b="{$a/@person}"/>`},
		{ID: "orderby-replay-own-name", Text: `FOR $a IN /site/people/person[@id = "person0"] RETURN FOR $t IN /site/closed_auctions/closed_auction LET $a := ($a/name/text(), $t/price/text()) ORDER BY $t/price DESCENDING RETURN <r>{$a}</r>`},
		// A FLWOR's variable is out of scope after it: the second block
		// fails on an unbound $a.
		{ID: "seq-unbound-after-flwor", Text: `(FOR $a IN /site/people/person RETURN $a/name/text(), $a)`},
		// Step predicates in a nested FLWOR that shadows $p: the one in its
		// clause's source reads the outer $p, the one in its RETURN the
		// inner.
		{ID: "pred-shadowed-outer", Text: `FOR $p IN /site/people/person RETURN <p>{FOR $p IN /site/closed_auctions/closed_auction[buyer/@person = $p/@id] RETURN /site/people/person[@id = $p/seller/@person]/name/text()}</p>`},
		{ID: "join-self", Text: `FOR $a IN /site/people/person RETURN count(FOR $a IN /site/closed_auctions/closed_auction WHERE $a/buyer/@person = $a/buyer/@person RETURN $a)`},
		{ID: "let-ctor-atomized", Text: `FOR $p IN /site/people/person LET $a := FOR $t IN /site/closed_auctions/closed_auction WHERE $t/buyer/@person = $p/@id RETURN <t>{$t/price/text()}</t> RETURN <p s="{$a}">{string($a)}</p>`},
		// n//@a is n/descendant-or-self::node()/@a (XPath 1.0 §2.5): it
		// holds the buyer's own @person.
		{ID: "desc-attr-self", Text: `count(FOR $t IN //closed_auction WHERE $t/buyer//@person RETURN 1)`},
		// Over a domain that is no node set, nothing is pushed down, so
		// the conjuncts run in written order: $p = 0 drops the tuple
		// before $p/A would step over a boolean.
		{ID: "seq-domain-where-order", Text: `FOR $p IN /A = 0 WHERE $p = 0 AND $p/A > 0 RETURN 0`},
	}
}
