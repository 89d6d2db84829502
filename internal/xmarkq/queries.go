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

// NestedLets returns the shapes a LET bound to a FLWOR takes beyond Q8,
// Q9, Q11 and Q16 — the differential corpus of the compiled nested
// loops: shadowing, an inner ORDER BY, several inner joins on the outer
// variable, a literal restrict beside the join, an inner RETURN of the
// outer variable, sequences, a LET-FLWOR read by a later one, an outer
// ORDER BY and WHERE over one, paths from a node-set LET, a LET-FLWOR
// inside another's inner FLWOR, one with no enclosing FOR, and empty
// inner results.
func NestedLets() []Query {
	const (
		persons = `/site/people/person`
		closed  = `/site/closed_auctions/closed_auction`
		open    = `/site/open_auctions/open_auction`
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
	}
}
