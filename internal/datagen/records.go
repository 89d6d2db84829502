package datagen

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomRecords builds a random record-shaped document: groups of entries
// with string/int/decimal fields and attributes on several levels, mixed
// content, and recursive nesting — entry inside entry, nested inside
// nested — so a variable bound over //entry or //nested has a summary
// set that is not an antichain.
func RandomRecords(rng *rand.Rand) []byte {
	var sb strings.Builder
	sb.WriteString("<root>")
	nGroups := 1 + rng.Intn(3)
	for g := 0; g < nGroups; g++ {
		fmt.Fprintf(&sb, `<group id="g%d">`, g)
		for e := 0; e < rng.Intn(8); e++ {
			randomEntry(&sb, rng, 0)
		}
		sb.WriteString("</group>")
	}
	sb.WriteString("</root>")
	return []byte(sb.String())
}

func randomEntry(sb *strings.Builder, rng *rand.Rand, depth int) {
	fmt.Fprintf(sb, `<entry key="k%d">`, rng.Intn(5))
	if rng.Intn(4) == 0 {
		sb.WriteString("memo ") // mixed content
	}
	fmt.Fprintf(sb, "<label>%s</label>", []string{"alpha", "beta", "gamma", "delta"}[rng.Intn(4)])
	fmt.Fprintf(sb, "<num>%d</num>", rng.Intn(100))
	if rng.Intn(2) == 0 {
		fmt.Fprintf(sb, "<price>%d.%02d</price>", rng.Intn(50), rng.Intn(100))
	}
	for n := rng.Intn(3); n > 0; n-- {
		randomNested(sb, rng, 0)
	}
	if depth < 2 && rng.Intn(3) == 0 {
		randomEntry(sb, rng, depth+1)
	}
	if rng.Intn(4) == 0 {
		sb.WriteString(" tail")
	}
	sb.WriteString("</entry>")
}

func randomNested(sb *strings.Builder, rng *rand.Rand, depth int) {
	fmt.Fprintf(sb, `<nested key="n%d"><label>%s</label>`, rng.Intn(3), []string{"x", "y"}[rng.Intn(2)])
	if depth < 2 && rng.Intn(3) == 0 {
		randomNested(sb, rng, depth+1)
	}
	sb.WriteString("</nested>")
}

// RecordQueries returns the fixed set of query shapes the differential
// tests run on every RandomRecords document.
func RecordQueries() []string {
	return []string{
		`count(/root/group)`,
		`count(//entry)`,
		`/root/group/entry/label/text()`,
		`//nested/label/text()`,
		`count(/root/group/entry[@key = "k1"])`,
		`FOR $e IN //entry WHERE $e/num >= 50 RETURN $e/label/text()`,
		`FOR $e IN //entry WHERE $e/num >= 20 AND $e/num < 80 RETURN $e/num/text()`,
		`sum(//entry/num)`,
		`FOR $g IN /root/group RETURN <g id="{$g/@id}">{count($g/entry)}</g>`,
		`FOR $g IN /root/group
	 LET $m := FOR $e IN //entry WHERE $e/@key = "k0" RETURN $e
	 RETURN count($m)`,
		`/root/group[1]/entry[1]`,
		`/root/group[last()]/@id`,
		`FOR $e IN //entry WHERE contains($e/label, "a") RETURN $e/label/text()`,
		`FOR $e IN //entry ORDER BY $e/num RETURN $e/num/text()`,
		`distinct-values(//label/text())`,
		`FOR $e IN //entry WHERE $e/price >= 10 RETURN $e/price/text()`,
		`min(//entry/num)`,
		`(count(//group), count(//label), count(//price))`,
		`FOR $a IN //entry, $b IN //entry WHERE $a/num = $b/num RETURN $a/@key`,
		// Variable-rooted paths, from one summary node ($g, and $e over one
		// level of entries) and from several that nest ($e over //entry, $n
		// over //nested).
		`FOR $e IN //entry RETURN $e/label/text()`,
		`FOR $e IN //entry RETURN <e>{$e//label/text()}</e>`,
		`FOR $e IN //entry RETURN $e/nested/label`,
		`FOR $e IN /root/group/entry RETURN <e k="{$e/@key}" n="{$e/nested/@key}">{$e/*}</e>`,
		`FOR $e IN //entry RETURN <e k="{$e/@key}">{$e/*}</e>`,
		`FOR $e IN //entry RETURN $e/text()`,
		`FOR $n IN //nested RETURN <n k="{$n/@key}">{$n/nested/label/text()}</n>`,
		`FOR $n IN //nested RETURN count($n//nested)`,
		`FOR $g IN /root/group RETURN $g/entry[1]/num/text()`,
		`FOR $g IN /root/group RETURN $g/entry[last()]/@key`,
		`FOR $g IN /root/group RETURN $g/entry[2]/label`,
		`FOR $g IN /root/group RETURN $g/entry/nested[1]/label`,
		`FOR $e IN //entry RETURN $e/entry[1]/nested[last()]/label/text()`,
		`FOR $g IN /root/group RETURN $g//entry/num/text()`,
		`FOR $g IN /root/group
	 LET $l := FOR $e IN $g/entry RETURN $e/nested[1]/label/text()
	 RETURN <g n="{count($l)}">{$l}</g>`,
		`FOR $g IN /root/group
	 LET $l := FOR $e IN $g//entry WHERE $e/num >= 30 RETURN $e/entry/label
	 RETURN count($l)`,
		`FOR $e IN //entry WHERE empty($e/price/text()) RETURN count($e/nested/label)`,
		`FOR $e IN //entry WHERE exists($e/entry) AND count($e//nested) > 1 RETURN $e/@key`,
		`FOR $e IN /root/group/entry ORDER BY $e/label RETURN $e/label/text()`,
		// Bindings of several origins — //label, //nested and //entry each
		// span summary nodes at every recursion depth, and the instances of
		// the last two nest — under relative child, descendant, positional
		// and text() paths: each binding reads the extents under its own
		// summary node, between itself and the next instance of that node.
		`FOR $x IN //label RETURN $x/text()`,
		`FOR $n IN //nested RETURN $n/label/text()`,
		`FOR $e IN //entry RETURN $e/*/text()`,
		`FOR $e IN //entry RETURN $e/label[1]/text()`,
		`FOR $e IN //entry RETURN $e/nested[1]/label/text()`,
		`FOR $e IN //entry RETURN $e//nested[last()]/@key`,
		`FOR $e IN //entry RETURN <e n="{count($e//label)}">{$e//nested/nested/@key}</e>`,
		`FOR $n IN //nested RETURN <n>{$n//label[last()]/text()}</n>`,
		// A LET binds the whole set at once: nested bindings reach
		// overlapping stretches, and the union is still a set in order.
		`FOR $r IN /root LET $x := $r//entry RETURN count($x//nested)`,
		`FOR $r IN /root LET $x := $r//nested RETURN $x/nested/label/text()`,
		`FOR $g IN /root/group LET $e := $g//entry RETURN <g n="{count($e//label)}">{$e/label/text()}</g>`,
		`FOR $g IN /root/group LET $e := $g//entry RETURN $e/entry/nested[1]/@key`,
		// A LET bound to a nested FLWOR whose ORDER BY hands the entries back
		// with no summary set: the path from $x finds each node's summary
		// node among the several that carry the tag entry.
		`LET $x := FOR $e IN //entry ORDER BY $e/num RETURN $e RETURN $x/label/text()`,
		// Literal restricts: from every instance (the owners' ancestors are
		// read off the extents), from a restricted set, inside a relative
		// path once per tuple, and over origins that nest (which defer to the
		// per-node route).
		`/root/group/entry[@key = "k3"]/nested/label/text()`,
		`/root/group/entry[label = "beta"][num >= 10]/@key`,
		`//entry[@key = "k3"]/label/text()`,
		`//nested[label = "y"]/@key`,
		`FOR $e IN /root/group/entry WHERE $e/@key = "k2" RETURN $e/entry/label/text()`,
		`FOR $e IN /root/group/entry WHERE $e/@key = "k2" AND $e/num >= 40 RETURN $e/@key`,
		`FOR $e IN //entry WHERE $e/@key = "k1" RETURN $e/num/text()`,
		`FOR $n IN //nested WHERE $n/label = "x" RETURN $n/@key`,
		`FOR $g IN /root/group RETURN count($g/entry[@key = "k1"])`,
		`FOR $g IN /root/group RETURN $g//entry[num >= 50]/label/text()`,
		`FOR $g IN /root/group RETURN <g>{FOR $e IN $g/entry WHERE $e/label = "alpha" RETURN $e/@key}</g>`,
		`FOR $g IN /root/group, $e IN $g/entry WHERE $e/num >= 60 RETURN $e/label/text()`,
		`FOR $a IN /root/group/entry, $b IN //nested WHERE $a/@key = "k0" AND $b/@key = "n1" RETURN count($b/label)`,
		// Joins whose index places both sides' owners by extent order, the
		// second with a five-member summary set on one side.
		`FOR $a IN /root/group/entry, $b IN /root/group/entry/entry WHERE $a/label = $b/label RETURN $b/@key`,
		`FOR $a IN /root/group/entry, $b IN /root/group/entry/* WHERE $a/@key = $b/@key RETURN <p a="{$a/num}">{$b/num/text()}</p>`,
		// ORDER BY: keys the compiler ranks on their containers — strings,
		// attributes, ints and decimals, over one summary node or several,
		// missing for some tuples — and keys it does not (several text leaves,
		// element content, a variable); both directions, with ties; two FOR
		// clauses and a LET on both sides of the sort; a nested sort; a RETURN
		// that fails for the tuples without a price.
		`FOR $e IN //entry ORDER BY $e/price RETURN $e/@key`,
		`FOR $e IN //entry ORDER BY $e/price/text() DESCENDING RETURN <e k="{$e/@key}">{$e/num/text()}</e>`,
		`FOR $e IN //entry ORDER BY $e/@key DESCENDING RETURN $e/label/text()`,
		`FOR $e IN /root/group/entry ORDER BY $e/label DESCENDING RETURN $e/@key`,
		`FOR $e IN //entry ORDER BY $e/num DESCENDING RETURN $e/num/text()`,
		`FOR $e IN //entry ORDER BY $e/text() RETURN $e/@key`,
		`FOR $g IN /root/group ORDER BY $g/entry/label RETURN $g/@id`,
		`FOR $n IN //nested ORDER BY $n RETURN $n/@key`,
		`FOR $e IN //entry LET $l := $e/label ORDER BY $l RETURN $e/num/text()`,
		`FOR $g IN /root/group, $e IN $g/entry LET $n := $e/num WHERE $n >= 20 ORDER BY $e/label RETURN <r g="{$g/@id}">{$n/text()}</r>`,
		`FOR $g IN /root/group RETURN <g>{FOR $e IN $g//entry ORDER BY $e/num DESCENDING RETURN $e/@key}</g>`,
		`FOR $e IN //entry ORDER BY $e/@key RETURN number($e/price)`,
		// A clause source sees the clauses before it in the current tuple,
		// never its own or a later clause's binding from the previous one:
		// over two groups or more, both fail with an unbound $a.
		`FOR $g IN /root/group LET $a := (if ($g/@id = "g0") then "first" else $a) RETURN $a`,
		`FOR $g IN /root/group, $a IN (if ($g/@id = "g0") then /root/group else $a) RETURN $a/@id`,
		// Emission templates: literal text and markup to escape, nested and
		// empty elements, element, attribute and text content, a top-level
		// constructor, and a LET-FLWOR of constructors that is only written
		// out and counted beside one that is atomized.
		`FOR $e IN //entry RETURN <e a="x&amp;{$e/label/text()}&lt;" b="{$e/nested}">k &lt; {$e/@key} <n>{$e/price/text()}</n><z/>{$e/nested/label}</e>`,
		`<all n="{count(//entry)}">{/root/group[1]/entry[1]/label}<none>{//missing}</none></all>`,
		`FOR $g IN /root/group LET $l := FOR $e IN $g//entry RETURN <l k="{$e/@key}">{$e/label/text()}</l> RETURN <g n="{count($l)}">{$l}</g>`,
		`FOR $g IN /root/group LET $l := FOR $e IN $g/entry RETURN <l>{$e/label/text()}</l> RETURN <g s="{$l}"/>`,
		// A zero divisor, and one that truncates to zero, fail the query.
		`FOR $e IN //entry RETURN $e/num mod 0`,
		`count(//entry) mod 0.5`,
		// String-function restricts: a leaf's text scanned from a FOR clause
		// and a step predicate, a negation and a nested FLWOR; paths that
		// repeat (nested), reach text at several paths (entry) or start from
		// bindings that nest (//entry) stay per tuple.
		`FOR $e IN //group/entry WHERE contains($e/label, "ph") RETURN $e/@key`,
		`//group/entry[starts-with(label, "g")]/num/text()`,
		`FOR $e IN //group/entry WHERE ends-with($e/nested/label, "x") AND $e/num >= 10 RETURN $e/@key`,
		`FOR $e IN //group/entry WHERE contains($e/entry, "memo") RETURN $e/@key`,
		`FOR $g IN //group RETURN <g>{FOR $e IN $g/entry WHERE not(contains($e/label, "a")) RETURN $e/@key}</g>`,
		`count(//entry[contains(label, "l")])`,
		// Numbers compared as numbers: number(), string-length(), count()
		// and arithmetic; number() of a label fails; NaN equals nothing.
		`FOR $e IN //group/entry WHERE number($e/num) * 2 >= string-length($e/label) * 10 + count($e/nested) RETURN $e/num/text()`,
		`FOR $e IN //group/entry WHERE number($e/label) > 1 RETURN 1`,
		`(0 div 0 = 1, 0 div 0 >= 1, 0 div 0 = 0 div 0, 0 div 0 != 0 div 0, 0 div 0 < count(//entry), "NaN" = "NaN")`,
	}
}
