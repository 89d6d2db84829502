package engine

import (
	"math/rand"
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/storage"
)

// queryBattery is the fixed set of query shapes run on every random
// document.
var queryBattery = []string{
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
}

// TestRandomDifferentialAfterReload repeats a slice of the battery on a
// repository that went through serialize + reload.
func TestRandomDifferentialAfterReload(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		doc := datagen.RandomRecords(rng)
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := storage.LoadBinary(s.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		e1, e2 := New(s), New(s2)
		for _, q := range queryBattery[:10] {
			r1, err1 := e1.Query(q)
			r2, err2 := e2.Query(q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("reload error mismatch on %s: %v vs %v", q, err1, err2)
			}
			if err1 != nil {
				continue
			}
			s1, _ := r1.SerializeXML()
			s2x, _ := r2.SerializeXML()
			if s1 != s2x {
				t.Fatalf("reload result mismatch on %s", q)
			}
		}
	}
}
