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
	// Variable-rooted paths: the summary-extent range lookup where the
	// variable's summary set is an antichain ($g, and $e over one level
	// of entries), the step-by-step route where it is not ($e over
	// //entry, $n over //nested).
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
