package vm

import (
	"testing"

	"xquec/internal/engine"
	"xquec/internal/xquery"
)

// FuzzCompile feeds arbitrary query text through the full
// parse→compile→run pipeline and cross-checks the compiled program
// against the DOM reference: any input that parses must compile — a
// compile error is a query the user cannot run — and produce
// byte-identical output, failing only where the reference fails. The
// reference may fail where the program does not: it evaluates every
// WHERE conjunct and LET of every tuple in order, while the program may
// first drop the tuple on a restrict, or skip a LET nothing reads, which
// XQuery allows (errors and optimization). The seed corpus is the unit
// battery, so `go test` alone replays every compiled construct through
// the differential check.
func FuzzCompile(f *testing.F) {
	for _, q := range queryBattery() {
		f.Add(q.Text)
	}
	f.Add(`FOR $x IN /site/a LET $y := $x/b WHERE $y > 1 + 2 RETURN <r>{$y}</r>`)
	f.Add(`(1 + 2 * 3, "lit", /site/people)`)
	f.Add(`FOR $x IN /a FOR $y IN /b WHERE $x/@id = $y/@ref RETURN $x`)
	// ORDER BY: collect, sort on ranks or decoded keys, replay.
	f.Add(`FOR $p IN /site/people/person ORDER BY $p/@id RETURN $p/name/text()`)
	f.Add(`FOR $i IN /site/regions//item ORDER BY $i/location/text() DESCENDING RETURN <i>{$i/name/text()}</i>`)
	f.Add(`FOR $p IN /site/people/person LET $a := $p/profile/age WHERE $a >= 30 ORDER BY $p/name RETURN <p a="{$a}"/>`)
	f.Add(`FOR $o IN /site/open_auctions/open_auction ORDER BY $o/initial RETURN number($o/reserve)`)
	f.Add(`FOR $p IN /site/people/person, $w IN $p/watches/watch ORDER BY $p DESCENDING RETURN $w/@open_auction`)
	s := store(f)
	f.Fuzz(func(t *testing.T, query string) {
		if len(query) > 1024 {
			return // keep eval cost bounded; long inputs add no coverage
		}
		expr, err := xquery.Parse(query)
		if err != nil {
			return
		}
		prog, err := Compile(expr, s, query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		if len(engine.FreeVars(expr)) > 0 {
			// A variable (or the context item) that nothing binds is a
			// static error; whether a run meets it depends on the order of
			// evaluation, which the compiler chooses.
			return
		}
		got, vErr := func() (string, error) {
			res, err := prog.Run(RunOptions{})
			if err != nil {
				return "", err
			}
			defer res.Close()
			return res.SerializeXML()
		}()
		want, wErr := evalRef(t, query)
		if wErr != nil && vErr == nil {
			return
		}
		if err := differ(want, wErr, got, vErr); err != "" {
			t.Fatalf("%q: %s", query, err)
		}
	})
}
