package vm

import (
	"context"
	"strings"
	"testing"

	"xquec/internal/engine"
	"xquec/internal/xquery"
)

// FuzzCompile feeds arbitrary query text through the full
// parse→compile→run pipeline and cross-checks the compiled program
// against the DOM reference: any input that parses must compile — a
// compile error is a query the user cannot run — and, whenever both
// sides run, produce byte-identical output. A failure only one side hits
// is accepted in two cases. A variable (or the context item) that nothing
// binds is a static error, and whether a run meets it depends on the
// order of evaluation, which the compiler chooses. And the reference,
// which evaluates every WHERE conjunct and LET of every tuple in order,
// may fail where the program does not when the program may first drop
// the tuple on a restrict (reorders) — XQuery allows either. Every
// program's listing is rendered too, and a lone path it lists statically
// empty must return nothing. The seed corpus is the unit battery, so `go
// test` alone replays every compiled construct through the differential
// check, plus deep nestings: any text parses to an error or a tree the
// compiler and both evaluators take, never to a stack overflow.
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
	// Deep nesting: past the parser's depth limit, and inside both it and
	// the length bound.
	f.Add(strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000))
	f.Add(strings.Repeat("-", 990) + "1")
	f.Add(strings.Repeat("<e>{", 100) + "/site/people/person[1]/name" + strings.Repeat("}</e>", 100))
	s := store(f)
	f.Fuzz(func(t *testing.T, query string) {
		expr, err := xquery.Parse(query)
		if err != nil || len(query) > 1024 {
			return // long inputs only parse: they keep eval cost bounded and add no coverage
		}
		prog, err := engine.Compile(expr, s, query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		got, vErr := func() (string, error) {
			res, err := prog.Run(context.Background())
			if err != nil {
				return "", err
			}
			defer res.Close()
			return serialize(res)
		}()
		dis := prog.Disassemble()
		if _, isPath := expr.(*xquery.PathExpr); isPath && strings.Contains(dis, "statically empty") && got != "" {
			t.Fatalf("%q returns %q, but its listing says statically empty:\n%s", query, got, dis)
		}
		want, wErr := evalRef(t, query)
		switch {
		case vErr == nil && wErr == nil:
		case len(xquery.FreeVars(expr)) > 0:
			return
		case wErr != nil && vErr == nil && reorders(expr):
			return
		}
		if err := differ(want, wErr, got, vErr); err != "" {
			t.Fatalf("%q: %s", query, err)
		}
	})
}

// reorders reports that the program may skip work the reference does in
// some FLWOR of x: a WHERE conjunct the planner pushes into a clause's
// domain (pushable) while another conjunct stands beside it, which the
// program may then never evaluate for a tuple the pushdown dropped, or a
// LET nothing after it reads.
func reorders(x xquery.Expr) bool {
	found := false
	xquery.Walk(x, func(sub xquery.Expr) {
		f, isFLWOR := sub.(*xquery.FLWOR)
		if !isFLWOR || found {
			return
		}
		forVars := map[string]bool{}
		for _, cl := range f.Clauses {
			if !cl.Let {
				forVars[cl.Var] = true
			}
		}
		conjs := conjuncts(f.Where)
		for _, c := range conjs {
			if len(conjs) > 1 && pushable(c, forVars) {
				found = true
			}
		}
		for ci, cl := range f.Clauses {
			rest := &xquery.FLWOR{Clauses: f.Clauses[ci+1:], Where: f.Where, OrderBy: f.OrderBy, Return: f.Return}
			if cl.Let && !xquery.FreeVars(rest)[cl.Var] {
				found = true
			}
		}
	})
	return found
}

// conjuncts flattens a WHERE tree of ANDs.
func conjuncts(where xquery.Expr) []xquery.Expr {
	if where == nil {
		return nil
	}
	if l, isLogic := where.(*xquery.Logic); isLogic && l.Op == "and" {
		return append(conjuncts(l.Left), conjuncts(l.Right)...)
	}
	return []xquery.Expr{where}
}

// pushable reports whether the FLWOR planner assigns conj to a FOR
// clause of forVars rather than leaving it a per-tuple filter: a literal
// restrict (`$v/rel op literal` either way round, or contains,
// starts-with or ends-with of `$v/rel` and a non-empty string) or an
// equality join of two variables' paths, one of them in forVars.
func pushable(conj xquery.Expr, forVars map[string]bool) bool {
	onFor := func(x xquery.Expr) bool {
		p, isPath := x.(*xquery.PathExpr)
		return isPath && forVars[p.Var]
	}
	isLit := func(x xquery.Expr) bool {
		switch x.(type) {
		case *xquery.StringLit, *xquery.NumberLit:
			return true
		}
		return false
	}
	switch c := conj.(type) {
	case *xquery.Call:
		fn := c.Name == "contains" || c.Name == "starts-with" || c.Name == "ends-with"
		if !fn || len(c.Args) != 2 {
			return false
		}
		s, isStr := c.Args[1].(*xquery.StringLit)
		return isStr && s.Val != "" && onFor(c.Args[0])
	case *xquery.Cmp:
		if onFor(c.Left) && isLit(c.Right) || onFor(c.Right) && isLit(c.Left) {
			return true
		}
		lp, lok := c.Left.(*xquery.PathExpr)
		rp, rok := c.Right.(*xquery.PathExpr)
		return c.Op == "=" && lok && rok && lp.Var != "" && rp.Var != "" &&
			lp.Var != "." && rp.Var != "." && (forVars[lp.Var] || forVars[rp.Var])
	}
	return false
}
