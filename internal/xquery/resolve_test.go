package xquery

import (
	"testing"

	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// TestBindersResolved holds Parse's binder slots to a walk of the scopes
// by name, written here apart from the parser: every clause is numbered
// one after the clauses built before it — its source's first — and every
// reference, a VarRef or a path's origin variable, records the innermost
// clause of its name in scope where it stands, 0 when there is none. The
// corpus is every query the repository's differential tests run: the
// xmarkq corpora (the internal/vm battery's among them), the engine's
// random-document battery (datagen.RecordQueries) and a few shadowing
// shapes.
func TestBindersResolved(t *testing.T) {
	var qs []string
	for _, corpus := range [][]xmarkq.Query{xmarkq.Queries(), xmarkq.ExtendedQueries(), xmarkq.Shapes(), xmarkq.NestedFLWORs(), xmarkq.StringRestricts()} {
		for _, q := range corpus {
			qs = append(qs, q.Text)
		}
	}
	qs = append(qs, datagen.RecordQueries()...)
	qs = append(qs,
		`FOR $a IN /x LET $a := $a/y FOR $a IN $a/z RETURN ($a, $b)`,
		`(FOR $a IN /x RETURN $a, $a)`,
		`FOR $a IN /x RETURN <r a="{$a/@id}">{FOR $a IN $a/y[. = $a] RETURN $a/z[@k = $a/@k]}</r>`,
		`FOR $p IN /p RETURN count(FOR $p IN /q[r = $p/@id] LET $k := $p/k ORDER BY $k RETURN $p)`,
	)
	refs := 0
	for _, q := range qs {
		x, err := Parse(q)
		if err != nil {
			continue // a parse error is some battery's case; it has no slots
		}
		w := &scopeWalk{t: t, q: q}
		w.walk(x, nil)
		refs += w.refs
	}
	if refs < len(qs) {
		t.Errorf("%d queries hold %d references in all", len(qs), refs)
	}
}

// scopeWalk walks one query with the clauses in scope, innermost last.
type scopeWalk struct {
	t             *testing.T
	q             string
	clauses, refs int
}

// innermost is the Binder a reference to name must record under scope.
func innermost(scope []Clause, name string) int {
	for i := len(scope) - 1; i >= 0; i-- {
		if scope[i].Var == name {
			return scope[i].Binder
		}
	}
	return 0
}

func (w *scopeWalk) walk(x Expr, scope []Clause) {
	switch e := x.(type) {
	case *FLWOR:
		inner := append([]Clause(nil), scope...)
		for _, cl := range e.Clauses {
			w.walk(cl.Seq, inner)
			if w.clauses++; cl.Binder != w.clauses {
				w.t.Errorf("%s: clause $%s has binder %d, want %d", w.q, cl.Var, cl.Binder, w.clauses)
			}
			inner = append(inner, cl)
		}
		for _, sub := range []Expr{e.Where, e.OrderBy, e.Return} {
			if sub != nil {
				w.walk(sub, inner)
			}
		}
		return
	case *VarRef:
		w.refs++
		if got, want := e.Binder, innermost(scope, e.Name); got != want {
			w.t.Errorf("%s: $%s has binder %d, want %d", w.q, e.Name, got, want)
		}
	case *PathExpr:
		wantBinder := 0
		if e.Var != "" && e.Var != "." {
			w.refs++
			wantBinder = innermost(scope, e.Var)
		}
		if e.Binder != wantBinder {
			w.t.Errorf("%s: path %s has binder %d, want %d", w.q, e, e.Binder, wantBinder)
		}
	}
	for _, sub := range Children(x) {
		w.walk(sub, scope)
	}
}
