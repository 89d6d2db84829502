package workload

import (
	"strings"

	"xquec/internal/xquery"
)

// FromQueries derives the workload W directly from a set of XQuery
// queries — the paper's setting, where W is the application's query
// set. It statically resolves each variable to its binding path and
// records every value comparison as an equality / inequality / prefix
// predicate over the container paths involved. Comparisons whose paths
// cannot be resolved statically are skipped (they simply contribute no
// compression preference).
func FromQueries(queries ...string) (*Workload, error) {
	w := &Workload{}
	for _, q := range queries {
		expr, err := xquery.Parse(q)
		if err != nil {
			return nil, err
		}
		x := extractor{w: w, vars: map[int]string{}}
		x.walk(expr)
	}
	return w, nil
}

// extractor walks one query, tracking the static absolute path of each
// variable, by its binder slot (xquery.Clause.Binder), and of the context
// item where the walk stands ("" when unknown).
type extractor struct {
	w    *Workload
	vars map[int]string
	ctx  string
}

func (x *extractor) walk(expr xquery.Expr) {
	switch e := expr.(type) {
	case *xquery.FLWOR:
		for _, cl := range e.Clauses {
			if p, isPath := cl.Seq.(*xquery.PathExpr); isPath {
				x.vars[cl.Binder] = x.resolve(p, false)
			} else {
				x.walk(cl.Seq)
			}
		}
		if e.Where != nil {
			x.walk(e.Where)
		}
		if e.OrderBy != nil {
			x.walk(e.OrderBy)
		}
		x.walk(e.Return)
	case *xquery.Logic:
		x.walk(e.Left)
		x.walk(e.Right)
	case *xquery.Arith:
		x.walk(e.Left)
		x.walk(e.Right)
	case *xquery.Cmp:
		x.comparison(e)
	case *xquery.Call:
		x.call(e)
	case *xquery.ElementCtor:
		for _, a := range e.Attrs {
			for _, part := range a.Value {
				x.walk(part)
			}
		}
		for _, c := range e.Content {
			x.walk(c)
		}
	case *xquery.Sequence:
		for _, it := range e.Items {
			x.walk(it)
		}
	case *xquery.PathExpr:
		// Paths inside predicates are handled by their enclosing
		// comparisons; bare paths contribute nothing.
		for i, st := range e.Steps {
			for _, p := range st.Preds {
				// Step predicates compare relative to the step's node:
				// re-root relative paths under the (statically known)
				// prefix of this path.
				if prefix := x.resolvePrefix(e, i); prefix != "" {
					ctx := x.ctx
					x.ctx = prefix
					x.walk(p)
					x.ctx = ctx
				}
			}
		}
	}
}

// comparison records a predicate for cmp when at least one side is a
// resolvable value path.
func (x *extractor) comparison(e *xquery.Cmp) {
	lp := x.valuePath(e.Left)
	rp := x.valuePath(e.Right)
	_, lLit := literal(e.Left)
	_, rLit := literal(e.Right)
	kind := Eq
	if e.Op != "=" && e.Op != "!=" {
		kind = Ineq
	}
	switch {
	case lp != "" && rp != "":
		x.w.Add(Predicate{Kind: kind, Left: lp, Right: rp})
	case lp != "" && rLit:
		x.w.Add(Predicate{Kind: kind, Left: lp})
	case rp != "" && lLit:
		x.w.Add(Predicate{Kind: kind, Left: rp})
	}
	// Nested expressions may hold further comparisons.
	if !lLit && lp == "" {
		x.walk(e.Left)
	}
	if !rLit && rp == "" {
		x.walk(e.Right)
	}
}

// call records prefix predicates for starts-with and recurses into
// arguments otherwise.
func (x *extractor) call(e *xquery.Call) {
	if e.Name == "starts-with" && len(e.Args) == 2 {
		if p := x.valuePath(e.Args[0]); p != "" {
			x.w.WildConst(p)
			return
		}
	}
	for _, a := range e.Args {
		x.walk(a)
	}
}

func literal(e xquery.Expr) (string, bool) {
	switch v := e.(type) {
	case *xquery.StringLit:
		return v.Val, true
	case *xquery.NumberLit:
		return "", true
	}
	return "", false
}

// valuePath resolves an expression to the container path its value
// lives in, or "".
func (x *extractor) valuePath(e xquery.Expr) string {
	p, isPath := e.(*xquery.PathExpr)
	if !isPath {
		if c, isCall := e.(*xquery.Call); isCall && (c.Name == "number" || c.Name == "string" || c.Name == "data") && len(c.Args) == 1 {
			return x.valuePath(c.Args[0])
		}
		return ""
	}
	return x.resolve(p, true)
}

// resolve turns a path expression into an absolute path string;
// asValue appends the "#text" leaf for element-ended paths.
func (x *extractor) resolve(p *xquery.PathExpr, asValue bool) string {
	base := x.origin(p)
	if p.Var != "" && base == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(base)
	endsOnAttr := false
	endsOnText := false
	for _, st := range p.Steps {
		if st.Axis == xquery.AxisDescendantOrSelf {
			return "" // not statically resolvable to one path
		}
		switch st.Test {
		case xquery.TestAttr:
			sb.WriteString("/@")
			sb.WriteString(st.Name)
			endsOnAttr = true
		case xquery.TestText:
			sb.WriteString("/#text")
			endsOnText = true
		case xquery.TestName:
			if st.Name == "*" {
				return ""
			}
			sb.WriteByte('/')
			sb.WriteString(st.Name)
			endsOnAttr = false
			endsOnText = false
		}
	}
	out := sb.String()
	if out == "" {
		return ""
	}
	if asValue && !endsOnAttr && !endsOnText {
		out += "/#text"
	}
	return out
}

// origin returns the static absolute path of p's origin: its variable's
// or the context item's, "" when unknown or p is absolute.
func (x *extractor) origin(p *xquery.PathExpr) string {
	if p.Var == "." {
		return x.ctx
	}
	return x.vars[p.Binder]
}

// resolvePrefix resolves the path up to (and including) step index
// until, used to scope step-predicate extraction.
func (x *extractor) resolvePrefix(p *xquery.PathExpr, until int) string {
	base := x.origin(p)
	if p.Var != "" && base == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(base)
	for i := 0; i <= until && i < len(p.Steps); i++ {
		st := p.Steps[i]
		if st.Axis == xquery.AxisDescendantOrSelf || st.Test != xquery.TestName || st.Name == "*" {
			return ""
		}
		sb.WriteByte('/')
		sb.WriteString(st.Name)
	}
	return sb.String()
}
