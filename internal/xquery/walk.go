package xquery

// Walk visits every node of the AST in pre-order — clauses, step
// predicates, constructor attribute values and nested content included:
// a static inspection of a parsed query that needs no scope.
func Walk(expr Expr, fn func(Expr)) {
	if expr == nil {
		return
	}
	fn(expr)
	for _, c := range Children(expr) {
		Walk(c, fn)
	}
}

// Children returns the direct sub-expressions of expr in evaluation
// order (for a FLWOR: clause sources, WHERE, ORDER BY, RETURN; for a
// path: its step predicates), so a traversal that tracks scope can
// recurse on its own terms. Absent optional parts are skipped.
func Children(expr Expr) []Expr {
	var out []Expr
	switch x := expr.(type) {
	case *FLWOR:
		for _, c := range x.Clauses {
			out = append(out, c.Seq)
		}
		for _, sub := range []Expr{x.Where, x.OrderBy, x.Return} {
			if sub != nil {
				out = append(out, sub)
			}
		}
	case *PathExpr:
		for _, st := range x.Steps {
			out = append(out, st.Preds...)
		}
	case *Cmp:
		out = []Expr{x.Left, x.Right}
	case *Logic:
		out = []Expr{x.Left, x.Right}
	case *Arith:
		out = []Expr{x.Left, x.Right}
	case *Call:
		out = x.Args
	case *ElementCtor:
		for _, a := range x.Attrs {
			out = append(out, a.Value...)
		}
		out = append(out, x.Content...)
	case *Sequence:
		out = x.Items
	}
	return out
}

// FreeVars returns the variables x refers to without binding them (the
// context item counts as the pseudo-variable "."). Step predicates bind
// "." locally; FLWOR clauses bind their variables for later clauses and
// the tail.
func FreeVars(x Expr) map[string]bool {
	free := map[string]bool{}
	addFree(x, nil, free)
	return free
}

func addFree(x Expr, bound map[string]bool, free map[string]bool) {
	switch e := x.(type) {
	case nil:
		return
	case *VarRef:
		if !bound[e.Name] {
			free[e.Name] = true
		}
	case *PathExpr:
		if e.Var != "" && !bound[e.Var] {
			free[e.Var] = true
		}
		var pb map[string]bool
		for _, st := range e.Steps {
			if len(st.Preds) == 0 {
				continue
			}
			if pb == nil {
				pb = withBound(bound, ".")
			}
			for _, pr := range st.Preds {
				addFree(pr, pb, free)
			}
		}
	case *FLWOR:
		b := bound
		for _, cl := range e.Clauses {
			addFree(cl.Seq, b, free)
			b = withBound(b, cl.Var)
		}
		addFree(e.Where, b, free)
		addFree(e.OrderBy, b, free)
		addFree(e.Return, b, free)
	default:
		for _, sub := range Children(x) {
			addFree(sub, bound, free)
		}
	}
}

func withBound(bound map[string]bool, name string) map[string]bool {
	out := make(map[string]bool, len(bound)+1)
	for k := range bound {
		out[k] = true
	}
	out[name] = true
	return out
}
