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

// FreeVars returns the binders x reads from outside itself, by slot
// (Clause.Binder). Slot 0 stands for a variable nothing binds and for the
// context item read outside x's own step predicates, which bind it.
func FreeVars(x Expr) map[int]bool {
	bound := map[int]bool{}
	Walk(x, func(sub Expr) {
		if f, isFLWOR := sub.(*FLWOR); isFLWOR {
			for _, cl := range f.Clauses {
				bound[cl.Binder] = true
			}
		}
	})
	free := map[int]bool{}
	addFree(x, false, bound, free)
	return free
}

func addFree(x Expr, inPred bool, bound, free map[int]bool) {
	switch e := x.(type) {
	case *VarRef:
		if !bound[e.Binder] {
			free[e.Binder] = true
		}
	case *PathExpr:
		switch {
		case e.Var == ".":
			if !inPred {
				free[0] = true
			}
		case e.Var != "" && !bound[e.Binder]:
			free[e.Binder] = true
		}
		for _, st := range e.Steps {
			for _, pr := range st.Preds {
				addFree(pr, true, bound, free)
			}
		}
		return
	}
	for _, sub := range Children(x) {
		addFree(sub, inPred, bound, free)
	}
}
