package xquery

// Walk visits every node of the AST in pre-order — clauses, step
// predicates, constructor attribute values and nested content included.
// It is the shared traversal under the scatter analyzers (shard and
// segment) and any other static inspection of a parsed query.
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
