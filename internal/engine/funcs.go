package engine

import (
	"fmt"
	"strings"

	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// evalCall implements the function library the XMark workload needs.
func (e *Engine) evalCall(x *xquery.Call, env *scope) (Seq, error) {
	switch x.Name {
	case "count":
		n, err := e.argLen(x, env)
		return Seq{float64(n)}, err
	case "sum", "avg", "min", "max":
		v, err := e.evalArg(x, 0, env)
		if err != nil {
			return nil, err
		}
		atoms, err := e.atomize(v)
		if err != nil {
			return nil, err
		}
		if len(atoms) == 0 {
			if x.Name == "sum" {
				return Seq{0.0}, nil
			}
			return nil, nil // empty sequence
		}
		var agg float64
		for i, a := range atoms {
			f, ok := parseNum(a)
			if !ok {
				return nil, fmt.Errorf("engine: %s over non-numeric value %q", x.Name, a)
			}
			switch {
			case i == 0:
				agg = f
			case x.Name == "min" && f < agg:
				agg = f
			case x.Name == "max" && f > agg:
				agg = f
			case x.Name == "sum" || x.Name == "avg":
				agg += f
			}
		}
		if x.Name == "avg" {
			agg /= float64(len(atoms))
		}
		return Seq{agg}, nil
	case "contains", "starts-with", "ends-with":
		a, err := e.argString(x, 0, env)
		if err != nil {
			return nil, err
		}
		b, err := e.argString(x, 1, env)
		if err != nil {
			return nil, err
		}
		switch x.Name {
		case "contains":
			return Seq{strings.Contains(a, b)}, nil
		case "starts-with":
			return Seq{strings.HasPrefix(a, b)}, nil
		default:
			return Seq{strings.HasSuffix(a, b)}, nil
		}
	case "not":
		b, err := e.argBool(x, 0, env)
		if err != nil {
			return nil, err
		}
		return Seq{!b}, nil
	case "empty", "exists":
		b, err := e.evalBool(x, env)
		return Seq{b}, err
	case "string":
		s, err := e.argString(x, 0, env)
		if err != nil {
			return nil, err
		}
		return Seq{s}, nil
	case "number":
		s, err := e.argString(x, 0, env)
		if err != nil {
			return nil, err
		}
		f, ok := parseNum(s)
		if !ok {
			return nil, fmt.Errorf("engine: number(%q) is not numeric", s)
		}
		return Seq{f}, nil
	case "string-length":
		s, err := e.argString(x, 0, env)
		if err != nil {
			return nil, err
		}
		return Seq{float64(len(s))}, nil
	case "concat":
		var sb strings.Builder
		for i := range x.Args {
			s, err := e.argString(x, i, env)
			if err != nil {
				return nil, err
			}
			sb.WriteString(s)
		}
		return Seq{sb.String()}, nil
	case "string-join":
		v, err := e.evalArg(x, 0, env)
		if err != nil {
			return nil, err
		}
		atoms, err := e.atomize(v)
		if err != nil {
			return nil, err
		}
		sep, err := e.argString(x, 1, env)
		if err != nil {
			return nil, err
		}
		return Seq{strings.Join(atoms, sep)}, nil
	case "distinct-values":
		v, err := e.evalArg(x, 0, env)
		if err != nil {
			return nil, err
		}
		atoms, err := e.atomize(v)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out Seq
		for _, a := range atoms {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		return out, nil
	case "if":
		cond, err := e.argBool(x, 0, env)
		if err != nil {
			return nil, err
		}
		if cond {
			return e.evalArg(x, 1, env)
		}
		return e.evalArg(x, 2, env)
	case "zero-or-one", "exactly-one", "data":
		return e.evalArg(x, 0, env)
	case "last":
		return nil, fmt.Errorf("engine: last() is only supported inside positional predicates")
	}
	return nil, fmt.Errorf("engine: unknown function %s()", x.Name)
}

func (e *Engine) evalArg(x *xquery.Call, i int, env *scope) (Seq, error) {
	if i >= len(x.Args) {
		return nil, fmt.Errorf("engine: %s() needs at least %d arguments", x.Name, i+1)
	}
	return e.eval(x.Args[i], env)
}

// argLen returns the length of the first argument's value; a path is
// counted on its node set, with no item ever boxed.
func (e *Engine) argLen(x *xquery.Call, env *scope) (int, error) {
	if len(x.Args) > 0 {
		if p, isPath := x.Args[0].(*xquery.PathExpr); isPath {
			st, _, err := e.evalPathNodes(p, env)
			return len(st.nodes), err
		}
	}
	v, err := e.evalArg(x, 0, env)
	return len(v), err
}

// leafOnly reports that sums is known and no instance of it has element
// children, so an instance's string value is its immediate text.
func leafOnly(sums []*storage.SummaryNode) bool {
	if len(sums) == 0 {
		return false
	}
	for _, sn := range sums {
		for _, c := range sn.Children {
			if c.Tag != "#text" && !strings.HasPrefix(c.Tag, "@") {
				return false
			}
		}
	}
	return true
}

func (e *Engine) argString(x *xquery.Call, i int, env *scope) (string, error) {
	if i >= len(x.Args) {
		return "", fmt.Errorf("engine: %s() needs at least %d arguments", x.Name, i+1)
	}
	return e.firstString(x.Args[i], env)
}

// firstString returns the string value of the first item of x's value,
// "" when it is empty (XPath 1.0 style, which is what the paper-era
// queries assume). Only that item is decoded.
func (e *Engine) firstString(x xquery.Expr, env *scope) (string, error) {
	if p, isPath := x.(*xquery.PathExpr); isPath {
		st, textTail, err := e.evalPathNodes(p, env)
		if err != nil || len(st.nodes) == 0 {
			return "", err
		}
		e.sbuf, err = e.appendNodeValue(e.sbuf[:0], st.nodes[0], textTail || leafOnly(st.sums))
		return string(e.sbuf), err
	}
	v, err := e.eval(x, env)
	if err != nil || len(v) == 0 {
		return "", err
	}
	return e.stringValue(v[0])
}

func (e *Engine) argBool(x *xquery.Call, i int, env *scope) (bool, error) {
	v, err := e.evalArg(x, i, env)
	if err != nil {
		return false, err
	}
	return e.effectiveBool(v)
}
