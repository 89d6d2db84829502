package engine

import (
	"fmt"
	"strings"

	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// evalCall implements the function library the XMark workload needs.
func (e *engine) evalCall(x *xquery.Call, env *scope) (seq, error) {
	switch x.Name {
	case "count":
		n, err := e.argLen(x, env)
		return seq{float64(n)}, err
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
				return seq{0.0}, nil
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
		return seq{agg}, nil
	case "contains", "starts-with", "ends-with":
		b, err := e.stringTest(x, env)
		if err != nil {
			return nil, err
		}
		return seq{b}, nil
	case "not":
		b, err := e.argBool(x, 0, env)
		if err != nil {
			return nil, err
		}
		return seq{!b}, nil
	case "empty", "exists":
		b, err := e.evalBool(x, env)
		return seq{b}, err
	case "string":
		s, err := e.argString(x, 0, env)
		if err != nil {
			return nil, err
		}
		return seq{s}, nil
	case "number", "string-length":
		f, err := e.evalNum(x, env)
		if err != nil {
			return nil, err
		}
		return seq{f}, nil
	case "concat":
		var sb strings.Builder
		for i := range x.Args {
			s, err := e.argString(x, i, env)
			if err != nil {
				return nil, err
			}
			sb.WriteString(s)
		}
		return seq{sb.String()}, nil
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
		return seq{strings.Join(atoms, sep)}, nil
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
		var out seq
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

func (e *engine) evalArg(x *xquery.Call, i int, env *scope) (seq, error) {
	if i >= len(x.Args) {
		return nil, fmt.Errorf("engine: %s() needs at least %d arguments", x.Name, i+1)
	}
	return e.eval(x.Args[i], env)
}

// argLen returns the length of the first argument's value: by the
// call's cardinality rule when the compiler chose one and the run's
// binding is the one it was chosen for (cardinality), else a path is
// counted on its node set and a variable on its binding, with no item
// ever boxed.
func (e *engine) argLen(x *xquery.Call, env *scope) (int, error) {
	if r := e.cards[x]; r != nil {
		if n, ok, err := e.cardinality(r, env); ok {
			return n, err
		}
	}
	if len(x.Args) > 0 {
		switch a := x.Args[0].(type) {
		case *xquery.PathExpr:
			nodes, _, _, err := e.evalPathNodes(a, env)
			return len(nodes), err
		case *xquery.VarRef:
			if b := env.of(a.Binder); b != nil {
				return b.len(), nil
			}
		}
	}
	v, err := e.evalArg(x, 0, env)
	return len(v), err
}

func (e *engine) argString(x *xquery.Call, i int, env *scope) (string, error) {
	b, err := e.argBytes(x, i, env)
	return string(b), err
}

// argBytes decodes the string value of the first item of argument i into
// sbuf ("" when the value is empty, XPath 1.0 style, which is what the
// paper-era queries assume); the bytes are valid until the next decode.
// Only that item is decoded.
func (e *engine) argBytes(x *xquery.Call, i int, env *scope) ([]byte, error) {
	if i >= len(x.Args) {
		return nil, fmt.Errorf("engine: %s() needs at least %d arguments", x.Name, i+1)
	}
	buf := e.sbuf[:0]
	e.sbuf = nil // detached: an argument that decodes too takes a buffer of its own
	buf, err := e.appendFirst(buf, x.Args[i], env)
	e.sbuf = buf
	return buf, err
}

// appendFirst appends the string value of the first item of x's value
// to dst, nothing when the value is empty.
func (e *engine) appendFirst(dst []byte, x xquery.Expr, env *scope) ([]byte, error) {
	switch x := x.(type) {
	case *xquery.PathExpr:
		nodes, sums, textTail, err := e.evalPathNodes(x, env)
		if err != nil || len(nodes) == 0 {
			return dst, err
		}
		return e.appendNodeValue(dst, nodes[0], readOf(sums, textTail))
	case *xquery.StringLit:
		return append(dst, x.Val...), nil
	}
	v, err := e.eval(x, env)
	if err != nil || len(v) == 0 {
		return dst, err
	}
	if id, isNode := v[0].(storage.NodeID); isNode {
		return e.appendNodeValue(dst, id, deepValue)
	}
	a, err := e.stringValue(v[0])
	return append(dst, a...), err
}

// stringTest evaluates contains, starts-with or ends-with on the string
// values of its arguments' first items, decoded into sbuf and tbuf.
func (e *engine) stringTest(x *xquery.Call, env *scope) (bool, error) {
	a, err := e.argBytes(x, 0, env)
	if err != nil {
		return false, err
	}
	// a's buffer is held here alone while argument 1 decodes into tbuf's.
	e.sbuf, e.tbuf = e.tbuf, nil
	b, err := e.argBytes(x, 1, env)
	e.sbuf, e.tbuf = a, b
	if err != nil {
		return false, err
	}
	return stringFunc(x.Name)(a, b), nil
}

// number is number(): the string value of its argument's first item,
// decoded into sbuf, as a number.
func (e *engine) number(x *xquery.Call, env *scope) (float64, error) {
	b, err := e.argBytes(x, 0, env)
	if err != nil {
		return 0, err
	}
	f, ok := parseNumBytes(b)
	if !ok {
		return 0, fmt.Errorf("engine: number(%q) is not numeric", b)
	}
	return f, nil
}

func (e *engine) argBool(x *xquery.Call, i int, env *scope) (bool, error) {
	v, err := e.evalArg(x, i, env)
	if err != nil {
		return false, err
	}
	return e.effectiveBool(v)
}
