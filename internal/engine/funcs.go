package engine

import (
	"fmt"
	"strconv"
	"strings"

	"xquec/internal/xquery"
)

// The function library the XMark workload needs: the compiler lowers
// each call to the node of its built-in, so a run never looks a function
// up by name.

// call lowers x to the node of its built-in. An argument the built-in
// reads but the call lacks is a node that fails when it is evaluated, as
// is a function the engine does not know.
func (c *compiler) call(x *xquery.Call) node {
	if n := c.cardCall(x); n != nil {
		return n
	}
	args := c.lowerAll(x.Args)
	arg := func(i int) node {
		for len(args) <= i {
			args = append(args, newNode(&failNode{err: fmt.Errorf("engine: %s() needs at least %d arguments", x.Name, len(args)+1)}))
		}
		return args[i]
	}
	// items is a built-in whose items f computes from its arguments, of
	// which it reads the first k.
	items := func(k int, f func(n *callNode, e *engine, dst seq) (seq, error)) node {
		if k > 0 {
			arg(k - 1)
		}
		return newNode(&callNode{name: x.Name, args: args, f: f}, args...)
	}
	switch x.Name {
	case "sum", "avg", "min", "max":
		return items(1, aggregate)
	case "contains", "starts-with", "ends-with":
		return newNode(&strTestNode{f: stringFunc(x.Name), a: arg(0), b: arg(1)}, arg(0), arg(1))
	case "not":
		return newNode(&notNode{arg: arg(0)}, arg(0))
	case "number":
		return newNode(&bytesNum{arg: arg(0), f: number}, arg(0))
	case "string-length":
		return newNode(&bytesNum{arg: arg(0), f: func(b []byte) (float64, error) { return float64(len(b)), nil }}, arg(0))
	case "string":
		return items(1, func(n *callNode, e *engine, dst seq) (seq, error) {
			s, err := e.argString(n.args[0])
			return append(dst, s), err
		})
	case "concat":
		return items(0, func(n *callNode, e *engine, dst seq) (seq, error) {
			var sb strings.Builder
			for _, a := range n.args {
				s, err := e.argString(a)
				if err != nil {
					return nil, err
				}
				sb.WriteString(s)
			}
			return append(dst, sb.String()), nil
		})
	case "string-join":
		return items(2, func(n *callNode, e *engine, dst seq) (seq, error) {
			atoms, err := e.atomsOf(n.args[0])
			if err != nil {
				return nil, err
			}
			sep, err := e.argString(n.args[1])
			return append(dst, strings.Join(atoms, sep)), err
		})
	case "distinct-values":
		return items(1, func(n *callNode, e *engine, dst seq) (seq, error) {
			atoms, err := e.atomsOf(n.args[0])
			seen := map[string]bool{}
			for _, a := range atoms {
				if !seen[a] {
					seen[a] = true
					dst = append(dst, a)
				}
			}
			return dst, err
		})
	case "if":
		return items(3, func(n *callNode, e *engine, dst seq) (seq, error) {
			cond, err := n.args[0].test(e)
			switch {
			case err != nil:
				return nil, err
			case cond:
				return n.args[1].items(e, dst)
			}
			return n.args[2].items(e, dst)
		})
	case "zero-or-one", "exactly-one", "data":
		return items(1, func(n *callNode, e *engine, dst seq) (seq, error) { return n.args[0].items(e, dst) })
	case "last":
		return newNode(&failNode{err: fmt.Errorf("engine: last() is only supported inside positional predicates")})
	}
	return newNode(&failNode{err: fmt.Errorf("engine: unknown function %s()", x.Name)})
}

// callNode is a built-in whose items f computes from its arguments.
type callNode struct {
	generic
	name string
	args []node
	f    func(n *callNode, e *engine, dst seq) (seq, error)
}

func (n *callNode) items(e *engine, dst seq) (seq, error) { return n.f(n, e, dst) }

// aggregate is sum, avg, min or max.
func aggregate(n *callNode, e *engine, dst seq) (seq, error) {
	atoms, err := e.atomsOf(n.args[0])
	if err != nil {
		return nil, err
	}
	if len(atoms) == 0 {
		if n.name == "sum" {
			return append(dst, 0.0), nil
		}
		return dst, nil // empty sequence
	}
	var agg float64
	for i, a := range atoms {
		f, ok := parseNum(a)
		if !ok {
			return nil, fmt.Errorf("engine: %s over non-numeric value %q", n.name, a)
		}
		switch {
		case i == 0:
			agg = f
		case n.name == "min" && f < agg:
			agg = f
		case n.name == "max" && f > agg:
			agg = f
		case n.name == "sum" || n.name == "avg":
			agg += f
		}
	}
	if n.name == "avg" {
		agg /= float64(len(atoms))
	}
	return append(dst, agg), nil
}

// atomsOf atomizes the items of n.
func (e *engine) atomsOf(n node) ([]string, error) {
	v, err := n.items(e, nil)
	if err != nil {
		return nil, err
	}
	return e.atomize(v)
}

// argBytes decodes the string value of the first item of arg into sbuf
// ("" when the value is empty, XPath 1.0 style, which is what the
// paper-era queries assume); the bytes are valid until the next decode.
// Only that item is decoded.
func (e *engine) argBytes(arg node) ([]byte, error) {
	buf := e.sbuf[:0]
	e.sbuf = nil // detached: an argument that decodes too takes a buffer of its own
	buf, err := arg.first(e, buf)
	e.sbuf = buf
	return buf, err
}

func (e *engine) argString(arg node) (string, error) {
	b, err := e.argBytes(arg)
	return string(b), err
}

// cardCall lowers count, empty and exists — nil for any other function —
// with the rule of a call of one argument that has one of the rules'
// shapes under the summary sets of the variables in scope. A FLWOR a
// rule counts is not lowered: it needs no sub-program.
func (c *compiler) cardCall(x *xquery.Call) node {
	var n node
	var ca *cardArg
	switch x.Name {
	case "count":
		cn := &countNode{}
		n, ca = cn, &cn.cardArg
	case "empty", "exists":
		en := &emptyNode{empty: x.Name == "empty"}
		n, ca = en, &en.cardArg
	default:
		return nil
	}
	ca.name = x.Name
	rules := c.cards && len(x.Args) == 1
	if rules {
		if f, isFLWOR := x.Args[0].(*xquery.FLWOR); isFLWOR {
			if ca.card = c.eng.cardFLWOR(f); ca.card != nil {
				c.ncards++
				return newNode(n)
			}
		}
	}
	if args := c.lowerAll(x.Args); len(args) > 0 {
		ca.arg = args[0]
	} else {
		ca.arg = newNode(&failNode{err: fmt.Errorf("engine: %s() needs at least 1 arguments", x.Name)})
	}
	if p, isPath := ca.arg.(*pathNode); isPath && rules {
		if ca.card = c.eng.cardPath(p.plan, p.x, nil, &c.vars); ca.card != nil {
			c.ncards++
		}
	}
	return newNode(n, ca.arg)
}

// cardArg is the argument of count, empty or exists: its length is the
// call's cardinality rule's answer when the compiler chose one and the
// run's binding is the one it was chosen for (cardinality), else counted
// on the argument's node set or binding, with no item boxed. arg is nil
// for a FLWOR a rule counts.
type cardArg struct {
	name string
	arg  node
	card *cardRule
}

func (c *cardArg) len(e *engine) (int, error) {
	if c.card != nil {
		if k, ok, err := e.cardinality(c.card); ok {
			return k, err
		}
	}
	if ids, _, ok, err := c.arg.stored(e); ok {
		return len(ids), err
	}
	v, err := c.arg.items(e, nil)
	return len(v), err
}

type countNode struct {
	numGen
	cardArg
}

func (n *countNode) num(e *engine) (float64, error) {
	k, err := n.len(e)
	return float64(k), err
}

func (n *countNode) content(e *engine, dst []byte) ([]byte, int, error) {
	k, err := n.len(e)
	return strconv.AppendInt(dst, int64(k), 10), 1, err
}

// emptyNode is empty, or exists.
type emptyNode struct {
	boolGen
	cardArg
	empty bool
}

func (n *emptyNode) test(e *engine) (bool, error) {
	k, err := n.len(e)
	return (k == 0) == n.empty, err
}

// strTestNode is contains, starts-with or ends-with (f) on the string
// values of its arguments' first items, decoded into sbuf and tbuf.
type strTestNode struct {
	boolGen
	f    func(s, sub []byte) bool
	a, b node
}

func (n *strTestNode) test(e *engine) (bool, error) {
	a, err := e.argBytes(n.a)
	if err != nil {
		return false, err
	}
	// a's buffer is held here alone while argument 1 decodes into tbuf's.
	e.sbuf, e.tbuf = e.tbuf, nil
	b, err := e.argBytes(n.b)
	e.sbuf, e.tbuf = a, b
	if err != nil {
		return false, err
	}
	return n.f(a, b), nil
}

type notNode struct {
	boolGen
	arg node
}

func (n *notNode) test(e *engine) (bool, error) {
	b, err := n.arg.test(e)
	return !b, err
}

// bytesNum is number() or string-length(): f of the string value of its
// argument's first item, decoded into sbuf.
type bytesNum struct {
	numGen
	arg node
	f   func([]byte) (float64, error)
}

func (n *bytesNum) num(e *engine) (float64, error) {
	b, err := e.argBytes(n.arg)
	if err != nil {
		return 0, err
	}
	return n.f(b)
}

// number is number() of a string value.
func number(b []byte) (float64, error) {
	f, ok := parseNumBytes(b)
	if !ok {
		return 0, fmt.Errorf("engine: number(%q) is not numeric", b)
	}
	return f, nil
}
