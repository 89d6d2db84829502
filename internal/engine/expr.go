package engine

import (
	"fmt"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// node is an expression as Compile lowers it: one per expression a run
// evaluates — residual WHERE conjuncts, deferred pushdowns, RETURN bodies,
// template pieces, function arguments, step predicates — holding what the
// compiler decided for it: a path's plan and cursor slot, a comparison's
// kind and operator, a call's built-in and cardinality rule, a FLWOR's
// sub-program. A node answers each kind of result the engine asks for.
// Nodes are immutable and shared by every run of their program: what a
// run learns lives in its engine, at the slots the compiler assigned
// (pcs, owners, joinIdx).
type node interface {
	// items appends the value to dst. With dst nil the result may be a
	// binding's own sequence, capped so that appending to it copies.
	items(e *engine, dst seq) (seq, error)
	test(e *engine) (bool, error)   // the effective boolean value
	num(e *engine) (float64, error) // an operand of arithmetic: one item, a number
	// first appends the string value of the first item, if any.
	first(e *engine, dst []byte) ([]byte, error)
	// content writes the items as element content — nodes serialized,
	// strings escaped — and counts them.
	content(e *engine, dst []byte) ([]byte, int, error)
	// bind is the value as a FOR or LET binds it: a node set in document
	// order (ids non-nil) with its summary set where it is one.
	bind(e *engine) (domResult, error)
	// stored is the value as the stored nodes it is, not boxed, with how
	// each is read (ok); ok is false, and err nil, where it is items.
	stored(e *engine) (ids algebra.NodeSet, how nodeReads, ok bool, err error)
	kids() []node // the nodes under it, for the listing
	gen() *generic
}

// generic answers each kind through the node's stored nodes or its
// items: every node embeds it, and overrides the kinds it answers
// otherwise. self is the node and sub the nodes under it, set by the
// compiler (newNode).
type generic struct {
	self node
	sub  []node
}

func (g *generic) gen() *generic { return g }

func (g *generic) kids() []node { return g.sub }

func (g *generic) stored(e *engine) (algebra.NodeSet, nodeReads, bool, error) {
	return nil, nodeReads{}, false, nil
}

func (g *generic) test(e *engine) (bool, error) {
	v, err := g.self.items(e, nil)
	return err == nil && effectiveBool(v), err
}

func (g *generic) num(e *engine) (float64, error) {
	v, err := g.self.items(e, nil)
	if err != nil {
		return 0, err
	}
	if len(v) != 1 {
		return 0, fmt.Errorf("engine: arithmetic on a sequence of %d items", len(v))
	}
	a, err := e.stringValue(v[0])
	if err != nil {
		return 0, err
	}
	f, ok := parseNum(a)
	if !ok {
		return 0, fmt.Errorf("engine: %q is not a number", a)
	}
	return f, nil
}

func (g *generic) first(e *engine, dst []byte) ([]byte, error) {
	if ids, how, ok, err := g.self.stored(e); ok {
		if err != nil || len(ids) == 0 {
			return dst, err
		}
		return e.appendNodeValue(dst, ids[0], how.read)
	}
	v, err := g.self.items(e, nil)
	if err != nil || len(v) == 0 {
		return dst, err
	}
	if id, isNode := v[0].(storage.NodeID); isNode {
		return e.appendNodeValue(dst, id, deepValue)
	}
	a, err := e.stringValue(v[0])
	return append(dst, a...), err
}

func (g *generic) content(e *engine, dst []byte) ([]byte, int, error) {
	ids, how, ok, err := g.self.stored(e)
	if ok {
		for i := 0; err == nil && i < len(ids); i++ {
			dst, err = e.appendContentNode(dst, ids[i], how.content)
		}
		return dst, len(ids), err
	}
	v, err := g.self.items(e, nil)
	for i := 0; err == nil && i < len(v); i++ {
		dst, err = e.appendContentItem(dst, v[i])
	}
	return dst, len(v), err
}

func (g *generic) bind(e *engine) (domResult, error) {
	v, err := g.self.items(e, nil)
	return domResult{seq: v}, err
}

// appendAtoms appends the space-joined string values of n's items.
func (e *engine) appendAtoms(dst []byte, n node) ([]byte, error) {
	ids, how, ok, err := n.stored(e)
	if ok {
		for i := 0; err == nil && i < len(ids); i++ {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst, err = e.appendNodeValue(dst, ids[i], how.read)
		}
		return dst, err
	}
	v, err := n.items(e, nil)
	for i := 0; err == nil && i < len(v); i++ {
		if i > 0 {
			dst = append(dst, ' ')
		}
		var a string
		a, err = e.stringValue(v[i])
		dst = append(dst, a...)
	}
	return dst, err
}

// appendEmitted appends n's items to dst, each written as element
// content into an *xml of its own (a LET only written out).
func (e *engine) appendEmitted(dst seq, n node) (seq, error) {
	ids, how, ok, err := n.stored(e)
	var v seq
	if !ok {
		v, err = n.items(e, nil)
	}
	for i := 0; err == nil && i < len(ids)+len(v); i++ {
		start := e.room()
		var out []byte
		if ok {
			out, err = e.appendContentNode(e.out, ids[i], how.content)
		} else {
			out, err = e.appendContentItem(e.out, v[i])
		}
		if err == nil {
			dst = append(dst, e.cut(out, start))
		}
	}
	return dst, err
}

// newNode completes a node the compiler built, whose kids are under it:
// its generic answers go through it.
func newNode[N node](n N, kids ...node) N {
	g := n.gen()
	g.self, g.sub = n, kids
	return n
}

// boolGen and numGen are generic for a node whose value is one boolean
// (its test) or one number (its num).
type boolGen struct{ generic }

type numGen struct{ generic }

func (g *boolGen) items(e *engine, dst seq) (seq, error) {
	b, err := g.self.test(e)
	return append(dst, b), err
}

func (g *numGen) items(e *engine, dst seq) (seq, error) {
	f, err := g.self.num(e)
	return append(dst, f), err
}

type strLit struct {
	generic
	val string
}

func (n *strLit) items(e *engine, dst seq) (seq, error)       { return append(dst, n.val), nil }
func (n *strLit) first(e *engine, dst []byte) ([]byte, error) { return append(dst, n.val...), nil }

type numLit struct {
	numGen
	val float64
}

func (n *numLit) num(e *engine) (float64, error) { return n.val, nil }

// varRef reads the binding at the slot of the clause the parser resolved
// the reference to; slot 0 is a name nothing binds, an error when read.
type varRef struct {
	generic
	name   string
	binder int
}

func (n *varRef) items(e *engine, dst seq) (seq, error) {
	b, err := e.env.bound(n.binder, n.name)
	if err != nil {
		return nil, err
	}
	v := b.value()
	if dst == nil {
		return v[:len(v):len(v)], nil
	}
	return append(dst, v...), nil
}

// stored is a node-valued binding's nodes.
func (n *varRef) stored(e *engine) (algebra.NodeSet, nodeReads, bool, error) {
	b, err := e.env.bound(n.binder, n.name)
	if err != nil {
		return nil, nodeReads{}, true, err
	}
	return b.ids, nodeReads{}, b.ids != nil, nil
}

// bind propagates the binding's summary set. The node-set form applies
// only when the value is in document order: a FOR must keep the bound
// sequence's order (it may carry a deliberate ORDER BY arrangement).
func (n *varRef) bind(e *engine) (domResult, error) {
	b := e.env.of(n.binder)
	if b == nil {
		return n.generic.bind(e)
	}
	ids := b.ids
	if ids == nil {
		if v, isNodes, ordered := nodeSeq(b.seq); isNodes && ordered {
			ids = v
		}
	}
	if len(ids) > 0 {
		return domResult{ids: ids, sums: b.sums}, nil
	}
	return domResult{seq: b.value(), sums: b.sums}, nil
}

// seqNode is a parenthesized sequence.
type seqNode struct {
	generic
	list []node
}

func (n *seqNode) items(e *engine, dst seq) (seq, error) {
	out := dst
	for _, it := range n.list {
		var err error
		if out, err = it.items(e, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cmpNode is a general comparison: between two numbers when each side is
// always one (numeric), else existential over the sides' atoms.
type cmpNode struct {
	boolGen
	l, r    node
	op      cmpOp
	numeric bool
}

func (n *cmpNode) test(e *engine) (bool, error) {
	if n.numeric {
		l, err := n.l.num(e)
		if err != nil {
			return false, err
		}
		r, err := n.r.num(e)
		if err != nil {
			return false, err
		}
		return n.op.nums(l, r), nil
	}
	la, err := e.atomsOf(n.l)
	if err != nil {
		return false, err
	}
	ra, err := e.atomsOf(n.r)
	if err != nil {
		return false, err
	}
	for _, a := range la {
		for _, b := range ra {
			if compareAtoms(n.op, a, b) {
				return true, nil
			}
		}
	}
	return false, nil
}

// logicNode is `and` (and) or `or`, short-circuiting.
type logicNode struct {
	boolGen
	l, r node
	and  bool
}

func (n *logicNode) test(e *engine) (bool, error) {
	lb, err := n.l.test(e)
	if err != nil || lb != n.and {
		return lb, err
	}
	return n.r.test(e)
}

// arithOps are the arithmetic operators, by symbol.
var arithOps = map[string]func(a, b float64) (float64, error){
	"+":   func(a, b float64) (float64, error) { return a + b, nil },
	"-":   func(a, b float64) (float64, error) { return a - b, nil },
	"*":   func(a, b float64) (float64, error) { return a * b, nil },
	"div": func(a, b float64) (float64, error) { return a / b, nil },
	"mod": func(a, b float64) (float64, error) {
		if int64(b) == 0 {
			return 0, fmt.Errorf("engine: %s mod %s: division by zero", formatNum(a), formatNum(b))
		}
		return float64(int64(a) % int64(b)), nil
	},
}

// arithNode is arithmetic on two numbers.
type arithNode struct {
	numGen
	l, r node
	op   func(a, b float64) (float64, error)
}

func (n *arithNode) num(e *engine) (float64, error) {
	ln, err := n.l.num(e)
	if err != nil {
		return 0, err
	}
	rn, err := n.r.num(e)
	if err != nil {
		return 0, err
	}
	return n.op(ln, rn)
}

// flworNode is a nested FLWOR, run as sub-program sub of the program.
type flworNode struct {
	generic
	sub int32
}

func (n *flworNode) items(e *engine, dst seq) (seq, error) { return e.run.appendFLWOR(dst, n.sub) }

// ctorNode is an element constructor whose value is looked into, built
// as a *fragment. Attribute values are assembled in abuf (detached while
// in use, so a nested constructor cannot clobber it). Whitespace-only
// literal content, boilerplate between constructor items, was dropped at
// compile.
type ctorNode struct {
	generic
	name  string
	attrs []ctorAttr
	body  []node
}

type ctorAttr struct {
	name  string
	parts []node
}

func (n *ctorNode) items(e *engine, dst seq) (seq, error) {
	frag := &fragment{Name: n.name}
	if len(n.attrs) > 0 {
		frag.Attrs = make([]fragAttr, 0, len(n.attrs))
		buf := e.abuf
		e.abuf = nil
		for _, a := range n.attrs {
			buf = buf[:0]
			for _, part := range a.parts {
				var err error
				if buf, err = e.appendAtoms(buf, part); err != nil {
					return nil, err
				}
			}
			frag.Attrs = append(frag.Attrs, fragAttr{Name: a.name, Value: string(buf)})
		}
		e.abuf = buf
	}
	for _, c := range n.body {
		var err error
		if frag.Content, err = c.items(e, frag.Content); err != nil {
			return nil, err
		}
	}
	return append(dst, frag), nil
}

// failNode is an expression whose evaluation fails — a function the
// engine does not know, a missing argument — when, and only when, it is
// evaluated.
type failNode struct {
	generic
	err error
}

func (n *failNode) items(e *engine, dst seq) (seq, error) { return nil, n.err }

// pathNode is a path: its steps compiled, the plan the compiler resolved
// for its origin's summary set, and the slot of the run's cursor of it.
type pathNode struct {
	generic
	x *xquery.PathExpr // the source, for the listing
	// name is where the path starts: the variable (bound at binder), "."
	// for the context item, "" for the document.
	name   string
	binder int
	steps  []step
	// textTail: the last step is text(), so the items are the text of
	// the nodes the structural steps reach.
	textTail bool
	plan     *pathPlan
	slot     int
}

func (n *pathNode) items(e *engine, dst seq) (seq, error) {
	nodes, pl, err := e.evalPathNodes(n)
	if err != nil {
		return nil, err
	}
	if n.textTail {
		return e.appendTexts(dst, nodes, pl)
	}
	if dst == nil {
		dst = make(seq, 0, len(nodes))
	}
	for _, id := range nodes {
		dst = append(dst, id)
	}
	return dst, nil
}

// stored is the nodes the structural steps reach, read as the plan says:
// after a text() step, for their immediate text.
func (n *pathNode) stored(e *engine) (algebra.NodeSet, nodeReads, bool, error) {
	nodes, pl, err := e.evalPathNodes(n)
	if err != nil {
		return nil, nodeReads{}, true, err
	}
	return nodes, pl.nodeReads, true, nil
}

// bind returns the node set itself, so a FOR loop neither boxes nor
// re-sorts its domain; a text() tail binds the decoded strings.
func (n *pathNode) bind(e *engine) (domResult, error) {
	nodes, pl, err := e.evalPathNodes(n)
	if err != nil {
		return domResult{}, err
	}
	if n.textTail {
		v, err := e.appendTexts(nil, nodes, pl)
		return domResult{seq: v}, err
	}
	if nodes == nil {
		nodes = algebra.NodeSet{}
	}
	return domResult{ids: nodes, sums: pl.sums()}, nil
}

// cmpOp is a comparison operator as the outcomes it accepts: the left
// side below, equal to or above the right, or unordered — a NaN, which
// only != accepts, as Go's float operators have it.
type cmpOp uint8

const (
	cmpLT cmpOp = 1 << iota
	cmpEQ
	cmpGT
	cmpUN
)

// cmpOps are the comparison operators, by symbol.
var cmpOps = map[string]cmpOp{
	"=": cmpEQ, "!=": cmpLT | cmpGT | cmpUN,
	"<": cmpLT, "<=": cmpLT | cmpEQ, ">": cmpGT, ">=": cmpGT | cmpEQ,
}

// nums compares two numbers.
func (op cmpOp) nums(a, b float64) bool {
	switch {
	case a < b:
		return op&cmpLT != 0
	case a > b:
		return op&cmpGT != 0
	case a == b:
		return op&cmpEQ != 0
	}
	return op&cmpUN != 0
}

// strs compares two strings in byte order.
func (op cmpOp) strs(a, b string) bool {
	return op&(cmpLT<<(strings.Compare(a, b)+1)) != 0
}
