package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// engine evaluates XQuery over a compressed repository. An engine holds
// per-query state and must not be shared between goroutines; the store
// it reads is immutable, so any number of engines may run over one
// Store concurrently.
type engine struct {
	store *storage.Store
	// joinIdx caches, per comparison, the container join indexes this run
	// built: those of joins whose summary sets were not static at compile
	// time (a program builds the others once, and all its runs share
	// them).
	joinIdx map[xquery.Expr]*joinIndex
	// plans holds what the compiler derived once for the whole program;
	// paths memoises the same per expression for this run (every path the
	// program did not plan, plus each path's galloping positions), so a
	// tuple never re-plans.
	plans pathPlans
	paths map[*xquery.PathExpr]*pathCursor
	// offsets are the extent offsets of the pairs of summary nodes the
	// paths this engine resolved read by them (reach), offBytes their size.
	offsets  map[[2]*storage.SummaryNode][]uint32
	offBytes int
	// run is the run of the program the engine evaluates for: its
	// dispatch runs the sub-program of each FLWOR an expression reaches.
	run *run
	// owners caches the container match of each literal restrict the same
	// way, so one that is reached once per outer tuple scans its
	// containers once per run.
	owners map[xquery.Expr]*conjunctOwners
	// ctx, when non-nil, is polled in the evaluation loop so timeouts
	// and client disconnects abort long evaluations mid-stream.
	ctx      context.Context
	ctxTick  int
	canceled error
	// sbuf is the reusable decode buffer for stringValue: one evaluation
	// atomizes many nodes, and the engine is single-goroutine, so one
	// buffer serves them all without per-call allocation. abuf is its
	// twin for the attribute value a constructor is assembling, and tbuf
	// for the second argument of a string function. All are valid until
	// the next decode; whatever is emitted is copied out.
	sbuf, abuf, tbuf []byte
	// cur is the run's text cursor, held by value next to sbuf: the
	// immediate-text lookups of a run mostly ascend — a FOR's bindings, a
	// text() step's owners — and each picks up where the previous one left
	// off (storage.TextCursor).
	cur storage.TextCursor
	// out and xmls are what emitted items are cut from (emit): the bytes
	// and the *xml headers, appended to and never overwritten, so every
	// item handed out stays valid.
	out  []byte
	xmls []xml
}

// newEngine returns an engine over the store. It runs on its caller's
// goroutine: a query is evaluated serially, and queries run concurrently
// only as separate runs, each with an engine of its own.
func newEngine(s *storage.Store) *engine {
	return &engine{store: s, paths: map[*xquery.PathExpr]*pathCursor{}, owners: map[xquery.Expr]*conjunctOwners{}}
}

// withContext arms the engine's cancellation checks with ctx and
// returns the engine.
func (e *engine) withContext(ctx context.Context) *engine {
	if ctx != nil && ctx != context.Background() {
		e.ctx = ctx
	}
	return e
}

// checkCancel polls the engine's context. The poll is amortized: the
// channel receive runs every 64th call, the rest is one branch and an
// increment, cheap enough for the per-expression hot path.
func (e *engine) checkCancel() error {
	if e.ctx == nil {
		return nil
	}
	if e.canceled != nil {
		return e.canceled
	}
	e.ctxTick++
	if e.ctxTick&63 != 0 {
		return nil
	}
	select {
	case <-e.ctx.Done():
		e.canceled = e.ctx.Err()
		return e.canceled
	default:
		return nil
	}
}

// binding is one variable's slot in a scope. A FOR clause creates it once
// and rewrites it per tuple, so binding a tuple allocates nothing: node
// values stay unboxed (ids, backed by one for a single FOR item), and a
// value is boxed into a seq only where an expression asks for it.
type binding struct {
	seq  seq             // generic value (LET over atoms or fragments)
	ids  algebra.NodeSet // document-ordered node value; non-nil replaces seq
	item Item            // single non-node FOR item; non-nil replaces seq
	one  [1]storage.NodeID
	sums []*storage.SummaryNode
	// at is the place of a one-node value among the extents of sums, once
	// placed: the FOR cursor's, or found on first use (place), galloping
	// from where the clause's previous binding was found (hints).
	at     place
	placed bool
	hints  []int
}

// setNode binds one node. at is its place among the extents of b.sums,
// which the caller has set, when the caller knows it; place finds it
// otherwise.
func (b *binding) setNode(id storage.NodeID, at place) {
	b.one[0] = id
	b.ids, b.item, b.at, b.placed = b.one[:], nil, at, at.ok
}

// set binds a value: a node set when ids is non-nil, else seq or item.
func (b *binding) set(seq seq, ids algebra.NodeSet, item Item, sums []*storage.SummaryNode) {
	b.seq, b.ids, b.item, b.sums, b.at, b.placed = seq, ids, item, sums, place{}, false
}

// place returns the place of the binding's one node among the extents of
// its sums, finding it once per binding: every relative path from a
// binding its cursor did not place shares the one search.
func (b *binding) place() place {
	if !b.placed {
		if cap(b.hints) < len(b.sums) {
			b.hints = make([]int, len(b.sums))
		}
		b.at, b.placed = placeOf(b.sums, b.hints[:len(b.sums)], b.ids[0]), true
	}
	return b.at
}

// value boxes the binding. The result is a fresh sequence unless the
// binding holds an immutable LET value, so callers may keep it across
// tuples.
func (b *binding) value() seq {
	switch {
	case b.ids != nil:
		out := make(seq, len(b.ids))
		for i, id := range b.ids {
			out[i] = id
		}
		return out
	case b.item != nil:
		return seq{b.item}
	}
	return b.seq
}

// len is the length of the binding's value, without boxing it.
func (b *binding) len() int {
	switch {
	case b.ids != nil:
		return len(b.ids)
	case b.item != nil:
		return 1
	}
	return len(b.seq)
}

// scope is the evaluation environment: variable bindings, the context
// node (0 when there is none), and — for the compressed-domain fast
// paths — the summary nodes each is an instance of. One scope serves a
// whole block of a program: clauses bind in place (clauseEnv) and
// restore what they shadowed on the way out.
//
// The bindings are a short list, one entry per bound name in the order
// the names were first bound, searched from the end: the innermost
// clauses, which the per-tuple lookups mostly ask for, come first, and no
// string is hashed. The first few entries live in the scope itself.
type scope struct {
	vars    []named
	fixed   [4]named
	ctx     [1]storage.NodeID
	ctxSums []*storage.SummaryNode
}

// named is one variable of a scope and its binding.
type named struct {
	name string
	b    *binding
}

func newScope() *scope {
	s := &scope{}
	s.vars = s.fixed[:0]
	return s
}

// find returns the index of name's entry, -1 when it is unbound.
func (v *scope) find(name string) int {
	for i := len(v.vars) - 1; i >= 0; i-- {
		if v.vars[i].name == name {
			return i
		}
	}
	return -1
}

// lookup returns the binding of name, nil when it is unbound.
func (v *scope) lookup(name string) *binding {
	if i := v.find(name); i >= 0 {
		return v.vars[i].b
	}
	return nil
}

// bind binds name to b, in place of what it was bound to.
func (v *scope) bind(name string, b *binding) {
	if i := v.find(name); i >= 0 {
		v.vars[i].b = b
	} else {
		v.vars = append(v.vars, named{name, b})
	}
}

// unbind puts back the binding a clause's name shadowed.
func (v *scope) unbind(name string, shadowed *binding) {
	if shadowed != nil {
		v.bind(name, shadowed)
	} else if i := v.find(name); i >= 0 {
		v.vars = append(v.vars[:i], v.vars[i+1:]...)
	}
}

// ctxValue boxes the context item (a nil item when there is none, which
// every consumer rejects as a non-node).
func (v *scope) ctxValue() seq {
	if v.ctx[0] == 0 {
		return seq{nil}
	}
	return seq{v.ctx[0]}
}

// eval dispatches on the AST.
func (e *engine) eval(expr xquery.Expr, env *scope) (seq, error) {
	if err := e.checkCancel(); err != nil {
		return nil, err
	}
	switch x := expr.(type) {
	case *xquery.StringLit:
		return seq{x.Val}, nil
	case *xquery.NumberLit:
		return seq{x.Val}, nil
	case *xquery.VarRef:
		if x.Name == "." {
			return env.ctxValue(), nil
		}
		b := env.lookup(x.Name)
		if b == nil {
			return nil, fmt.Errorf("engine: unbound variable $%s", x.Name)
		}
		return b.value(), nil
	case *xquery.Sequence:
		var out seq
		for _, item := range x.Items {
			v, err := e.eval(item, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xquery.PathExpr:
		return e.evalPath(x, env)
	case *xquery.Cmp:
		b, err := e.evalBool(x, env)
		return seq{b}, err
	case *xquery.Logic:
		lb, err := e.evalBool(x.Left, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" && !lb {
			return seq{false}, nil
		}
		if x.Op == "or" && lb {
			return seq{true}, nil
		}
		rb, err := e.evalBool(x.Right, env)
		if err != nil {
			return nil, err
		}
		return seq{rb}, nil
	case *xquery.Arith:
		f, err := e.evalArith(x, env)
		if err != nil {
			return nil, err
		}
		return seq{f}, nil
	case *xquery.Call:
		return e.evalCall(x, env)
	case *xquery.ElementCtor:
		return e.evalCtor(x, env)
	case *xquery.FLWOR:
		return e.run.appendFLWOR(nil, x, env)
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", expr)
}

// appendExpr appends the items of an expression to dst: a path's go
// straight from the store, a FLWOR's from its sub-program.
func (e *engine) appendExpr(dst seq, x xquery.Expr, env *scope) (seq, error) {
	switch x := x.(type) {
	case *xquery.PathExpr:
		return e.appendPath(dst, x, env)
	case *xquery.FLWOR:
		return e.run.appendFLWOR(dst, x, env)
	}
	v, err := e.eval(x, env)
	return append(dst, v...), err
}

func (e *engine) evalBool(expr xquery.Expr, env *scope) (bool, error) {
	// The per-tuple filters of the XMark queries are comparisons,
	// emptiness and string tests: answer those without a one-item
	// sequence.
	switch x := expr.(type) {
	case *xquery.Cmp:
		return e.evalCmp(x, env)
	case *xquery.Call:
		switch {
		case x.Name == "empty" || x.Name == "exists":
			n, err := e.argLen(x, env)
			return (n == 0) == (x.Name == "empty"), err
		case stringFunc(x.Name) != nil:
			return e.stringTest(x, env)
		case x.Name == "not" && len(x.Args) > 0:
			b, err := e.evalBool(x.Args[0], env)
			return !b, err
		}
	}
	v, err := e.eval(expr, env)
	if err != nil {
		return false, err
	}
	return e.effectiveBool(v)
}

// evalCmp implements general (existential) comparisons. Two sides that
// are each one number compare as numbers (numericCmp), with no sequence
// or string made.
func (e *engine) evalCmp(x *xquery.Cmp, env *scope) (bool, error) {
	if numericCmp(x) {
		l, err := e.evalNum(x.Left, env)
		if err != nil {
			return false, err
		}
		r, err := e.evalNum(x.Right, env)
		if err != nil {
			return false, err
		}
		return compareNums(x.Op, l, r), nil
	}
	lv, err := e.eval(x.Left, env)
	if err != nil {
		return false, err
	}
	rv, err := e.eval(x.Right, env)
	if err != nil {
		return false, err
	}
	la, err := e.atomize(lv)
	if err != nil {
		return false, err
	}
	ra, err := e.atomize(rv)
	if err != nil {
		return false, err
	}
	for _, a := range la {
		for _, b := range ra {
			if compareAtoms(x.Op, a, b) {
				return true, nil
			}
		}
	}
	return false, nil
}

func (e *engine) evalArith(x *xquery.Arith, env *scope) (float64, error) {
	ln, err := e.evalNum(x.Left, env)
	if err != nil {
		return 0, err
	}
	rn, err := e.evalNum(x.Right, env)
	if err != nil {
		return 0, err
	}
	switch x.Op {
	case "+":
		return ln + rn, nil
	case "-":
		return ln - rn, nil
	case "*":
		return ln * rn, nil
	case "div":
		return ln / rn, nil
	case "mod":
		if int64(rn) == 0 {
			return 0, fmt.Errorf("engine: %s mod %s: division by zero", formatNum(ln), formatNum(rn))
		}
		return float64(int64(ln) % int64(rn)), nil
	}
	return 0, fmt.Errorf("engine: unknown arithmetic operator %s", x.Op)
}

// numericCmp reports that evalCmp compares x's sides as numbers: each is
// always one number.
func numericCmp(x *xquery.Cmp) bool { return oneNumber(x.Left) && oneNumber(x.Right) }

// oneNumber reports that x's value is always one number, unless its
// evaluation fails: the shapes evalNum evaluates with no sequence made.
func oneNumber(x xquery.Expr) bool {
	switch x := x.(type) {
	case *xquery.NumberLit, *xquery.Arith:
		return true
	case *xquery.Call:
		return x.Name == "count" || x.Name == "number" || x.Name == "string-length"
	}
	return false
}

// evalNum evaluates an operand of arithmetic: a number, arithmetic,
// count(), number() and string-length() straight to a float64, anything
// else through its one item's string value.
func (e *engine) evalNum(expr xquery.Expr, env *scope) (float64, error) {
	switch x := expr.(type) {
	case *xquery.NumberLit:
		return x.Val, nil
	case *xquery.Arith:
		return e.evalArith(x, env)
	case *xquery.Call:
		switch x.Name {
		case "count":
			n, err := e.argLen(x, env)
			return float64(n), err
		case "number":
			return e.number(x, env)
		case "string-length":
			b, err := e.argBytes(x, 0, env)
			return float64(len(b)), err
		}
	}
	v, err := e.eval(expr, env)
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

// evalCtor builds a fragment. Attribute values are assembled in abuf
// (detached while in use, so a nested constructor cannot clobber it) and
// path-valued content goes straight into the fragment.
func (e *engine) evalCtor(x *xquery.ElementCtor, env *scope) (seq, error) {
	frag := &fragment{Name: x.Name}
	if len(x.Attrs) > 0 {
		frag.Attrs = make([]fragAttr, 0, len(x.Attrs))
		buf := e.abuf
		e.abuf = nil
		for _, a := range x.Attrs {
			buf = buf[:0]
			for _, part := range a.Value {
				var err error
				if buf, err = e.appendAtoms(buf, part, env); err != nil {
					return nil, err
				}
			}
			frag.Attrs = append(frag.Attrs, fragAttr{Name: a.Name, Value: string(buf)})
		}
		e.abuf = buf
	}
	for _, c := range x.Content {
		var err error
		switch c := c.(type) {
		case *xquery.StringLit:
			// Whitespace-only literal chunks between constructor items
			// are boilerplate, not data.
			if strings.TrimSpace(c.Val) != "" {
				frag.Content = append(frag.Content, c.Val)
			}
		case *xquery.PathExpr:
			frag.Content, err = e.appendPath(frag.Content, c, env)
		default:
			var v seq
			v, err = e.eval(c, env)
			frag.Content = append(frag.Content, v...)
		}
		if err != nil {
			return nil, err
		}
	}
	return seq{frag}, nil
}

// appendAtoms appends the space-joined string values of x's items to
// dst; path results are decoded straight from the store.
func (e *engine) appendAtoms(dst []byte, x xquery.Expr, env *scope) ([]byte, error) {
	if p, isPath := x.(*xquery.PathExpr); isPath {
		nodes, sums, textTail, err := e.evalPathNodes(p, env)
		how := readOf(sums, textTail)
		for i := 0; err == nil && i < len(nodes); i++ {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst, err = e.appendNodeValue(dst, nodes[i], how)
		}
		return dst, err
	}
	v, err := e.eval(x, env)
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

// evalBindingSeq evaluates a FOR/LET source. When the source is a node
// path, the node set is returned directly (ids non-nil) so FOR loops
// avoid boxing and re-sorting the domain; otherwise the generic
// sequence is returned.
func (e *engine) evalBindingSeq(expr xquery.Expr, env *scope) (seq, algebra.NodeSet, []*storage.SummaryNode, error) {
	switch x := expr.(type) {
	case *xquery.PathExpr:
		nodes, sums, textTail, err := e.evalPathNodes(x, env)
		if err != nil {
			return nil, nil, nil, err
		}
		if textTail {
			seq, err := e.appendTexts(nil, nodes, sums)
			return seq, nil, nil, err
		}
		if nodes == nil {
			nodes = algebra.NodeSet{}
		}
		return nil, nodes, sums, nil
	case *xquery.VarRef:
		// Propagate summary knowledge through plain variable references.
		// The node-set fast path applies only when the sequence is already
		// in document order: FOR must preserve the bound sequence's order
		// (it may carry a deliberate ORDER BY arrangement).
		if b := env.lookup(x.Name); b != nil {
			ids := b.ids
			if ids == nil {
				ids, _ = docOrderedNodeSeq(b.seq)
			}
			if len(ids) > 0 {
				return nil, ids, b.sums, nil
			}
			return b.value(), nil, b.sums, nil
		}
	}
	v, err := e.eval(expr, env)
	return v, nil, nil, err
}

// docOrderedNodeSeq extracts the node IDs of a sequence only if they
// are already strictly ascending (document order).
func docOrderedNodeSeq(s seq) (algebra.NodeSet, bool) {
	out := make(algebra.NodeSet, 0, len(s))
	var prev storage.NodeID
	for _, it := range s {
		id, isNode := it.(storage.NodeID)
		if !isNode || id <= prev {
			return nil, false
		}
		out = append(out, id)
		prev = id
	}
	return out, true
}

// splitConjuncts flattens a WHERE tree of ANDs.
func splitConjuncts(where xquery.Expr) []xquery.Expr {
	if where == nil {
		return nil
	}
	if l, isLogic := where.(*xquery.Logic); isLogic && l.Op == "and" {
		return append(splitConjuncts(l.Left), splitConjuncts(l.Right)...)
	}
	return []xquery.Expr{where}
}

// splitVarPred matches a literal restrict on the given variable: `$var/rel
// op literal` (either side), returning the effective operator (flipped
// when the literal is on the left), or `fn($var/rel, "literal")` with fn
// a string function (stringFunc) and the literal not empty, returning fn
// as the operator. rel is re-rooted at the context.
func splitVarPred(conj xquery.Expr, varName string) (*xquery.PathExpr, string, string, bool) {
	rooted := func(x xquery.Expr) (*xquery.PathExpr, bool) {
		p, isPath := x.(*xquery.PathExpr)
		if !isPath || p.Var != varName {
			return nil, false
		}
		if varName != "." {
			p = &xquery.PathExpr{Var: ".", Steps: p.Steps}
		}
		return p, true
	}
	switch c := conj.(type) {
	case *xquery.Call:
		if stringFunc(c.Name) == nil || len(c.Args) != 2 {
			return nil, "", "", false
		}
		rel, ok := rooted(c.Args[0])
		lit, isLit := c.Args[1].(*xquery.StringLit)
		if !ok || !isLit || lit.Val == "" {
			return nil, "", "", false
		}
		return rel, lit.Val, c.Name, true
	case *xquery.Cmp:
		try := func(side, other xquery.Expr, op string) (*xquery.PathExpr, string, string, bool) {
			p, ok := rooted(side)
			if !ok {
				return nil, "", "", false
			}
			switch v := other.(type) {
			case *xquery.StringLit:
				return p, v.Val, op, true
			case *xquery.NumberLit:
				return p, formatNum(v.Val), op, true
			}
			return nil, "", "", false
		}
		if rel, l, op, ok := try(c.Left, c.Right, c.Op); ok {
			return rel, l, op, true
		}
		return try(c.Right, c.Left, flipOp(c.Op))
	}
	return nil, "", "", false
}

// stringFunc returns the test on bytes of fn when it is a string
// function a literal restrict can be — one that tests a string value
// against another — and nil otherwise.
func stringFunc(fn string) func(s, sub []byte) bool {
	switch fn {
	case "contains":
		return bytes.Contains
	case "starts-with":
		return bytes.HasPrefix
	case "ends-with":
		return bytes.HasSuffix
	}
	return nil
}
