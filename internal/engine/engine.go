package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Engine evaluates XQuery over a compressed repository. An Engine holds
// per-query state and must not be shared between goroutines; the store
// it reads is immutable, so any number of Engines may run over one
// Store concurrently.
type Engine struct {
	store *storage.Store
	// joinIdx caches container join indexes per comparison expression,
	// so correlated nested FLWORs (the Q8/Q9 shape) build the join once
	// instead of rescanning per outer binding.
	joinIdx map[*xquery.Cmp]*joinIndex
	// plans holds what the compiler derived once for the whole program;
	// paths and flwors memoise the same per expression for this run
	// (everything the program did not cover, plus each path's galloping
	// positions), so a tuple never re-plans.
	plans  *Plans
	paths  map[*xquery.PathExpr]*pathCursor
	flwors map[*xquery.FLWOR]*FLWORPlan
	// owners caches the container match of each `path op literal`
	// comparison the same way, so a literal restrict that is reached once
	// per outer tuple scans its containers once per run.
	owners map[*xquery.Cmp]*conjunctOwners
	// ctx, when non-nil, is polled in the evaluation loop so timeouts
	// and client disconnects abort long evaluations mid-stream.
	ctx      context.Context
	ctxTick  int
	canceled error
	// sbuf is the reusable decode buffer for stringValue: one evaluation
	// atomizes many nodes, and the engine is single-goroutine, so one
	// buffer serves them all without per-call allocation. abuf is its
	// twin for the attribute value a constructor is assembling. Both are
	// valid until the next decode; whatever is emitted is copied out.
	sbuf, abuf []byte
	// par is the intra-query worker budget for the partitioned operators
	// (decoding scans, structural joins, container fan-outs). 1 = serial.
	// Only pure container/summary reads run on workers; the engine's own
	// mutable state (joinIdx, sbuf, ctxTick) stays on the calling
	// goroutine, so results are byte-identical at every setting.
	par int
	// bindHook, when armed, observes the top-level binding node each
	// streamed item originates from: the clause-0 FOR binding of a
	// top-level FLWOR, or the matched node of a top-level path. It fires
	// on the evaluation goroutine strictly before the items derived from
	// that binding are emitted, so a cursor consumer reading the last
	// hooked node after Next sees the current item's origin. The shard
	// coordinator uses this to assign each item a global document-order
	// rank without touching serialization.
	bindHook func(storage.NodeID)
}

// New returns an engine over the store. Evaluation is serial until
// WithParallelism grants a worker budget.
func New(s *storage.Store) *Engine {
	e := &Engine{store: s, par: 1}
	e.resetRun()
	return e
}

// resetRun drops every per-evaluation memo (the FLWOR-only ones are
// made on first use: a point lookup has no FLWOR).
func (e *Engine) resetRun() {
	e.paths = map[*xquery.PathExpr]*pathCursor{}
	e.owners = map[*xquery.Cmp]*conjunctOwners{}
	e.joinIdx, e.flwors, e.canceled = nil, nil, nil
}

// WithContext arms the engine's cancellation checks with ctx and
// returns the engine.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	if ctx != nil && ctx != context.Background() {
		e.ctx = ctx
	}
	return e
}

// WithParallelism sets the intra-query worker budget and returns the
// engine. n <= 0 means GOMAXPROCS (mirroring storage.LoadOptions);
// 1 keeps the serial path. Results are identical at every setting —
// partitioned operators only engage above their work floors, so small
// queries never pay fan-out overhead.
func (e *Engine) WithParallelism(n int) *Engine {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.par = n
	return e
}

// WithBindHook arms fn as the top-level binding observer (see the
// bindHook field) and returns the engine. Only streamed evaluation
// (EvalStream) fires the hook, and only for the streamable top-level
// shapes; items produced by the eager fallback (aggregates, ORDER BY
// rewrites) have no single origin node and never fire it.
func (e *Engine) WithBindHook(fn func(storage.NodeID)) *Engine {
	e.bindHook = fn
	return e
}

// Store exposes the underlying repository.
func (e *Engine) Store() *storage.Store { return e.store }

// Query parses and evaluates a query.
func (e *Engine) Query(src string) (*Result, error) {
	expr, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(expr)
}

// QueryContext is Query with cancellation: the evaluation loop polls
// ctx and aborts with ctx.Err() once it is done.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	return e.WithContext(ctx).Query(src)
}

// Eval evaluates a parsed query.
func (e *Engine) Eval(expr xquery.Expr) (*Result, error) {
	e.resetRun()
	if e.ctx != nil {
		// Check once up front so an already-expired deadline fails
		// deterministically, before any evaluation work.
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	env := newScope()
	items, err := e.eval(expr, env)
	if err != nil {
		return nil, err
	}
	return newEagerResult(items, e.store), nil
}

// checkCancel polls the engine's context. The poll is amortized: the
// channel receive runs every 64th call, the rest is one branch and an
// increment, cheap enough for the per-expression hot path.
func (e *Engine) checkCancel() error {
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
// value is boxed into a Seq only where an expression asks for it.
type binding struct {
	seq  Seq             // generic value (LET over atoms or fragments)
	ids  algebra.NodeSet // document-ordered node value; non-nil replaces seq
	item Item            // single non-node FOR item; non-nil replaces seq
	one  [1]storage.NodeID
	sums []*storage.SummaryNode
}

func (b *binding) set(it Item) {
	if id, isNode := it.(storage.NodeID); isNode {
		b.setNode(id)
		return
	}
	b.ids, b.item = nil, it
}

func (b *binding) setNode(id storage.NodeID) {
	b.one[0] = id
	b.ids, b.item = b.one[:], nil
}

// value boxes the binding. The result is a fresh sequence unless the
// binding holds an immutable LET value, so callers may keep it across
// tuples.
func (b *binding) value() Seq {
	switch {
	case b.ids != nil:
		out := make(Seq, len(b.ids))
		for i, id := range b.ids {
			out[i] = id
		}
		return out
	case b.item != nil:
		return Seq{b.item}
	}
	return b.seq
}

// scope is the evaluation environment: variable bindings, the context
// node (0 when there is none), and — for the compressed-domain fast
// paths — the summary nodes each is an instance of. One scope serves a
// whole evaluation: clauses bind in place and restore what they
// shadowed on the way out.
type scope struct {
	vars    map[string]*binding
	ctx     [1]storage.NodeID
	ctxSums []*storage.SummaryNode
}

func newScope() *scope { return &scope{vars: map[string]*binding{}} }

// bind installs a fresh slot for name and returns it with the one it
// shadows, which unbind puts back.
func (v *scope) bind(name string, sums []*storage.SummaryNode) (b, shadowed *binding) {
	shadowed = v.vars[name]
	b = &binding{sums: sums}
	v.vars[name] = b
	return b, shadowed
}

func (v *scope) unbind(name string, shadowed *binding) {
	if shadowed == nil {
		delete(v.vars, name)
	} else {
		v.vars[name] = shadowed
	}
}

// ctxValue boxes the context item (a nil item when there is none, which
// every consumer rejects as a non-node).
func (v *scope) ctxValue() Seq {
	if v.ctx[0] == 0 {
		return Seq{nil}
	}
	return Seq{v.ctx[0]}
}

// eval dispatches on the AST.
func (e *Engine) eval(expr xquery.Expr, env *scope) (Seq, error) {
	if err := e.checkCancel(); err != nil {
		return nil, err
	}
	switch x := expr.(type) {
	case *xquery.StringLit:
		return Seq{x.Val}, nil
	case *xquery.NumberLit:
		return Seq{x.Val}, nil
	case *xquery.VarRef:
		if x.Name == "." {
			return env.ctxValue(), nil
		}
		b, ok := env.vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("engine: unbound variable $%s", x.Name)
		}
		return b.value(), nil
	case *xquery.Sequence:
		var out Seq
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
		return Seq{b}, err
	case *xquery.Logic:
		lb, err := e.evalBool(x.Left, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" && !lb {
			return Seq{false}, nil
		}
		if x.Op == "or" && lb {
			return Seq{true}, nil
		}
		rb, err := e.evalBool(x.Right, env)
		if err != nil {
			return nil, err
		}
		return Seq{rb}, nil
	case *xquery.Arith:
		return e.evalArith(x, env)
	case *xquery.Call:
		return e.evalCall(x, env)
	case *xquery.ElementCtor:
		return e.evalCtor(x, env)
	case *xquery.FLWOR:
		return e.evalFLWOR(x, env)
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", expr)
}

func (e *Engine) evalBool(expr xquery.Expr, env *scope) (bool, error) {
	// The per-tuple filters of the XMark queries are comparisons and
	// emptiness tests: answer those without a one-item sequence.
	switch x := expr.(type) {
	case *xquery.Cmp:
		return e.evalCmp(x, env)
	case *xquery.Call:
		if x.Name == "empty" || x.Name == "exists" {
			n, err := e.argLen(x, env)
			return (n == 0) == (x.Name == "empty"), err
		}
	}
	v, err := e.eval(expr, env)
	if err != nil {
		return false, err
	}
	return e.effectiveBool(v)
}

// evalCmp implements general (existential) comparisons.
func (e *Engine) evalCmp(x *xquery.Cmp, env *scope) (bool, error) {
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

func (e *Engine) evalArith(x *xquery.Arith, env *scope) (Seq, error) {
	ln, err := e.evalNum(x.Left, env)
	if err != nil {
		return nil, err
	}
	rn, err := e.evalNum(x.Right, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+":
		return Seq{ln + rn}, nil
	case "-":
		return Seq{ln - rn}, nil
	case "*":
		return Seq{ln * rn}, nil
	case "div":
		return Seq{ln / rn}, nil
	case "mod":
		return Seq{float64(int64(ln) % int64(rn))}, nil
	}
	return nil, fmt.Errorf("engine: unknown arithmetic operator %s", x.Op)
}

func (e *Engine) evalNum(expr xquery.Expr, env *scope) (float64, error) {
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

// evalCtor builds a Fragment. Attribute values are assembled in abuf
// (detached while in use, so a nested constructor cannot clobber it) and
// path-valued content goes straight into the fragment.
func (e *Engine) evalCtor(x *xquery.ElementCtor, env *scope) (Seq, error) {
	frag := &Fragment{Name: x.Name}
	if len(x.Attrs) > 0 {
		frag.Attrs = make([]FragAttr, 0, len(x.Attrs))
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
			frag.Attrs = append(frag.Attrs, FragAttr{Name: a.Name, Value: string(buf)})
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
			var v Seq
			v, err = e.eval(c, env)
			frag.Content = append(frag.Content, v...)
		}
		if err != nil {
			return nil, err
		}
	}
	return Seq{frag}, nil
}

// appendAtoms appends the space-joined string values of x's items to
// dst; path results are decoded straight from the store.
func (e *Engine) appendAtoms(dst []byte, x xquery.Expr, env *scope) ([]byte, error) {
	if p, isPath := x.(*xquery.PathExpr); isPath {
		st, textTail, err := e.evalPathNodes(p, env)
		textTail = textTail || leafOnly(st.sums)
		for i := 0; err == nil && i < len(st.nodes); i++ {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst, err = e.appendNodeValue(dst, st.nodes[i], textTail)
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
func (e *Engine) evalBindingSeq(expr xquery.Expr, env *scope) (Seq, algebra.NodeSet, []*storage.SummaryNode, error) {
	switch x := expr.(type) {
	case *xquery.PathExpr:
		st, textTail, err := e.evalPathNodes(x, env)
		if err != nil {
			return nil, nil, nil, err
		}
		if textTail {
			seq, err := e.appendTexts(nil, st.nodes)
			return seq, nil, nil, err
		}
		if st.nodes == nil {
			st.nodes = algebra.NodeSet{}
		}
		return nil, st.nodes, st.sums, nil
	case *xquery.VarRef:
		// Propagate summary knowledge through plain variable references.
		// The node-set fast path applies only when the sequence is already
		// in document order: FOR must preserve the bound sequence's order
		// (it may carry a deliberate ORDER BY arrangement).
		if b := env.vars[x.Name]; b != nil {
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
func docOrderedNodeSeq(s Seq) (algebra.NodeSet, bool) {
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

// splitVarCmp matches `$var/rel op literal` (either side) for the given
// variable, returning the relative path (re-rooted at the context), the
// literal and the effective operator.
func splitVarCmp(cmp *xquery.Cmp, varName string) (*xquery.PathExpr, string, string, bool) {
	lit := func(e xquery.Expr) (string, bool) {
		switch v := e.(type) {
		case *xquery.StringLit:
			return v.Val, true
		case *xquery.NumberLit:
			return formatNum(v.Val), true
		}
		return "", false
	}
	try := func(side, other xquery.Expr, op string) (*xquery.PathExpr, string, string, bool) {
		p, isPath := side.(*xquery.PathExpr)
		if !isPath || p.Var != varName {
			return nil, "", "", false
		}
		l, isLit := lit(other)
		if !isLit {
			return nil, "", "", false
		}
		rel := &xquery.PathExpr{Var: ".", Steps: p.Steps}
		return rel, l, op, true
	}
	if rel, l, op, ok := try(cmp.Left, cmp.Right, cmp.Op); ok {
		return rel, l, op, true
	}
	return try(cmp.Right, cmp.Left, flipOp(cmp.Op))
}
