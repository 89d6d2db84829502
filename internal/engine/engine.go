package engine

import (
	"bytes"
	"context"

	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// engine evaluates XQuery over a compressed repository. An engine holds
// per-query state and must not be shared between goroutines; the store
// it reads is immutable, so any number of engines may run over one
// Store concurrently.
type engine struct {
	store *storage.Store
	// env is the run's variables and context item.
	env *scope
	// pcs are this run's cursors of the program's paths, by the slot the
	// compiler gave each (pathNode.slot), each with its plan and
	// galloping positions, so a tuple never re-plans.
	pcs []pathCursor
	// owners are this run's resolutions of the program's literal
	// restricts, by slot (litRestrict.slot): one reached once per outer
	// tuple scans its containers once per run. joinIdx are the join
	// indexes this run built, by slot (predSpec.idxSlot): those of joins
	// whose summary sets were not static at compile (a program builds the
	// others once, and all its runs share them).
	owners  []*conjunctOwners
	joinIdx []*joinIndex
	// offsets are the extent offsets of the pairs of summary nodes the
	// paths this engine resolved read by them (reach), offBytes their size.
	offsets  map[[2]*storage.SummaryNode][]uint32
	offBytes int
	// run is the run of the program the engine evaluates for: its
	// dispatch runs the sub-program of each FLWOR an expression reaches.
	run *run
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
	return &engine{store: s}
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
// increment, cheap enough for the per-tuple hot path.
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

// splitVarPred matches a literal restrict on the variable whose binder
// slot is binder (xquery.Clause.Binder), or on the context item when
// binder is 0: `$var/rel op literal` (either side), returning the
// effective operator (flipped when the literal is on the left), or
// `fn($var/rel, "literal")` with fn a string function (stringFunc) and the
// literal not empty, returning fn as the operator. The path returned is
// the conjunct's: only its steps, rel, are read.
func splitVarPred(conj xquery.Expr, binder int) (*xquery.PathExpr, string, string, bool) {
	rooted := func(x xquery.Expr) (*xquery.PathExpr, bool) {
		p, isPath := x.(*xquery.PathExpr)
		return p, isPath && (binder == 0) == (p.Var == ".") && p.Binder == binder
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
			if lit, isLit := other.(*xquery.StringLit); isLit {
				return p, lit.Val, op, true
			}
			if f, isConst := constNum(other); isConst {
				return p, formatNum(f), op, true
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
