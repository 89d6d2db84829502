package engine

// vmops exports the evaluator's internals to the bytecode VM
// (internal/vm). The VM's compiler resolves structure-summary targets
// and predicate containers at compile time and its run loop drives
// binding iteration directly, but every set-at-a-time operation — path
// navigation, compressed-domain container matches, join indexes,
// per-tuple expression evaluation — runs through the same engine code
// the tree walker uses, so the two evaluators are byte-identical by
// construction wherever the VM delegates here.

import (
	"context"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Env is an exported handle on the evaluation environment (variable
// bindings plus their summary-node provenance). The VM keeps one Env
// per run and rebinds variables in place as its cursors advance; the
// engine binds nested FLWOR variables into the same scope and restores
// what they shadowed, so the VM's slots survive every call.
type Env struct{ s *scope }

// NewEnv returns a fresh, empty environment.
func (e *Engine) NewEnv() *Env { return &Env{s: newScope()} }

// Reset drops every binding (the VM emits a reset at each top-level
// block boundary so sibling blocks cannot see each other's variables,
// matching the tree walker's scoping).
func (v *Env) Reset() { v.s = newScope() }

func (v *Env) slot(name string, sums []*storage.SummaryNode) *binding {
	b := v.s.vars[name]
	if b == nil {
		b = &binding{}
		v.s.vars[name] = b
	}
	b.sums = sums
	return b
}

// Bind sets a variable's value — a document-ordered node set when ids
// is non-nil, else a generic sequence the caller no longer writes to —
// and its summary provenance.
func (v *Env) Bind(name string, seq Seq, ids algebra.NodeSet, sums []*storage.SummaryNode) {
	b := v.slot(name, sums)
	b.seq, b.ids, b.item = seq, ids, nil
}

// BindNode rebinds a FOR variable to one node, allocating nothing.
func (v *Env) BindNode(name string, id storage.NodeID, sums []*storage.SummaryNode) {
	v.slot(name, sums).setNode(id)
}

// WithPlans hands the engine the plans its program was compiled with.
func (e *Engine) WithPlans(pl *Plans) *Engine {
	e.plans = pl
	return e
}

// EvalExpr evaluates an arbitrary expression under env — the VM's
// fallback for shapes it does not compile (nested FLWORs, constructors,
// aggregates), identical to the tree walker because it IS the tree
// walker.
func (e *Engine) EvalExpr(x xquery.Expr, env *Env) (Seq, error) {
	return e.eval(x, env.s)
}

// EvalBoolExpr evaluates an expression to its effective boolean value.
func (e *Engine) EvalBoolExpr(x xquery.Expr, env *Env) (bool, error) {
	return e.evalBool(x, env.s)
}

// BindingSeq evaluates a FOR/LET source (evalBindingSeq).
func (e *Engine) BindingSeq(x xquery.Expr, env *Env) (Seq, algebra.NodeSet, []*storage.SummaryNode, error) {
	return e.evalBindingSeq(x, env.s)
}

// PathNodes evaluates the structural part of a path (evalPathNodes).
// textTail reports a final text() step; the returned nodes are then the
// text owners.
func (e *Engine) PathNodes(p *xquery.PathExpr, env *Env) (algebra.NodeSet, []*storage.SummaryNode, bool, error) {
	st, textTail, err := e.evalPathNodes(p, env.s)
	return st.nodes, st.sums, textTail, err
}

// RelValueTarget resolves a context-relative predicate path to its
// value containers (see relValueTarget).
func (e *Engine) RelValueTarget(sums []*storage.SummaryNode, p *xquery.PathExpr) ([]*storage.Container, bool, bool) {
	return e.relValueTarget(sums, p)
}

// ApplyLitPushdown restricts cur, instances of sums, to the nodes that
// satisfy a literal pushdown (applyLit).
func (e *Engine) ApplyLitPushdown(pd Pushdown, cur algebra.NodeSet, sums []*storage.SummaryNode) (algebra.NodeSet, bool, error) {
	return e.applyLit(pd, cur, sums)
}

// ApplyJoinPushdown restricts cur to the join partners of the other
// variable's current binding (applyJoin), building or reusing the
// engine's per-comparison join index.
func (e *Engine) ApplyJoinPushdown(pd Pushdown, cur algebra.NodeSet, sums []*storage.SummaryNode, env *Env) (algebra.NodeSet, bool, error) {
	return e.applyJoin(pd, cur, sums, env.s)
}

// CheckCancel polls the engine's context (amortized); the VM calls it
// once per binding iteration.
func (e *Engine) CheckCancel() error { return e.checkCancel() }

// ContextErr reports the armed context's error, nil when none is armed
// (the up-front deadline check EvalStream performs).
func (e *Engine) ContextErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Context returns the armed context (nil when none).
func (e *Engine) Context() context.Context { return e.ctx }

// Hook returns the armed bind hook (nil when none); the VM fires it for
// clause-0 FOR bindings and top-level path nodes, strictly before the
// items derived from the binding are emitted — the WithBindHook
// contract the shard workers' rank stamping relies on.
func (e *Engine) Hook() func(storage.NodeID) { return e.bindHook }

// NewPullResult wraps a pull function as this engine's streaming
// Result — the adapter that lets the VM's run loop BE the cursor, with
// no coroutine in between.
func (e *Engine) NewPullResult(pull func() (Item, error, bool), stop func()) *Result {
	return &Result{store: e.store, ctx: e.ctx, pull: pull, stop: stop}
}
