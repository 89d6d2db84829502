package engine

// vmops exports the evaluator's internals to the bytecode VM
// (internal/vm). The VM's compiler resolves structure-summary targets
// and predicate containers at compile time and its run loop drives
// binding iteration directly; every set-at-a-time operation — path
// navigation, compressed-domain container matches, join indexes,
// per-tuple expression evaluation — runs through the engine code here,
// the same code the eager Eval (the oracle of the VM's tests) runs.

import (
	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Env is an exported handle on the evaluation environment (variable
// bindings plus their summary-node provenance) for the clauses of a
// compiled FLWOR. The clause bound k-th binds at depth k, and binding
// there first unbinds every deeper clause, restoring what each shadowed:
// a clause source evaluated after its enclosing FOR clause rebinds sees
// exactly the clauses before it in the current tuple — never its own or
// a later clause's binding from the previous tuple, which flworEach's
// scoping has already dropped. The engine binds nested FLWOR
// variables into the same scope and restores what they shadowed, so the
// VM's bindings survive every call.
type Env struct {
	s      *scope
	frames []frame // the bound clauses, by depth; a slot outlives its frame
}

// frame is one bound clause: its variable, the slot holding its value,
// and the binding the slot shadows.
type frame struct {
	name        string
	b, shadowed *binding
}

// NewEnv returns a fresh, empty environment.
func (e *Engine) NewEnv() *Env { return &Env{s: newScope()} }

// Reset drops every binding (the VM emits a reset at each top-level
// block boundary so sibling blocks cannot see each other's variables).
func (v *Env) Reset() {
	v.s = newScope()
	v.frames = v.frames[:0]
}

// slot unbinds the clauses deeper than depth and returns the slot of the
// clause at depth, installing it under name when that clause is not
// bound yet — the clauses above it are. A FOR clause's next tuple
// rebinds the installed slot, allocating nothing.
func (v *Env) slot(depth int, name string, sums []*storage.SummaryNode) *binding {
	for len(v.frames) > depth+1 {
		f := &v.frames[len(v.frames)-1]
		v.s.unbind(f.name, f.shadowed)
		v.frames = v.frames[:len(v.frames)-1]
	}
	if len(v.frames) == depth {
		if depth < cap(v.frames) {
			v.frames = v.frames[:depth+1]
		} else {
			v.frames = append(v.frames, frame{})
		}
		f := &v.frames[depth]
		if f.b == nil {
			f.b = &binding{}
		}
		f.name, f.shadowed = name, v.s.vars[name]
		v.s.vars[name] = f.b
	}
	b := v.frames[depth].b
	b.sums = sums
	return b
}

// Bind binds the clause at depth to a value — a document-ordered node
// set when ids is non-nil, else a generic sequence the caller no longer
// writes to — and its summary provenance.
func (v *Env) Bind(depth int, name string, seq Seq, ids algebra.NodeSet, sums []*storage.SummaryNode) {
	b := v.slot(depth, name, sums)
	b.seq, b.ids, b.item = seq, ids, nil
}

// BindNode binds the FOR clause at depth to one node.
func (v *Env) BindNode(depth int, name string, id storage.NodeID, sums []*storage.SummaryNode) {
	v.slot(depth, name, sums).setNode(id)
}

// WithPlans hands the engine the plans its program was compiled with.
func (e *Engine) WithPlans(pl *Plans) *Engine {
	e.plans = pl
	return e
}

// EvalExpr evaluates an arbitrary expression under env — how the VM
// runs the shapes it does not compile into instructions (nested
// FLWORs, constructors, aggregates).
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

// CollectKey completes the tuple the VM just added to t with its key
// (collectKey).
func (e *Engine) CollectKey(t *TupleSort, env *Env) error { return e.collectKey(t, env.s) }

// Replay binds t's next tuple into env (replay).
func (e *Engine) Replay(t *TupleSort, env *Env) (bool, error) { return e.replay(t, env.s) }

// CheckCancel polls the engine's context (amortized); the VM calls it
// once per binding iteration.
func (e *Engine) CheckCancel() error { return e.checkCancel() }

// ContextErr reports the armed context's error, nil when none is armed
// (the up-front deadline check a run performs, as Eval does).
func (e *Engine) ContextErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

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
