// Package vm compiles parsed XQuery plans to bytecode and evaluates
// them on a register-light stack VM.
//
// The compiler (compile.go) lowers the AST into a flat []Instr program:
// container and summary-node operands are resolved against the
// repository's structure summary at compile time, every FLWOR's clauses
// become cursor loops — a nested FLWOR's, unless a LET is bound to it, in
// a sub-program the engine calls where it stands — and the §4 predicate
// fast paths (compressed-domain container matches, join indexes built at
// compile time, summary-pruned steps) are dedicated opcodes. An ORDER BY
// collects its tuples, sorts them — on container ranks when it can — and
// evaluates one RETURN per replayed tuple. A RETURN that is an element
// constructor is an emission template: its item is written straight into
// the run's output buffer, no fragment built. The VM's run loop IS the
// streaming cursor: Run.Next executes instructions until one emits an
// item, then suspends at the program counter — no per-item goroutine or
// coroutine handoff.
//
// A compiled program is the only way a query runs. Everything
// set-at-a-time — path navigation, container scans, join indexes,
// template emission, the expressions a program hands over whole
// (aggregates, constructors whose value is looked into) — delegates to
// internal/engine, the VM's operand library. The DOM evaluator of
// internal/baselines/galaxlike, which shares no code with them, is the
// oracle of this package's tests and of the end-to-end ones.
package vm

import (
	"context"
	"fmt"

	"xquec/internal/algebra"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Op is a VM opcode.
type Op uint8

const (
	// OpHalt ends the program.
	OpHalt Op = iota
	// OpReset installs a fresh variable environment (emitted at each
	// top-level block boundary so sibling blocks cannot observe each
	// other's bindings).
	OpReset
	// OpScan A=cursor B=domain: evaluate a FOR domain (or top-level
	// path) into cursor A. Invariant domains are computed once per run.
	OpScan
	// OpLitRestrict A=cursor B=pred: compressed-domain semijoin of a
	// literal WHERE pushdown against cursor A's node set; predicates the
	// containers cannot answer fall into the cursor's deferred slots.
	OpLitRestrict
	// OpJoinRestrict A=cursor B=pred: equality-join pushdown restrict
	// via the engine's per-comparison join index, else deferred.
	OpJoinRestrict
	// OpIter A=cursor B=var C=jump: advance cursor A and bind its
	// current item to var, unbinding the clauses after it; jump to C
	// when exhausted (the enclosing clause's OpIter, or the block end for
	// clause 0).
	OpIter
	// OpDeferred A=cursor C=jump: evaluate the cursor's deferred
	// conjuncts (original plan order) against the fresh binding; jump
	// back to C (the cursor's OpIter) when one fails.
	OpDeferred
	// OpLet A=var B=domain: evaluate a LET source and bind it.
	OpLet
	// OpWhere A=expr C=jump: residual WHERE conjunct; jump back to C
	// (the innermost OpIter) when false.
	OpWhere
	// OpEvalPush A=expr: evaluate an expression through the engine and
	// push the sequence onto the emit stack (RETURN bodies the compiler
	// does not specialize, eager blocks).
	OpEvalPush
	// OpEmitSeq C=jump: emit the top-of-stack sequence one item per
	// Next; pop and jump to C when drained.
	OpEmitSeq
	// OpIterEmit A=cursor C=jump: top-level path streaming — advance
	// cursor A and emit its node (or its decoded text for text() tails)
	// directly; jump to C when exhausted.
	OpIterEmit
	// OpCollect A=sort C=jump: add the FOR cursors' bindings and the key
	// as a tuple of sorter A; jump back to C (the innermost OpIter).
	OpCollect
	// OpSort A=sort: order sorter A's tuples (on ranks when it can).
	OpSort
	// OpReplay A=sort C=jump: bind sorter A's next tuple and the LETs the
	// RETURN needs; jump to C when none is left.
	OpReplay
	// OpLetOpen A=acc B=depth: start a LET whose source FLWOR the program
	// runs as loops: empty accumulator A and reserve the LET's depth, so
	// the inner clauses bind after it.
	OpLetOpen
	// OpAppend A=acc B=expr C=jump: append the inner RETURN's items to
	// accumulator A; jump back to C (the inner innermost OpIter).
	OpAppend
	// OpAppendCur A=acc B=cursor C=jump: append cursor B's current node
	// to accumulator A (an inner RETURN that is its only FOR's variable);
	// jump back to C.
	OpAppendCur
	// OpLetBind A=var B=acc C=cursor: bind the LET to accumulator B's
	// items — when C ≥ 0, the nodes OpAppendCur appended, with cursor C's
	// summary set — which unbinds the inner clauses.
	OpLetBind
	// OpEmitCtor A=template C=jump: write a RETURN's constructed element
	// through emission template A and emit it; the next pull resumes at C.
	OpEmitCtor
	// OpAppendCtor A=acc B=template C=jump: write an inner RETURN's
	// constructed element through template B and append it to accumulator
	// A (a LET whose items are only written out or counted); jump to C.
	OpAppendCtor
	// OpAppendOut A=acc B=expr C=jump: append the inner RETURN's items to
	// accumulator A each written as element content (such a LET's other
	// RETURNs); jump to C.
	OpAppendOut
	// OpRet A=sub: end sub-program A; its accumulator holds its items.
	OpRet
)

var opNames = [...]string{
	OpHalt: "HALT", OpReset: "RESET", OpScan: "SCAN",
	OpLitRestrict: "LITREST", OpJoinRestrict: "JOINREST",
	OpIter: "ITER", OpDeferred: "DEFERRED",
	OpLet: "LET", OpWhere: "WHERE", OpEvalPush: "EVAL",
	OpEmitSeq: "EMITSEQ", OpIterEmit: "ITEREMIT",
	OpCollect: "COLLECT", OpSort: "SORT", OpReplay: "REPLAY",
	OpLetOpen: "LETOPEN", OpAppend: "APPEND", OpAppendCur: "APPENDCUR",
	OpLetBind: "LETBIND", OpEmitCtor: "EMITCTOR", OpAppendCtor: "APPENDCTOR", OpAppendOut: "APPENDOUT",
	OpRet: "RET",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instr is one instruction: an opcode and up to three operands, whose
// meaning depends on the opcode (cursor/pool indexes and jump targets).
type Instr struct {
	Op      Op
	A, B, C int32
}

// domainSpec is one FOR/LET source (or top-level path), with whatever
// the compiler could resolve statically against the structure summary.
type domainSpec struct {
	expr xquery.Expr
	path *xquery.PathExpr // non-nil when the source is a path
	// sums is the statically resolved result summary set; valid only
	// when static is true.
	sums   []*storage.SummaryNode
	static bool
	// topPath marks a top-level streaming path (structural nodes kept
	// as a cursor; text() tails decode per emitted item).
	topPath  bool
	textTail bool // static: the path ends in text()
	// invariant: the source has no free variables, so its scan result
	// is computed once per run and reused across outer tuples.
	invariant bool
	// preds are the clause's pushdown predicate indexes in original
	// plan order — the cursor's deferred slot layout.
	preds []int32
}

// predSpec is one WHERE pushdown assigned to a clause.
type predSpec struct {
	pd   engine.Pushdown
	slot int32 // original position among the clause's pushdowns
	// Literal pushdowns with a statically known clause summary resolve
	// their containers at compile time, for the cost that orders the
	// restricts, the disassembly, and to defer at once what has no fast
	// path; a run matches them through the engine, once (ApplyLitPushdown).
	conts    []*storage.Container
	complete bool
	fastOK   bool   // the containers answer it (false: always deferred)
	why      string // why they do not
	resolved bool   // conts/complete/fastOK/why are valid
	cost     float64
	// ms are a string function's code automata over conts, built at
	// compile and shared by every run (engine.Matchers); nil when no
	// container is read on its compressed bytes.
	ms *engine.Matchers
	// idx is a join pushdown's index, built at compile time when both
	// sides' summary sets are static; whole says the cursor holds every
	// instance of its set when the join restricts it, so the partners
	// are the restriction.
	idx   *engine.JoinIndex
	whole bool
}

// varSpec is the variable one FLWOR clause binds, and its depth: the
// number of clauses of the FLWOR the program binds before it.
type varSpec struct {
	name  string
	depth int32
}

// sortSpec is one FLWOR's ORDER BY, what each run builds its
// engine.TupleSort from.
type sortSpec struct {
	flwor *xquery.FLWOR
	plan  *engine.FLWORPlan
	fors  []int32       // the FOR clauses' cursors, in clause order
	ranks *engine.Ranks // the key's rank table; nil: keys are decoded
}

// subSpec is the sub-program of a FLWOR: its code from entry to its OpRet,
// the accumulator its RETURN appends to, and its sorter (-1: none).
type subSpec struct {
	x                *xquery.FLWOR
	entry, acc, sort int32
}

// tplSpec is a constructor compiled into an emission template.
type tplSpec struct {
	t *engine.Template
	x *xquery.ElementCtor
}

// Program is a compiled query plan: a flat instruction slice plus the
// operand pools its instructions index into. Programs are immutable
// after Compile and safe for any number of concurrent Runs — the plan
// cache shares one Program across requests.
type Program struct {
	src    string
	instrs []Instr
	doms   []domainSpec
	preds  []predSpec
	exprs  []xquery.Expr
	sorts  []sortSpec
	tpls   []tplSpec
	// reuse has one entry per accumulator, one per LET run as loops and
	// one per sub-program: true when nothing keeps the LET's value past its
	// tuple (its items are only written out or counted), so each LETOPEN
	// refills the same storage.
	reuse []bool
	// subs are the sub-programs; subOf finds the one of a FLWOR.
	subs  []subSpec
	subOf map[*xquery.FLWOR]int32
	// plans is the pool of resolved paths and planned FLWORs: every
	// expression a run hands to the engine finds its plan here.
	plans   engine.Plans
	vars    []varSpec
	ncur    int
	store   *storage.Store
	sizeEst int
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.instrs) }

// SizeBytes estimates the program's resident size — instructions plus
// operand pools — for byte-based plan-cache accounting.
func (p *Program) SizeBytes() int { return p.sizeEst }

// Store returns the repository the program was compiled against.
// Programs resolve container and summary operands at compile time, so
// they are only valid on this store.
func (p *Program) Store() *storage.Store { return p.store }

// RunOptions configures one execution of a Program.
type RunOptions struct {
	// Ctx, when non-nil, is polled during evaluation (engine.WithContext
	// semantics: context.Background disables polling).
	Ctx context.Context
	// Parallelism is the intra-query worker budget (0 = GOMAXPROCS).
	Parallelism int
}

// emitFrame is one sequence being drained by OpEmitSeq.
type emitFrame struct {
	seq engine.Seq
	pos int
}

// cursor is one FOR clause's (or top-level path's) iteration state.
type cursor struct {
	ids     algebra.NodeSet
	seq     engine.Seq
	seqMode bool
	sums    []*storage.SummaryNode
	// deferred holds per-tuple conjuncts in original plan order (slot
	// layout from domainSpec.preds); nil slots passed.
	deferred []xquery.Expr
	pos      int
	textTail bool
	// current binding (for OpDeferred jumps)
	curNode   storage.NodeID
	curIsNode bool
}

// accum is one LET's value while its inner loops run: nodes for an
// OpAppendCur accumulator, items otherwise. OpLetBind hands it to the
// binding, so each OpLetOpen starts a fresh one — unless the program
// reuses it (Program.reuse), when the binding dies with its tuple.
type accum struct {
	ids algebra.NodeSet
	seq engine.Seq
}

// domResult is a cached invariant-domain scan.
type domResult struct {
	seq      engine.Seq
	ids      algebra.NodeSet
	sums     []*storage.SummaryNode
	textTail bool
}

// Run is one execution of a Program: the program counter, cursors,
// emit stack and variable environment. A Run is single-goroutine, like
// the engine it drives.
type Run struct {
	prog *Program
	eng  *engine.Engine
	env  *engine.Env

	pc      int32
	cursors []cursor
	stack   []emitFrame
	doms    map[int32]*domResult
	sorts   []*engine.TupleSort
	accs    []accum

	sc   *storage.Scratch
	err  error
	done bool
}

// Run starts one execution and returns it wrapped as a streaming
// engine.Result: the VM loop is the cursor behind Result.Next. An
// already-expired deadline fails here, before any evaluation work.
func (p *Program) Run(opts RunOptions) (*engine.Result, error) {
	r, err := p.NewRun(opts)
	if err != nil {
		return nil, err
	}
	return r.eng.NewPullResult(r.pull, r.stop), nil
}

// pull adapts next to the Result pull contract (item, err, ok: errors
// arrive with ok=true).
func (r *Run) pull() (engine.Item, error, bool) {
	it, ok, err := r.next()
	if err != nil {
		return nil, err, true
	}
	return it, nil, ok
}

// NewRun builds the execution state without wrapping it in a Result
// (tests drive Next directly).
func (p *Program) NewRun(opts RunOptions) (*Run, error) {
	eng := engine.New(p.store).WithPlans(p.plans)
	if opts.Ctx != nil {
		eng.WithContext(opts.Ctx)
	}
	eng.WithParallelism(opts.Parallelism)
	if err := eng.ContextErr(); err != nil {
		return nil, err
	}
	r := &Run{
		prog:    p,
		eng:     eng,
		env:     eng.NewEnv(),
		cursors: make([]cursor, p.ncur),
		accs:    make([]accum, len(p.reuse)),
	}
	eng.WithFLWORRunner(r)
	for _, ss := range p.sorts {
		r.sorts = append(r.sorts, engine.NewTupleSort(ss.flwor, ss.plan, ss.ranks))
	}
	return r, nil
}

// RunFLWOR runs the sub-program of x to its OpRet (engine.FLWORRunner) in
// env, its accumulator starting as dst; a sorter puts back the outer
// bindings of its clauses' names on the way out (TupleSort.Open, Close).
func (r *Run) RunFLWOR(x *xquery.FLWOR, env *engine.Env, dst engine.Seq) (engine.Seq, error) {
	k, ok := r.prog.subOf[x]
	if !ok {
		return nil, fmt.Errorf("vm: run: internal error: no sub-program for %s", trunc(x.String(), 48))
	}
	s := &r.prog.subs[k]
	if s.sort >= 0 {
		r.sorts[s.sort].Open(env)
		defer r.sorts[s.sort].Close(env)
	}
	a := &r.accs[s.acc]
	outer, pc := r.env, r.pc
	a.seq, r.env, r.pc = dst, env, s.entry
	_, _, err := r.dispatch()
	r.env, r.pc = outer, pc
	dst, a.seq = a.seq, nil
	return dst, err
}

// Next yields the next result item. ok=false ends the stream; a
// non-nil error is sticky.
func (r *Run) Next() (engine.Item, bool, error) { return r.next() }

func (r *Run) fail(err error) (engine.Item, bool, error) {
	r.err = err
	r.releaseScratch()
	return nil, false, err
}

func (r *Run) releaseScratch() {
	if r.sc != nil {
		r.sc.Release()
		r.sc = nil
	}
}

func (r *Run) stop() {
	r.done = true
	r.releaseScratch()
}

// next runs the dispatch loop. A panic in an instruction fails the run
// with an error, as one in Compile does, and the error is sticky. (The
// loop is a function of its own: with its many returns a deferred call
// there could not be open-coded, and would cost every item.)
func (r *Run) next() (it engine.Item, ok bool, err error) {
	if r.err != nil {
		return nil, false, r.err
	}
	if r.done {
		return nil, false, nil
	}
	defer func() {
		if rec := recover(); rec != nil {
			it, ok, err = r.fail(fmt.Errorf("vm: run: internal error at pc %d: %v", r.pc, rec))
		}
	}()
	return r.dispatch()
}

// dispatch executes instructions until one emits an item (returning with
// the program counter parked so the next call resumes), the program
// halts, or evaluation fails.
func (r *Run) dispatch() (engine.Item, bool, error) {
	p := r.prog
	eng := r.eng
	for {
		in := p.instrs[r.pc]
		switch in.Op {
		case OpHalt:
			r.stop()
			return nil, false, nil

		case OpReset:
			r.env.Reset()
			r.pc++

		case OpScan:
			spec := &p.doms[in.B]
			c := &r.cursors[in.A]
			c.pos = 0
			if spec.topPath {
				nodes, sums, textTail, err := eng.PathNodes(spec.path, r.env)
				if err != nil {
					return r.fail(err)
				}
				c.ids, c.sums, c.textTail, c.seqMode = nodes, sums, textTail, false
				r.pc++
				continue
			}
			var res *domResult
			if spec.invariant {
				if cached, ok := r.doms[in.B]; ok {
					res = cached
				}
			}
			if res == nil {
				seq, ids, sums, err := eng.BindingSeq(spec.expr, r.env)
				if err != nil {
					return r.fail(err)
				}
				res = &domResult{seq: seq, ids: ids, sums: sums}
				if spec.invariant {
					if r.doms == nil {
						r.doms = map[int32]*domResult{}
					}
					r.doms[in.B] = res
				}
			}
			c.ids, c.seq, c.sums = res.ids, res.seq, res.sums
			c.seqMode = res.ids == nil
			// Reset the deferred slots. In sequence mode (the domain is
			// not a node set) every pushdown becomes a per-tuple filter.
			if n := len(spec.preds); n > 0 {
				if cap(c.deferred) < n {
					c.deferred = make([]xquery.Expr, n)
				}
				c.deferred = c.deferred[:n]
				for i := range c.deferred {
					c.deferred[i] = nil
				}
				if c.seqMode {
					for i, pi := range spec.preds {
						c.deferred[i] = p.preds[pi].pd.Conj
					}
				}
			} else {
				c.deferred = c.deferred[:0]
			}
			r.pc++

		case OpLitRestrict:
			c := &r.cursors[in.A]
			if c.seqMode {
				r.pc++
				continue
			}
			ps := &p.preds[in.B]
			if ps.resolved && !ps.fastOK {
				c.deferred[ps.slot] = ps.pd.Conj
				r.pc++
				continue
			}
			restricted, handled, err := eng.ApplyLitPushdown(ps.pd, ps.ms, c.ids, c.sums)
			if err != nil {
				return r.fail(err)
			}
			if handled {
				c.ids = restricted
			} else {
				c.deferred[ps.slot] = ps.pd.Conj
			}
			r.pc++

		case OpJoinRestrict:
			c := &r.cursors[in.A]
			if c.seqMode {
				r.pc++
				continue
			}
			ps := &p.preds[in.B]
			restricted, handled, err := eng.ApplyJoinPushdown(ps.pd, ps.idx, ps.whole, c.ids, c.sums, r.env)
			if err != nil {
				return r.fail(err)
			}
			if handled {
				c.ids = restricted
			} else {
				c.deferred[ps.slot] = ps.pd.Conj
			}
			r.pc++

		case OpIter:
			if err := eng.CheckCancel(); err != nil {
				return r.fail(err)
			}
			c := &r.cursors[in.A]
			n := len(c.ids)
			if c.seqMode {
				n = len(c.seq)
			}
			if c.pos >= n {
				r.pc = in.C
				continue
			}
			v := &p.vars[in.B]
			if c.seqMode {
				c.curNode, c.curIsNode = c.seq[c.pos].(storage.NodeID)
				r.env.Bind(int(v.depth), v.name, c.seq[c.pos:c.pos+1], nil, c.sums)
			} else {
				c.curNode, c.curIsNode = c.ids[c.pos], true
				r.env.BindNode(int(v.depth), v.name, c.curNode, c.sums)
			}
			c.pos++
			r.pc++

		case OpDeferred:
			c := &r.cursors[in.A]
			pass := true
			for _, conj := range c.deferred {
				if conj == nil {
					continue
				}
				ok, err := eng.EvalBoolExpr(conj, r.env)
				if err != nil {
					return r.fail(err)
				}
				if !ok {
					pass = false
					break
				}
			}
			if !pass {
				r.pc = in.C
				continue
			}
			r.pc++

		case OpLet:
			spec := &p.doms[in.B]
			seq, ids, sums, err := eng.BindingSeq(spec.expr, r.env)
			if err != nil {
				return r.fail(err)
			}
			v := &p.vars[in.A]
			r.env.Bind(int(v.depth), v.name, seq, ids, sums)
			r.pc++

		case OpWhere:
			ok, err := eng.EvalBoolExpr(p.exprs[in.A], r.env)
			if err != nil {
				return r.fail(err)
			}
			if !ok {
				r.pc = in.C
				continue
			}
			r.pc++

		case OpEvalPush:
			v, err := eng.EvalExpr(p.exprs[in.A], r.env)
			if err != nil {
				return r.fail(err)
			}
			r.stack = append(r.stack, emitFrame{seq: v})
			r.pc++

		case OpEmitSeq:
			f := &r.stack[len(r.stack)-1]
			if f.pos < len(f.seq) {
				it := f.seq[f.pos]
				f.pos++
				// pc stays parked on this instruction; the next pull
				// re-enters here and emits the following item.
				return it, true, nil
			}
			r.stack = r.stack[:len(r.stack)-1]
			r.pc = in.C

		case OpIterEmit:
			if err := eng.CheckCancel(); err != nil {
				return r.fail(err)
			}
			c := &r.cursors[in.A]
			if c.pos >= len(c.ids) {
				r.pc = in.C
				continue
			}
			id := c.ids[c.pos]
			c.pos++
			if c.textTail {
				if r.sc == nil {
					r.sc = storage.NewScratch()
				}
				buf, err := p.store.TextScratch(r.sc, eng.TextCursor(), id)
				if err != nil {
					return r.fail(err)
				}
				// pc parked: the next pull advances the cursor.
				return string(buf), true, nil
			}
			return id, true, nil

		case OpCollect:
			ts := r.sorts[in.A]
			for _, cu := range p.sorts[in.A].fors {
				if c := &r.cursors[cu]; c.curIsNode {
					ts.Add(c.curNode, nil, c.sums)
				} else {
					ts.Add(0, c.seq[c.pos-1], c.sums)
				}
			}
			if err := eng.CollectKey(ts, r.env); err != nil {
				return r.fail(err)
			}
			r.pc = in.C

		case OpSort:
			if err := eng.SortTuples(r.sorts[in.A]); err != nil {
				return r.fail(err)
			}
			r.pc++

		case OpReplay:
			ok, err := eng.Replay(r.sorts[in.A], r.env)
			if err != nil {
				return r.fail(err)
			}
			if !ok {
				r.pc = in.C
				continue
			}
			r.pc++

		case OpLetOpen:
			if a := &r.accs[in.A]; p.reuse[in.A] {
				a.ids, a.seq = a.ids[:0], a.seq[:0]
			} else {
				*a = accum{}
			}
			r.env.Open(int(in.B))
			r.pc++

		case OpAppend:
			a := &r.accs[in.A]
			seq, err := eng.AppendExpr(a.seq, p.exprs[in.B], r.env)
			if err != nil {
				return r.fail(err)
			}
			a.seq = seq
			r.pc = in.C

		case OpAppendCur:
			a := &r.accs[in.A]
			a.ids = append(a.ids, r.cursors[in.B].curNode)
			r.pc = in.C

		case OpLetBind:
			a, v := &r.accs[in.B], &p.vars[in.A]
			if in.C >= 0 {
				ids := a.ids
				if ids == nil {
					ids = algebra.NodeSet{}
				}
				r.env.Bind(int(v.depth), v.name, nil, ids, r.cursors[in.C].sums)
			} else {
				r.env.Bind(int(v.depth), v.name, a.seq, nil, nil)
			}
			if !p.reuse[in.B] {
				*a = accum{} // the binding owns the items now
			}
			r.pc++

		case OpEmitCtor:
			it, err := eng.Emit(p.tpls[in.A].t, r.env)
			if err != nil {
				return r.fail(err)
			}
			r.pc = in.C
			return it, true, nil

		case OpAppendCtor:
			it, err := eng.Emit(p.tpls[in.B].t, r.env)
			if err != nil {
				return r.fail(err)
			}
			a := &r.accs[in.A]
			a.seq = append(a.seq, it)
			r.pc = in.C

		case OpAppendOut:
			a := &r.accs[in.A]
			seq, err := eng.AppendEmitted(a.seq, p.exprs[in.B], r.env)
			if err != nil {
				return r.fail(err)
			}
			a.seq = seq
			r.pc = in.C

		case OpRet:
			return nil, false, nil

		default:
			return r.fail(fmt.Errorf("vm: invalid opcode %v at pc %d", in.Op, r.pc))
		}
	}
}
