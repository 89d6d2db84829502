package engine

import (
	"context"
	"fmt"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// opcode is a VM opcode.
type opcode uint8

const (
	// opHalt ends the program.
	opHalt opcode = iota
	// opReset installs a fresh variable environment (emitted at each
	// top-level block boundary so sibling blocks cannot observe each
	// other's bindings).
	opReset
	// opScan A=cursor B=domain: evaluate a FOR domain (or top-level
	// path) into cursor A. Invariant domains are computed once per run.
	opScan
	// opLitRestrict A=cursor B=pred: compressed-domain semijoin of a
	// literal WHERE pushdown against cursor A's node set; predicates the
	// containers cannot answer fall into the cursor's deferred slots.
	opLitRestrict
	// opJoinRestrict A=cursor B=pred: equality-join pushdown restrict
	// via the engine's per-comparison join index, else deferred.
	opJoinRestrict
	// opIter A=cursor B=var C=jump: advance cursor A and bind its
	// current item to var, unbinding the clauses after it; jump to C
	// when exhausted (the enclosing clause's opIter, or the block end for
	// clause 0).
	opIter
	// opDeferred A=cursor C=jump: evaluate the cursor's deferred
	// conjuncts (original plan order) against the fresh binding; jump
	// back to C (the cursor's opIter) when one fails.
	opDeferred
	// opLet A=var B=domain: evaluate a LET source and bind it.
	opLet
	// opWhere A=expr C=jump: residual WHERE conjunct; jump back to C
	// (the innermost opIter) when false.
	opWhere
	// opEvalPush A=expr: evaluate an expression through the engine and
	// push the sequence onto the emit stack (RETURN bodies the compiler
	// does not specialize, eager blocks).
	opEvalPush
	// opEmitSeq C=jump: emit the top-of-stack sequence one item per
	// Next; pop and jump to C when drained.
	opEmitSeq
	// opIterEmit A=cursor C=jump: top-level path streaming — advance
	// cursor A and emit its node (or its decoded text for text() tails)
	// directly; jump to C when exhausted.
	opIterEmit
	// opCollect A=sort C=jump: add the FOR cursors' bindings and the key
	// as a tuple of sorter A; jump back to C (the innermost opIter).
	opCollect
	// opSort A=sort: order sorter A's tuples (on ranks when it can).
	opSort
	// opReplay A=sort C=jump: bind sorter A's next tuple and the LETs the
	// RETURN needs; jump to C when none is left.
	opReplay
	// opLetOpen A=acc B=depth: start a LET whose source FLWOR the program
	// runs as loops: empty accumulator A and reserve the LET's depth, so
	// the inner clauses bind after it.
	opLetOpen
	// opAppend A=acc B=expr C=jump: append the inner RETURN's items to
	// accumulator A; jump back to C (the inner innermost opIter).
	opAppend
	// opAppendCur A=acc B=cursor C=jump: append cursor B's current node
	// to accumulator A (an inner RETURN that is its only FOR's variable);
	// jump back to C.
	opAppendCur
	// opLetBind A=var B=acc C=cursor: bind the LET to accumulator B's
	// items — when C ≥ 0, the nodes opAppendCur appended, with cursor C's
	// summary set — which unbinds the inner clauses.
	opLetBind
	// opEmitCtor A=template C=jump: write a RETURN's constructed element
	// through emission template A and emit it; the next pull resumes at C.
	opEmitCtor
	// opAppendCtor A=acc B=template C=jump: write an inner RETURN's
	// constructed element through template B and append it to accumulator
	// A (a LET whose items are only written out or counted); jump to C.
	opAppendCtor
	// opAppendOut A=acc B=expr C=jump: append the inner RETURN's items to
	// accumulator A each written as element content (such a LET's other
	// RETURNs); jump to C.
	opAppendOut
	// opRet A=sub: end sub-program A; its accumulator holds its items.
	opRet
)

var opNames = [...]string{
	opHalt: "HALT", opReset: "RESET", opScan: "SCAN",
	opLitRestrict: "LITREST", opJoinRestrict: "JOINREST",
	opIter: "ITER", opDeferred: "DEFERRED",
	opLet: "LET", opWhere: "WHERE", opEvalPush: "EVAL",
	opEmitSeq: "EMITSEQ", opIterEmit: "ITEREMIT",
	opCollect: "COLLECT", opSort: "SORT", opReplay: "REPLAY",
	opLetOpen: "LETOPEN", opAppend: "APPEND", opAppendCur: "APPENDCUR",
	opLetBind: "LETBIND", opEmitCtor: "EMITCTOR", opAppendCtor: "APPENDCTOR", opAppendOut: "APPENDOUT",
	opRet: "RET",
}

func (o opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// instr is one instruction: an opcode and up to three operands, whose
// meaning depends on the opcode (cursor/pool indexes and jump targets).
type instr struct {
	Op      opcode
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
	pd   pushdown
	slot int32 // original position among the clause's pushdowns
	// Literal pushdowns with a statically known clause summary resolve
	// their containers at compile time, for the cost that orders the
	// restricts, the disassembly, and to defer at once what has no fast
	// path; a run matches them through the engine, once (applyLit).
	conts    []*storage.Container
	complete bool
	fastOK   bool   // the containers answer it (false: always deferred)
	why      string // why they do not
	resolved bool   // conts/complete/fastOK/why are valid
	cost     float64
	// ms are a string function's code automata over conts, built at
	// compile and shared by every run (matchers); nil when no
	// container is read on its compressed bytes.
	ms *matchers
	// idx is a join pushdown's index, built at compile time when both
	// sides' summary sets are static; whole says the cursor holds every
	// instance of its set when the join restricts it, so the partners
	// are the restriction.
	idx   *joinIndex
	whole bool
}

// varSpec is the variable one FLWOR clause binds, and its depth: the
// number of clauses of the FLWOR the program binds before it.
type varSpec struct {
	name  string
	depth int32
}

// sortSpec is one FLWOR's ORDER BY, what each run builds its
// tupleSort from.
type sortSpec struct {
	flwor *xquery.FLWOR
	plan  *flworPlan
	fors  []int32    // the FOR clauses' cursors, in clause order
	ranks *rankTable // the key's rank table; nil: keys are decoded
}

// subSpec is the sub-program of a FLWOR: its code from entry to its opRet,
// the accumulator its RETURN appends to, and its sorter (-1: none).
type subSpec struct {
	x                *xquery.FLWOR
	entry, acc, sort int32
}

// tplSpec is a constructor compiled into an emission template.
type tplSpec struct {
	t *template
	x *xquery.ElementCtor
}

// Program is a compiled query plan: a flat instruction slice plus the
// operand pools its instructions index into. Programs are immutable
// after Compile and safe for any number of concurrent Runs — the plan
// cache shares one Program across requests.
type Program struct {
	src    string
	instrs []instr
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
	plans   pathPlans
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

// emitFrame is one sequence being drained by opEmitSeq.
type emitFrame struct {
	seq seq
	pos int
}

// cursor is one FOR clause's (or top-level path's) iteration state.
type cursor struct {
	ids     algebra.NodeSet
	seq     seq
	seqMode bool
	sums    []*storage.SummaryNode
	// deferred holds per-tuple conjuncts in original plan order (slot
	// layout from domainSpec.preds); nil slots passed.
	deferred []xquery.Expr
	pos      int
	textTail bool
	// whole says ids is every instance of sums, the union of their
	// extents, so each binding's place is the next unread instance of one
	// of them: next[s] is sums[s]'s, and last the extent the previous
	// binding came from.
	whole bool
	next  []int32
	last  int
	// current binding (for opDeferred jumps and opCollect)
	curNode   storage.NodeID
	curAt     place
	curIsNode bool
}

// scanned sets what the cursor holds after a scan: whole when ids are as
// many as the instances of sums — of which they are some.
func (c *cursor) scanned() {
	n := 0
	for _, sn := range c.sums {
		n += len(sn.Extent)
	}
	c.whole, c.last = !c.seqMode && n > 0 && len(c.ids) == n, 0
	if c.whole && len(c.sums) > 1 {
		c.next = append(c.next[:0], make([]int32, len(c.sums))...)
	}
}

// placeNext returns the place of id, the node at the cursor's position,
// among the extents of its sums: known when the cursor is whole, by one
// comparison against the extent the previous binding came from, else by
// one against each of the others.
func (c *cursor) placeNext(id storage.NodeID) place {
	switch {
	case !c.whole:
		return place{}
	case len(c.sums) == 1:
		if c.sums[0].Extent[c.pos] == id {
			return place{0, int32(c.pos), true}
		}
		return place{}
	}
	for range c.sums {
		if k := c.next[c.last]; int(k) < len(c.sums[c.last].Extent) && c.sums[c.last].Extent[k] == id {
			c.next[c.last]++
			return place{int32(c.last), k, true}
		}
		if c.last++; c.last == len(c.sums) {
			c.last = 0
		}
	}
	return place{}
}

// accum is one LET's value while its inner loops run: nodes for an
// opAppendCur accumulator, items otherwise. opLetBind hands it to the
// binding, so each opLetOpen starts a fresh one — unless the program
// reuses it (Program.reuse), when the binding dies with its tuple.
type accum struct {
	ids algebra.NodeSet
	seq seq
}

// domResult is a cached invariant-domain scan.
type domResult struct {
	seq  seq
	ids  algebra.NodeSet
	sums []*storage.SummaryNode
}

// run is one execution of a Program: the program counter, cursors,
// emit stack and variable environment. A run is single-goroutine, like
// the engine it drives.
type run struct {
	prog *Program
	eng  *engine
	env  *clauseEnv

	pc      int32
	cursors []cursor
	stack   []emitFrame
	doms    map[int32]*domResult
	sorts   []*tupleSort
	accs    []accum

	sc   *storage.Scratch
	err  error
	done bool
}

// Run starts one execution and returns it as a streaming Result: the
// VM loop is the cursor behind Result.Next. An already-expired deadline
// fails here, before any evaluation work. ctx, when non-nil, is polled
// during evaluation (withContext: context.Background disables polling).
// The run is evaluated on the goroutine that drains the Result.
func (p *Program) Run(ctx context.Context) (*Result, error) {
	r, err := p.newRun(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{store: p.store, run: r}, nil
}

// newRun builds the execution state without wrapping it in a Result
// (tests drive next directly).
func (p *Program) newRun(ctx context.Context) (*run, error) {
	eng := newEngine(p.store).withContext(ctx)
	eng.plans = p.plans
	if eng.ctx != nil {
		if err := eng.ctx.Err(); err != nil {
			return nil, err
		}
	}
	r := &run{
		prog:    p,
		eng:     eng,
		env:     &clauseEnv{s: newScope()},
		cursors: make([]cursor, p.ncur),
		accs:    make([]accum, len(p.reuse)),
	}
	eng.run = r
	for _, ss := range p.sorts {
		r.sorts = append(r.sorts, newTupleSort(ss.flwor, ss.plan, ss.ranks))
	}
	return r, nil
}

// appendFLWOR runs the sub-program of x to its opRet through a frame
// stack of its own over env, its accumulator starting as dst. The frames
// are unbound when it returns — on error too — which puts back what its
// clauses shadowed, and a sorter puts back the outer bindings of its
// clauses' names on the way out (tupleSort.open, close).
func (r *run) appendFLWOR(dst seq, x *xquery.FLWOR, env *scope) (seq, error) {
	k, ok := r.prog.subOf[x]
	if !ok {
		return nil, fmt.Errorf("vm: run: internal error: no sub-program for %s", trunc(x.String(), 48))
	}
	s := &r.prog.subs[k]
	sub := &clauseEnv{s: env}
	if s.sort >= 0 {
		r.sorts[s.sort].open(sub)
	}
	a := &r.accs[s.acc]
	outer, pc := r.env, r.pc
	a.seq, r.env, r.pc = dst, sub, s.entry
	_, _, err := r.dispatch()
	r.env, r.pc = outer, pc
	dst, a.seq = a.seq, nil
	if s.sort >= 0 {
		r.sorts[s.sort].close(sub)
	}
	sub.truncate(0)
	return dst, err
}

func (r *run) fail(err error) (Item, bool, error) {
	r.err = err
	r.releaseScratch()
	return nil, false, err
}

func (r *run) releaseScratch() {
	if r.sc != nil {
		r.sc.Release()
		r.sc = nil
	}
}

func (r *run) stop() {
	r.done = true
	r.releaseScratch()
}

// next runs the dispatch loop. A panic in an instruction fails the run
// with an error, as one in Compile does, and the error is sticky. (The
// loop is a function of its own: with its many returns a deferred call
// there could not be open-coded, and would cost every item.)
func (r *run) next() (it Item, ok bool, err error) {
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
func (r *run) dispatch() (Item, bool, error) {
	p := r.prog
	eng := r.eng
	for {
		in := p.instrs[r.pc]
		switch in.Op {
		case opHalt:
			r.stop()
			return nil, false, nil

		case opReset:
			r.env.reset()
			r.pc++

		case opScan:
			spec := &p.doms[in.B]
			c := &r.cursors[in.A]
			c.pos = 0
			if spec.topPath {
				nodes, sums, textTail, err := eng.evalPathNodes(spec.path, r.env.s)
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
				seq, ids, sums, err := eng.evalBindingSeq(spec.expr, r.env.s)
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
			c.scanned()
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

		case opLitRestrict:
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
			restricted, handled, err := eng.applyLit(ps.pd, ps.ms, c.ids, c.sums)
			if err != nil {
				return r.fail(err)
			}
			if handled {
				c.ids, c.whole = restricted, false
			} else {
				c.deferred[ps.slot] = ps.pd.Conj
			}
			r.pc++

		case opJoinRestrict:
			c := &r.cursors[in.A]
			if c.seqMode {
				r.pc++
				continue
			}
			ps := &p.preds[in.B]
			restricted, handled, err := eng.applyJoin(ps.pd, ps.idx, ps.whole, c.ids, c.sums, r.env.s)
			if err != nil {
				return r.fail(err)
			}
			if handled {
				c.ids, c.whole = restricted, false
			} else {
				c.deferred[ps.slot] = ps.pd.Conj
			}
			r.pc++

		case opIter:
			if err := eng.checkCancel(); err != nil {
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
				c.curAt = place{}
				r.env.bind(int(v.depth), v.name, c.seq[c.pos:c.pos+1], nil, c.sums)
			} else {
				c.curNode, c.curIsNode = c.ids[c.pos], true
				c.curAt = c.placeNext(c.curNode)
				r.env.bindNode(int(v.depth), v.name, c.curNode, c.sums, c.curAt)
			}
			c.pos++
			r.pc++

		case opDeferred:
			c := &r.cursors[in.A]
			pass := true
			for _, conj := range c.deferred {
				if conj == nil {
					continue
				}
				ok, err := eng.evalBool(conj, r.env.s)
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

		case opLet:
			spec := &p.doms[in.B]
			seq, ids, sums, err := eng.evalBindingSeq(spec.expr, r.env.s)
			if err != nil {
				return r.fail(err)
			}
			v := &p.vars[in.A]
			r.env.bind(int(v.depth), v.name, seq, ids, sums)
			r.pc++

		case opWhere:
			ok, err := eng.evalBool(p.exprs[in.A], r.env.s)
			if err != nil {
				return r.fail(err)
			}
			if !ok {
				r.pc = in.C
				continue
			}
			r.pc++

		case opEvalPush:
			v, err := eng.eval(p.exprs[in.A], r.env.s)
			if err != nil {
				return r.fail(err)
			}
			r.stack = append(r.stack, emitFrame{seq: v})
			r.pc++

		case opEmitSeq:
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

		case opIterEmit:
			if err := eng.checkCancel(); err != nil {
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
				buf, err := p.store.TextScratch(r.sc, &eng.cur, id)
				if err != nil {
					return r.fail(err)
				}
				// pc parked: the next pull advances the cursor.
				return string(buf), true, nil
			}
			return id, true, nil

		case opCollect:
			ts := r.sorts[in.A]
			for _, cu := range p.sorts[in.A].fors {
				if c := &r.cursors[cu]; c.curIsNode {
					ts.add(c.curNode, c.curAt, nil, c.sums)
				} else {
					ts.add(0, place{}, c.seq[c.pos-1], c.sums)
				}
			}
			if err := eng.collectKey(ts, r.env.s); err != nil {
				return r.fail(err)
			}
			r.pc = in.C

		case opSort:
			if err := eng.sortTuples(r.sorts[in.A]); err != nil {
				return r.fail(err)
			}
			r.pc++

		case opReplay:
			ok, err := eng.replay(r.sorts[in.A], r.env.s)
			if err != nil {
				return r.fail(err)
			}
			if !ok {
				r.pc = in.C
				continue
			}
			r.pc++

		case opLetOpen:
			if a := &r.accs[in.A]; p.reuse[in.A] {
				a.ids, a.seq = a.ids[:0], a.seq[:0]
			} else {
				*a = accum{}
			}
			r.env.open(int(in.B))
			r.pc++

		case opAppend:
			a := &r.accs[in.A]
			seq, err := eng.appendExpr(a.seq, p.exprs[in.B], r.env.s)
			if err != nil {
				return r.fail(err)
			}
			a.seq = seq
			r.pc = in.C

		case opAppendCur:
			a := &r.accs[in.A]
			a.ids = append(a.ids, r.cursors[in.B].curNode)
			r.pc = in.C

		case opLetBind:
			a, v := &r.accs[in.B], &p.vars[in.A]
			if in.C >= 0 {
				ids := a.ids
				if ids == nil {
					ids = algebra.NodeSet{}
				}
				r.env.bind(int(v.depth), v.name, nil, ids, r.cursors[in.C].sums)
			} else {
				r.env.bind(int(v.depth), v.name, a.seq, nil, nil)
			}
			if !p.reuse[in.B] {
				*a = accum{} // the binding owns the items now
			}
			r.pc++

		case opEmitCtor:
			it, err := eng.emit(p.tpls[in.A].t, r.env.s)
			if err != nil {
				return r.fail(err)
			}
			r.pc = in.C
			return it, true, nil

		case opAppendCtor:
			it, err := eng.emit(p.tpls[in.B].t, r.env.s)
			if err != nil {
				return r.fail(err)
			}
			a := &r.accs[in.A]
			a.seq = append(a.seq, it)
			r.pc = in.C

		case opAppendOut:
			a := &r.accs[in.A]
			seq, err := eng.appendEmitted(a.seq, p.exprs[in.B], r.env.s)
			if err != nil {
				return r.fail(err)
			}
			a.seq = seq
			r.pc = in.C

		case opRet:
			return nil, false, nil

		default:
			return r.fail(fmt.Errorf("vm: invalid opcode %v at pc %d", in.Op, r.pc))
		}
	}
}
