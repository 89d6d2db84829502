package engine

import (
	"fmt"
	"sort"

	"xquec/internal/costmodel"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Compile lowers a parsed query into a Program bound to store. The
// compiler resolves every path's summary targets (into the program's
// plan pool, which all runs share) and predicate value containers
// against the repository's structure summary, lowers every FLWOR into
// cursor loops — of its block when it is top-level or a LET's source,
// else of a sub-program — folds constant arithmetic, and orders each
// clause's literal pushdowns cheapest-container-first using the cost
// model's measured decode costs; an ORDER BY key whose values live in
// known containers gets a rank table, and a join whose sides' summary
// sets are static its join index, both built here once. A constructor
// whose element only goes to the output becomes an emission template.
// Shapes it does not specialize (aggregates, constructors whose value is
// looked into) lower to instructions that hand the expression to the
// engine, so compilation succeeds on every parseable query; the error
// return reports a compiler bug (a recovered panic) instead of crashing
// the caller.
func Compile(expr xquery.Expr, store *storage.Store, src string) (*Program, error) {
	return compileProgram(expr, store, src, true)
}

// compileProgram is Compile; without cards it chooses no cardinality rule
// (cardRule), so every count, empty and exists materializes its
// argument — what the rules are held to.
func compileProgram(expr xquery.Expr, store *storage.Store, src string, cards bool) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("vm: compile: internal error: %v", r)
		}
	}()
	paths, binders := maxSlots(expr)
	c := &compiler{
		p:    &Program{src: src, store: store, plans: pathPlans{}, subOf: map[*xquery.FLWOR]int32{}, binders: binders},
		eng:  newEngine(store),
		vars: staticVars{slots: make([][]*storage.SummaryNode, binders+1)},
	}
	if cards {
		c.p.cards = map[*xquery.Call]*cardRule{}
	}
	c.top(expr)
	c.emit(instr{Op: opHalt})
	// Sub-programs follow the main one; compiling one may queue more.
	for k := 0; k < len(c.p.subs); k++ {
		c.p.subs[k].entry, c.p.subs[k].acc = int32(len(c.p.instrs)), int32(len(c.p.reuse))
		c.p.reuse = append(c.p.reuse, false)
		c.vars.ctx = c.subCtx[k]
		c.flwor(c.p.subs[k].x, k)
	}
	c.p.ncur = int(c.ncur)
	c.p.slotPlans = make([]*pathPlan, paths+1)
	for x, pl := range c.p.plans {
		if x.Slot > 0 {
			c.p.slotPlans[x.Slot] = pl
		}
	}
	c.p.sizeEst = c.estimateSize()
	return c.p, nil
}

type compiler struct {
	p    *Program
	eng  *engine // compile-time summary/container resolution only
	ncur int32
	// vars is what is known of the variables where the compiler stands;
	// subCtx, per queued sub-program, the context item's summary set
	// where its FLWOR stands.
	vars   staticVars
	subCtx [][]*storage.SummaryNode
}

// plan plans x's paths under the variables in scope (planExpr)
// and queues a sub-program, once, for each FLWOR the engine will meet
// in x.
func (c *compiler) plan(x xquery.Expr) []*storage.SummaryNode {
	return c.eng.planExpr(c.p.plans, c.p.cards, x, &c.vars, func(f *xquery.FLWOR, ctx []*storage.SummaryNode) {
		if _, ok := c.p.subOf[f]; !ok {
			c.p.subOf[f] = int32(len(c.p.subs))
			c.p.subs = append(c.p.subs, subSpec{x: f, sort: -1})
			c.subCtx = append(c.subCtx, ctx)
		}
	})
}

func (c *compiler) emit(in instr) int {
	c.p.instrs = append(c.p.instrs, in)
	return len(c.p.instrs) - 1
}

func (c *compiler) newCursor() int32 {
	c.ncur++
	return c.ncur - 1
}

// addVar pools the variable of a clause.
func (c *compiler) addVar(cl xquery.Clause) int32 {
	c.p.vars = append(c.p.vars, varSpec{name: cl.Var, slot: int32(cl.Binder)})
	return int32(len(c.p.vars) - 1)
}

// addExpr pools an expression the engine will evaluate, planning its
// paths and queueing its FLWORs under the variables in scope.
func (c *compiler) addExpr(x xquery.Expr) int32 {
	c.plan(x)
	c.p.exprs = append(c.p.exprs, x)
	return int32(len(c.p.exprs) - 1)
}

func (c *compiler) addDom(spec domainSpec) int32 {
	c.p.doms = append(c.p.doms, spec)
	return int32(len(c.p.doms) - 1)
}

// maxSlots returns the largest path slot (xquery.PathExpr.Slot) and the
// largest binder slot (xquery.Clause.Binder) under x: a run keeps its
// cursors of x's paths and its bindings by slot.
func maxSlots(x xquery.Expr) (paths, binders int) {
	xquery.Walk(x, func(sub xquery.Expr) {
		switch sub := sub.(type) {
		case *xquery.PathExpr:
			paths = max(paths, sub.Slot)
		case *xquery.FLWOR:
			for _, cl := range sub.Clauses {
				binders = max(binders, cl.Binder)
			}
		}
	})
	return paths, binders
}

// top compiles one top-level block per sequence item.
func (c *compiler) top(x xquery.Expr) {
	if seq, ok := x.(*xquery.Sequence); ok {
		for _, it := range seq.Items {
			c.top(it)
		}
		return
	}
	switch e := x.(type) {
	case *xquery.FLWOR:
		// Folded: every expression of it the engine meets is one planned.
		c.flwor(foldExpr(e).(*xquery.FLWOR), -1)
	case *xquery.PathExpr:
		c.topPath(e)
	default:
		c.fallback(x)
	}
}

// fallback lowers a block to its emission: an emission template, or one
// engine evaluation plus streaming emission of its result sequence.
func (c *compiler) fallback(x xquery.Expr) {
	i := c.emitReturn(foldExpr(x))
	c.p.instrs[i].C = int32(i + 1)
}

// emitReturn lowers an expression whose items are the program's output:
// a constructor to EMITCTOR through its template, anything else to EVAL
// and EMITSEQ. It returns the emitting instruction, whose C the caller
// points where the next pull resumes.
func (c *compiler) emitReturn(x xquery.Expr) int {
	if ctor, isCtor := x.(*xquery.ElementCtor); isCtor {
		return c.emit(instr{Op: opEmitCtor, A: c.addTemplate(ctor)})
	}
	c.emit(instr{Op: opEvalPush, A: c.addExpr(x)})
	return c.emit(instr{Op: opEmitSeq})
}

// addTemplate pools the emission template of a constructor, planning the
// paths it reads under the variables in scope.
func (c *compiler) addTemplate(x *xquery.ElementCtor) int32 {
	c.plan(x)
	c.p.tpls = append(c.p.tpls, tplSpec{t: compileTemplate(x), x: x})
	return int32(len(c.p.tpls) - 1)
}

// topPath compiles a top-level path into a streaming cursor: scan the
// extent once, then emit node by node (decoding text per item for
// text() tails) with no intermediate sequence.
func (c *compiler) topPath(p *xquery.PathExpr) {
	spec := c.domainFor(p)
	spec.topPath = true
	di := c.addDom(spec)
	cu := c.newCursor()
	c.emit(instr{Op: opScan, A: cu, B: di})
	i := c.emit(instr{Op: opIterEmit, A: cu})
	c.p.instrs[i].C = int32(i + 1)
}

// flwor compiles x into nested cursor loops: a top-level FLWOR (sub <
// 0), whose RETURN emits, or sub-program sub, whose RETURN appends to its
// accumulator and which ends in opRet. With an ORDER BY the loops end in
// opCollect, and opSort, opReplay and the RETURN follow.
func (c *compiler) flwor(x *xquery.FLWOR, sub int) {
	plan := planFLWOR(x)
	n := c.loops(x, plan, 0, sub < 0, -1)
	ret := foldExpr(x.Return)
	body := func() int { // the RETURN, whose C the caller points at the next tuple
		if sub < 0 {
			return c.emitReturn(ret)
		}
		return c.emit(instr{Op: opAppend, A: c.p.subs[sub].acc, B: c.addExpr(ret)})
	}
	end := 0 // where the loops exit to
	if x.OrderBy == nil {
		n.loop(body())
		end = len(c.p.instrs)
	} else {
		si := c.addSort(x, plan, n.fors)
		n.loop(c.emit(instr{Op: opCollect, A: si}))
		end = c.emit(instr{Op: opSort, A: si})
		replay := c.emit(instr{Op: opReplay, A: si})
		c.p.instrs[body()].C = int32(replay)
		c.p.instrs[replay].C = int32(len(c.p.instrs))
		if sub >= 0 {
			c.p.subs[sub].sort = si
		}
	}
	if sub >= 0 {
		c.emit(instr{Op: opRet, A: int32(sub)})
	}
	n.exit(end)
}

// nest is the loop nest of one FLWOR's clauses as the compiler lays it
// out: what the body after the clauses needs to close the loops.
type nest struct {
	c         *compiler
	endPatch  []int   // instructions whose C is the loops' end
	innermost int32   // pc of the innermost opIter so far; -1: none
	fors      []int32 // the FOR clauses' cursors
	forDoms   []int32 // and the domains they scan
	depth     int32   // the clauses bound so far, which opLetOpen lists
	letCur    int     // the opLetCur binding the LET around the loops at once; -1: none
}

// loop makes instruction i jump back to the innermost opIter, or past
// the loops when there is none.
func (n *nest) loop(i int) {
	if n.innermost >= 0 {
		n.c.p.instrs[i].C = n.innermost
	} else {
		n.endPatch = append(n.endPatch, i)
	}
}

// exit points the jumps that leave the loops at end.
func (n *nest) exit(end int) {
	for _, i := range n.endPatch {
		n.c.p.instrs[i].C = int32(end)
	}
}

// loops lowers the clauses and residual WHERE of x, depth clauses being
// bound before them, into nested cursor loops; the caller emits the body
// and closes them. top marks a top-level FLWOR, whose LETs read only by
// its RETURN's emission template may bind bytes (emittedOnly). letVar,
// when not -1, is the variable of the LET whose source x is, which the
// FOR cursor's restricted nodes bind at once (atOnce) when its domain is
// a node path of static summary set: an opLetCur after the restricts,
// whose jump past the loops the caller sets.
func (c *compiler) loops(x *xquery.FLWOR, plan *flworPlan, depth int32, top bool, letVar int32) *nest {
	n := &nest{c: c, innermost: -1, depth: depth, letCur: -1}
	for ci, cl := range x.Clauses {
		if cl.Let {
			if inner, isFLWOR := foldExpr(cl.Seq).(*xquery.FLWOR); isFLWOR && inner.OrderBy == nil && x.OrderBy == nil {
				c.letFLWOR(cl, inner, n, top && emittedOnly(cl.Binder, x, ci))
				continue
			}
			spec := c.domainFor(cl.Seq)
			c.vars.slots[cl.Binder] = spec.sums
			if plan.Collect == nil || plan.Collect[ci] {
				c.emit(instr{Op: opLet, A: c.addVar(cl), B: c.addDom(spec)})
				n.depth++
			}
			continue
		}
		pds := plan.Pushdowns[ci]
		spec := c.domainFor(cl.Seq)
		c.vars.slots[cl.Binder] = spec.sums

		// Build the clause's predicate specs. Literal pushdowns whose
		// clause summary is statically known resolve their containers
		// now; the rest resolve (or defer) at runtime. Slots remember
		// each pushdown's original plan position so deferred filters
		// evaluate in plan order no matter how restricts are
		// reordered.
		var lits, joins []int32
		for slot, pd := range pds {
			ps := predSpec{pd: pd, slot: int32(slot)}
			c.plan(pd.Conj) // evaluated per tuple if deferred
			switch {
			case pd.IsLit && spec.static:
				ps.resolved = true
				ps.conts, ps.complete, ps.why = c.eng.litTargets(spec.sums, pd.Rel, pd.Op, pd.Lit)
				ps.fastOK = ps.why == ""
				for _, ct := range ps.conts {
					ps.cost += float64(ct.Len()) * costmodel.DecodeCost(ct.Codec().Name())
				}
				if ps.fastOK && stringFunc(pd.Op) != nil {
					ps.ms = buildMatchers(ps.conts, pd.Op, pd.Lit)
				}
			case !pd.IsLit && spec.static && len(spec.sums) > 0 && len(c.vars.slots[pd.Other]) > 0:
				// Both sides static: the index is built here, once. An
				// error is left for a run to meet.
				if idx, ok, err := c.eng.joinIndexFor(pd, spec.sums, c.vars.slots[pd.Other]); ok && err == nil {
					ps.idx = idx
				}
			}
			pi := int32(len(c.p.preds))
			c.p.preds = append(c.p.preds, ps)
			spec.preds = append(spec.preds, pi)
			if pd.IsLit {
				lits = append(lits, pi)
			} else {
				joins = append(joins, pi)
			}
		}
		// Cheapest container first. Handled restricts are commuting
		// intersections of the clause domain, so reordering is sound;
		// unresolved ones keep their relative order at the end.
		sort.SliceStable(lits, func(a, b int) bool {
			return restrictCost(&c.p.preds[lits[a]]) < restrictCost(&c.p.preds[lits[b]])
		})
		// The first restrict of a cursor that holds its whole static
		// domain takes the join partners as they stand.
		if len(lits) == 0 && len(joins) > 0 && c.p.preds[joins[0]].idx != nil && wholeDomain(&spec) {
			c.p.preds[joins[0]].whole = true
		}

		di := c.addDom(spec)
		cu := c.newCursor()
		n.fors, n.forDoms = append(n.fors, cu), append(n.forDoms, di)
		c.emit(instr{Op: opScan, A: cu, B: di})
		for _, pi := range lits {
			c.emit(instr{Op: opLitRestrict, A: cu, B: pi})
		}
		for _, pi := range joins {
			c.emit(instr{Op: opJoinRestrict, A: cu, B: pi})
		}
		if letVar >= 0 && spec.path != nil && spec.static && !spec.textTail {
			n.letCur = c.emit(instr{Op: opLetCur, A: cu, B: letVar})
		}
		vi := c.addVar(cl)
		n.depth++
		iter := c.emit(instr{Op: opIter, A: cu, B: vi})
		n.loop(iter)
		if len(pds) > 0 {
			c.emit(instr{Op: opDeferred, A: cu, C: int32(iter)})
		}
		n.innermost = int32(iter)
	}

	for _, conj := range plan.Residual {
		conj = foldExpr(conj)
		c.plan(conj)
		if c.p.alwaysTrue(conj) {
			c.p.dropped = append(c.p.dropped, conj)
			continue
		}
		c.p.exprs = append(c.p.exprs, conj)
		n.loop(c.emit(instr{Op: opWhere, A: int32(len(c.p.exprs) - 1)}))
	}
	return n
}

// wholeDomain reports that a FOR domain's scan yields every instance of
// its static summary set: an absolute path without predicates or a
// text() tail, which is also invariant.
func wholeDomain(spec *domainSpec) bool {
	if spec.path == nil || spec.path.Var != "" || !spec.static || spec.textTail || !spec.invariant {
		return false
	}
	for _, st := range spec.path.Steps {
		if len(st.Preds) > 0 {
			return false
		}
	}
	return true
}

// letFLWOR lowers the LET cl, whose source is inner, into the enclosing
// nest n: the inner clauses become loops of the program, their RETURN
// appends to an accumulator, and their exhaustion binds the LET from it.
// When the inner RETURN is the variable of its only FOR, over a node
// path, the accumulator is that cursor's (ascending) nodes and the LET
// keeps its summary set. When the LET's
// items are only ever written out or counted (emitted), each is written
// as element content when it is appended — a constructor through its
// emission template — and the accumulator's storage is reused per tuple.
func (c *compiler) letFLWOR(cl xquery.Clause, inner *xquery.FLWOR, n *nest, emitted bool) {
	ai := int32(len(c.p.reuse))
	c.p.reuse = append(c.p.reuse, emitted)
	c.emit(instr{Op: opLetOpen, A: ai, B: n.depth})
	plan, vi, letVar := planFLWOR(inner), c.addVar(cl), int32(-1)
	if c.p.cards != nil && atOnce(inner, plan) {
		letVar = vi
	}
	in := c.loops(inner, plan, n.depth+1, false, letVar)
	cu, spec := c.bareFor(inner, in)
	ret := foldExpr(inner.Return)
	ctor, isCtor := ret.(*xquery.ElementCtor)
	switch {
	case cu >= 0:
		in.loop(c.emit(instr{Op: opAppendCur, A: ai, B: cu}))
		c.vars.slots[cl.Binder] = spec.sums
	case isCtor && emitted:
		in.loop(c.emit(instr{Op: opAppendCtor, A: ai, B: c.addTemplate(ctor)}))
	case emitted:
		in.loop(c.emit(instr{Op: opAppendOut, A: ai, B: c.addExpr(ret)}))
	default:
		in.loop(c.emit(instr{Op: opAppend, A: ai, B: c.addExpr(ret)}))
	}
	in.exit(c.emit(instr{Op: opLetBind, A: vi, B: ai, C: cu}))
	if in.letCur >= 0 {
		c.p.instrs[in.letCur].C = int32(len(c.p.instrs))
	}
	n.depth++
}

// atOnce reports that the LET whose source is x binds the node set of
// x's one FOR cursor as its restricts leave it (DESIGN.md "Cardinalities
// without tuples"): x is that FOR alone, returns its variable, has no
// ORDER BY, and its whole WHERE is pushed down onto the cursor — no
// conjunct is left to test per tuple. A run still loops when one of the
// pushdowns is deferred (opLetCur).
func atOnce(x *xquery.FLWOR, plan *flworPlan) bool {
	ret, isVar := x.Return.(*xquery.VarRef)
	return isVar && len(x.Clauses) == 1 && !x.Clauses[0].Let && ret.Binder == x.Clauses[0].Binder &&
		x.OrderBy == nil && len(plan.Residual) == 0
}

// emittedOnly reports that the LET variable whose slot is binder, bound
// by clause ci of the top-level FLWOR x, is read only where its items are
// written out as they are or counted: as an enclosed `{$v}` of x's RETURN
// constructor — an emission template — or of an element nested in it, or
// as the argument of count, exists or empty. Nothing then atomizes or
// navigates its items, so they can be bytes (xml), not fragments.
func emittedOnly(binder int, x *xquery.FLWOR, ci int) bool {
	ret, isCtor := x.Return.(*xquery.ElementCtor)
	if !isCtor {
		return false
	}
	for _, cl := range x.Clauses[ci+1:] {
		if reads(cl.Seq, binder) {
			return false
		}
	}
	return !reads(x.Where, binder) && !reads(x.OrderBy, binder) && !readsCtor(ret, binder)
}

// reads reports that x reads the variable whose slot is binder other than
// as the argument of count, exists or empty.
func reads(x xquery.Expr, binder int) bool {
	switch e := x.(type) {
	case *xquery.VarRef:
		return e.Binder == binder
	case *xquery.PathExpr:
		if e.Binder == binder {
			return true
		}
	case *xquery.Call:
		if len(e.Args) == 1 && (e.Name == "count" || e.Name == "exists" || e.Name == "empty") {
			if v, isVar := e.Args[0].(*xquery.VarRef); isVar && v.Binder == binder {
				return false
			}
		}
	}
	for _, sub := range xquery.Children(x) {
		if reads(sub, binder) {
			return true
		}
	}
	return false
}

// readsCtor is reads over an emitted constructor, whose content items
// `{$v}` write the variable's items out.
func readsCtor(x *xquery.ElementCtor, binder int) bool {
	for _, a := range x.Attrs {
		for _, part := range a.Value {
			if reads(part, binder) {
				return true
			}
		}
	}
	for _, item := range x.Content {
		switch item := item.(type) {
		case *xquery.VarRef:
			continue
		case *xquery.ElementCtor:
			if readsCtor(item, binder) {
				return true
			}
		default:
			if reads(item, binder) {
				return true
			}
		}
	}
	return false
}

// bareFor returns the cursor and domain of x's only FOR clause when x
// returns that clause's variable and the domain is a node path with a
// static summary set; -1 otherwise.
func (c *compiler) bareFor(x *xquery.FLWOR, in *nest) (int32, *domainSpec) {
	ret, isVar := x.Return.(*xquery.VarRef)
	if !isVar || len(in.fors) != 1 {
		return -1, nil
	}
	for _, cl := range x.Clauses {
		if cl.Binder != ret.Binder {
			continue
		}
		if cl.Let {
			return -1, nil
		}
		spec := &c.p.doms[in.forDoms[0]]
		if spec.path == nil || !spec.static || spec.textTail {
			return -1, nil
		}
		return in.fors[0], spec
	}
	return -1, nil
}

// addSort pools the ORDER BY of x, with its key's rank table when the key
// is an eligible path from a variable of known summary set (keyRanks).
func (c *compiler) addSort(x *xquery.FLWOR, plan *flworPlan, fors []int32) int32 {
	ss := sortSpec{flwor: x, plan: plan, fors: fors}
	c.plan(x.OrderBy)
	if p, isPath := x.OrderBy.(*xquery.PathExpr); isPath {
		if sums := c.vars.origin(p); len(sums) > 0 {
			ss.ranks = c.eng.keyRanks(p, sums)
		}
	}
	c.p.sorts = append(c.p.sorts, ss)
	return int32(len(c.p.sorts) - 1)
}

// domainFor analyzes one FOR/LET source (or top-level path): constant
// folding, static summary resolution, and invariance (no free
// variables → scan once per run). static requires a known origin:
// absolute paths, or variables whose (non-empty) summaries were
// tracked.
func (c *compiler) domainFor(x xquery.Expr) domainSpec {
	folded := foldExpr(x)
	spec := domainSpec{expr: folded}
	spec.invariant = len(xquery.FreeVars(folded)) == 0
	sums := c.plan(folded)
	switch e := folded.(type) {
	case *xquery.PathExpr:
		spec.path = e
		if e.Var == "" || len(c.vars.origin(e)) > 0 {
			// Text-tail domains bind decoded strings; the runtime reports
			// no summary provenance for them, and planExpr none either.
			n := len(e.Steps)
			spec.static, spec.sums = true, sums
			spec.textTail = n > 0 && e.Steps[n-1].Test == xquery.TestText
		}
	case *xquery.VarRef:
		if len(c.vars.slots[e.Binder]) > 0 {
			spec.static, spec.sums = true, sums
		}
	default:
		// Every other shape evaluates generically: the runtime reports
		// nil summary provenance, which is itself static knowledge.
		spec.static = true
	}
	return spec
}

// restrictCost orders literal restricts: statically costed container
// scans first (cheapest first), runtime-resolved ones after, in plan
// order.
func restrictCost(ps *predSpec) float64 {
	if ps.resolved && ps.fastOK {
		return ps.cost
	}
	return 1e300
}

// ---- constant folding ----

// foldExpr folds constant arithmetic (+, -, *, div over numeric
// literals — exactly the operations whose engine evaluation is a pure
// float64 function, since formatNum/parseNum round-trip float64
// losslessly). mod is excluded: the engine faults on zero divisors at
// evaluation time and folding would move that fault to compile time.
// Folding builds new nodes along changed spines only — the input AST is
// shared with the prepared statement and with pushdown conjunct
// identity, and is never mutated.
func foldExpr(x xquery.Expr) xquery.Expr {
	switch e := x.(type) {
	case *xquery.Arith:
		l, r := foldExpr(e.Left), foldExpr(e.Right)
		if ln, okL := l.(*xquery.NumberLit); okL {
			if rn, okR := r.(*xquery.NumberLit); okR {
				switch e.Op {
				case "+":
					return &xquery.NumberLit{Val: ln.Val + rn.Val}
				case "-":
					return &xquery.NumberLit{Val: ln.Val - rn.Val}
				case "*":
					return &xquery.NumberLit{Val: ln.Val * rn.Val}
				case "div":
					return &xquery.NumberLit{Val: ln.Val / rn.Val}
				}
			}
		}
		if l != e.Left || r != e.Right {
			return &xquery.Arith{Op: e.Op, Left: l, Right: r}
		}
	case *xquery.Cmp:
		l, r := foldExpr(e.Left), foldExpr(e.Right)
		if l != e.Left || r != e.Right {
			return &xquery.Cmp{Op: e.Op, Left: l, Right: r}
		}
	case *xquery.Logic:
		l, r := foldExpr(e.Left), foldExpr(e.Right)
		if l != e.Left || r != e.Right {
			return &xquery.Logic{Op: e.Op, Left: l, Right: r}
		}
	case *xquery.Call:
		args, changed := foldList(e.Args)
		if changed {
			return &xquery.Call{Name: e.Name, Args: args}
		}
	case *xquery.Sequence:
		items, changed := foldList(e.Items)
		if changed {
			return &xquery.Sequence{Items: items}
		}
	case *xquery.PathExpr:
		changed := false
		steps := make([]xquery.Step, len(e.Steps))
		for i, st := range e.Steps {
			steps[i] = st
			if len(st.Preds) == 0 {
				continue
			}
			preds, ch := foldList(st.Preds)
			if ch {
				steps[i].Preds = preds
				changed = true
			}
		}
		if changed {
			folded := *e
			folded.Steps = steps
			return &folded
		}
	case *xquery.FLWOR:
		changed := false
		clauses := make([]xquery.Clause, len(e.Clauses))
		for i, cl := range e.Clauses {
			clauses[i] = cl
			if f := foldExpr(cl.Seq); f != cl.Seq {
				clauses[i].Seq = f
				changed = true
			}
		}
		where, ret, order := e.Where, e.Return, e.OrderBy
		if e.Where != nil {
			if f := foldExpr(e.Where); f != e.Where {
				where, changed = f, true
			}
		}
		if e.OrderBy != nil {
			if f := foldExpr(e.OrderBy); f != e.OrderBy {
				order, changed = f, true
			}
		}
		if f := foldExpr(e.Return); f != e.Return {
			ret, changed = f, true
		}
		if changed {
			return &xquery.FLWOR{Clauses: clauses, Where: where, OrderBy: order, OrderDesc: e.OrderDesc, Return: ret}
		}
	case *xquery.ElementCtor:
		changed := false
		attrs := make([]xquery.CtorAttr, len(e.Attrs))
		for i, a := range e.Attrs {
			attrs[i] = a
			vals, ch := foldList(a.Value)
			if ch {
				attrs[i].Value = vals
				changed = true
			}
		}
		content, ch := foldList(e.Content)
		if ch {
			changed = true
		}
		if changed {
			return &xquery.ElementCtor{Name: e.Name, Attrs: attrs, Content: content}
		}
	}
	return x
}

func foldList(xs []xquery.Expr) ([]xquery.Expr, bool) {
	out := make([]xquery.Expr, len(xs))
	changed := false
	for i, x := range xs {
		out[i] = foldExpr(x)
		if out[i] != x {
			changed = true
		}
	}
	if !changed {
		return xs, false
	}
	return out, true
}

// estimateSize approximates the program's resident bytes (instructions
// plus operand pools; the AST nodes the expr pool points at are shared
// with the parse tree and counted as pointer slots only). The plan
// cache charges entries by this figure.
func (c *compiler) estimateSize() int {
	p := c.p
	sz := len(p.src) + len(p.instrs)*16
	for _, d := range p.doms {
		sz += 112 + len(d.preds)*4
	}
	for _, ps := range p.preds {
		sz += 128 + len(ps.conts)*8 + ps.ms.sizeBytes()
		if ps.idx != nil {
			sz += ps.idx.sizeBytes()
		}
	}
	for _, ss := range p.sorts {
		sz += 64 + len(ss.fors)*4
		if ss.ranks != nil {
			sz += 8 * ss.ranks.records
		}
	}
	for _, ts := range p.tpls {
		lit, dyn := ts.t.shape()
		sz += 64 + lit + 32*dyn
	}
	sz += p.plans.sizeBytes() + c.eng.offBytes + 64*len(p.cards)
	sz += len(p.exprs)*16 + len(p.vars)*24
	for _, v := range p.vars {
		sz += len(v.name)
	}
	return sz
}
