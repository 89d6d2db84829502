package engine

import (
	"fmt"
	"sort"
	"strings"

	"xquec/internal/costmodel"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Compile lowers a parsed query into a Program bound to store. The
// compiler lowers every FLWOR into cursor loops — of its block when it is
// top-level or a LET's source, else of a sub-program — and every other
// expression a run evaluates into a node (lower) that holds what can be
// decided before the run: each path resolved against the repository's
// structure summary, with the slot of a run's cursor of it, each
// comparison's kind, each call's built-in and cardinality rule. It folds
// constant arithmetic, resolves predicate value containers and orders
// each clause's literal pushdowns cheapest-container-first using the
// cost model's measured decode costs; an ORDER BY key whose values live
// in known containers gets a rank table, and a join whose sides' summary
// sets are static its join index, both built here once. A constructor
// whose element only goes to the output becomes an emission template.
// Compilation succeeds on every parseable query — an expression that can
// only fail does so when a run evaluates it; the error return reports a
// compiler bug (a recovered panic) instead of crashing the caller.
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
	binders := maxBinder(expr)
	c := &compiler{
		p:     &Program{src: src, store: store, binders: binders},
		eng:   newEngine(store),
		cards: cards,
	}
	c.vars.slots = make([][]*storage.SummaryNode, binders+1)
	c.top(expr)
	c.emit(instr{Op: opHalt})
	// Sub-programs follow the main one; compiling one may queue more.
	for k := 0; k < len(c.p.subs); k++ {
		c.p.subs[k].entry, c.p.subs[k].acc = int32(len(c.p.instrs)), int32(len(c.p.reuse))
		c.p.reuse = append(c.p.reuse, false)
		c.vars.ctx = c.p.subs[k].ctx
		c.flwor(c.p.subs[k].x, k)
	}
	c.p.ncur = int(c.ncur)
	c.p.sizeEst = c.estimateSize()
	return c.p, nil
}

type compiler struct {
	p     *Program
	eng   *engine // compile-time summary/container resolution only
	cards bool    // choose cardinality rules
	// ncards counts the rules chosen, for the size estimate.
	ncards int
	ncur   int32
	// vars is what is known of the variables where the compiler stands.
	vars staticVars
}

// lower compiles x, an expression a run evaluates, into its node under
// the variables in scope: a path is resolved for the summary set of its
// origin, and the predicates of each step it resolves are lowered with
// that step's targets as the context's summary set; a FLWOR is queued as
// a sub-program, with the context's summary set where it stands.
func (c *compiler) lower(x xquery.Expr) node {
	switch x := x.(type) {
	case *xquery.StringLit:
		return newNode(&strLit{val: x.Val})
	case *xquery.VarRef:
		return newNode(&varRef{name: x.Name, binder: x.Binder})
	case *xquery.Sequence:
		list := c.lowerAll(x.Items)
		return newNode(&seqNode{list: list}, list...)
	case *xquery.PathExpr:
		return c.path(x)
	case *xquery.Cmp:
		l, r := c.lower(x.Left), c.lower(x.Right)
		return newNode(&cmpNode{l: l, r: r, op: cmpOps[x.Op], numeric: oneNumber(l) && oneNumber(r)}, l, r)
	case *xquery.Logic:
		l, r := c.lower(x.Left), c.lower(x.Right)
		return newNode(&logicNode{l: l, r: r, and: x.Op == "and"}, l, r)
	case *xquery.NumberLit, *xquery.Arith:
		if f, isConst := constNum(x); isConst {
			return newNode(&numLit{val: f})
		}
		a := x.(*xquery.Arith)
		l, r := c.lower(a.Left), c.lower(a.Right)
		return newNode(&arithNode{l: l, r: r, op: arithOps[a.Op]}, l, r)
	case *xquery.Call:
		return c.call(x)
	case *xquery.ElementCtor:
		n := &ctorNode{name: x.Name}
		var kids []node
		for _, a := range x.Attrs {
			n.attrs = append(n.attrs, ctorAttr{name: a.Name, parts: c.lowerAll(a.Value)})
			kids = append(kids, n.attrs[len(n.attrs)-1].parts...)
		}
		for _, item := range x.Content {
			// Whitespace-only literal chunks between constructor items
			// are boilerplate, not data.
			if lit, isLit := item.(*xquery.StringLit); !isLit || strings.TrimSpace(lit.Val) != "" {
				n.body = append(n.body, c.lower(item))
			}
		}
		return newNode(n, append(kids, n.body...)...)
	case *xquery.FLWOR:
		// Queued as a sub-program; no expression is lowered twice.
		c.p.subs = append(c.p.subs, subSpec{x: x, ctx: c.vars.ctx, sort: -1})
		return newNode(&flworNode{sub: int32(len(c.p.subs) - 1)})
	}
	return newNode(&failNode{err: fmt.Errorf("engine: unsupported expression %T", x)})
}

func (c *compiler) lowerAll(xs []xquery.Expr) []node {
	out := make([]node, len(xs))
	for i, x := range xs {
		out[i] = c.lower(x)
	}
	return out
}

// path lowers a path: its steps, its plan for the summary set of its
// origin (none known: the run resolves it for the one it meets), the
// slot of a run's cursor of it, and the predicates of each step the plan
// reaches.
func (c *compiler) path(x *xquery.PathExpr) *pathNode {
	n := &pathNode{x: x, name: x.Var, binder: x.Binder, steps: stepsOf(x), slot: len(c.p.paths)}
	k := len(n.steps)
	n.textTail = k > 0 && n.steps[k-1].test == xquery.TestText
	n.plan = c.eng.resolvePath(n.steps, n.name == "", c.vars.origin(x))
	c.p.paths = append(c.p.paths, n)
	ctx := c.vars.ctx
	for i, st := range x.Steps {
		if len(st.Preds) > 0 && i < len(n.plan.targets) {
			c.vars.ctx = n.plan.targets[i]
			n.steps[i].conjs = c.preds(st.Preds)
		}
	}
	c.vars.ctx = ctx
	return newNode(n)
}

// preds lowers the predicates of a step: positional ones to their pick,
// the others to their conjuncts (splitPredConjuncts), each a literal
// restrict on the context where it is one.
func (c *compiler) preds(preds []xquery.Expr) []predConj {
	var out []predConj
	for _, pred := range preds {
		if cj, is := positionOf(pred); is {
			out = append(out, cj)
			continue
		}
		for _, conj := range splitPredConjuncts(pred) {
			cj := predConj{test: c.lower(conj)}
			if rel, lit, op, ok := splitVarPred(conj, 0); ok {
				cj.lit = litRestrict{rel: stepsOf(rel), op: op, lit: lit, slot: c.p.nowners}
				c.p.nowners++
			}
			out = append(out, cj)
		}
	}
	return out
}

// oneNumber reports that n's value is always one number, unless its
// evaluation fails: the nodes whose num needs no sequence, so a
// comparison of two of them compares numbers.
func oneNumber(n node) bool {
	switch n.(type) {
	case *numLit, *arithNode, *countNode, *bytesNum:
		return true
	}
	return false
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

// addExpr pools an expression a run evaluates, lowered under the
// variables in scope.
func (c *compiler) addExpr(x xquery.Expr) int32 {
	c.p.exprs = append(c.p.exprs, exprSpec{x: x, n: c.lower(x)})
	return int32(len(c.p.exprs) - 1)
}

func (c *compiler) addDom(spec domainSpec) int32 {
	c.p.doms = append(c.p.doms, spec)
	return int32(len(c.p.doms) - 1)
}

// maxBinder returns the largest binder slot (xquery.Clause.Binder)
// under x: a run keeps its bindings by slot.
func maxBinder(x xquery.Expr) (binders int) {
	xquery.Walk(x, func(sub xquery.Expr) {
		if f, isFLWOR := sub.(*xquery.FLWOR); isFLWOR {
			for _, cl := range f.Clauses {
				binders = max(binders, cl.Binder)
			}
		}
	})
	return binders
}

// top compiles one top-level block per sequence item: a FLWOR into its
// loops, a path into a streaming cursor, anything else into its emission.
func (c *compiler) top(x xquery.Expr) {
	switch e := x.(type) {
	case *xquery.Sequence:
		for _, it := range e.Items {
			c.top(it)
		}
	case *xquery.FLWOR:
		c.flwor(e, -1)
	case *xquery.PathExpr:
		c.topPath(e)
	default:
		i := c.emitReturn(x)
		c.p.instrs[i].C = int32(i + 1)
	}
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

// addTemplate pools the emission template of a constructor, lowering
// the expressions it writes under the variables in scope.
func (c *compiler) addTemplate(x *xquery.ElementCtor) int32 {
	c.p.tpls = append(c.p.tpls, tplSpec{t: c.template(x), x: x})
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
	n := c.loops(x, plan, sub < 0, -1)
	ret := x.Return
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
		si := c.addSort(x, n)
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
	letCur    int     // the opLetCur binding the LET around the loops at once; -1: none
	// clauses are the FLWOR's clauses as an ORDER BY replays them; nil
	// without one.
	clauses []sortClause
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

// loops lowers the clauses and residual WHERE of x into nested cursor
// loops; the caller emits the body and closes them. top marks a
// top-level FLWOR, whose LETs read only by its RETURN's emission template
// may bind bytes (emittedOnly). letVar,
// when not -1, is the variable of the LET whose source x is, which the
// FOR cursor's restricted nodes bind at once (atOnce) when its domain is
// a node path of static summary set: an opLetCur after the restricts,
// whose jump past the loops the caller sets.
func (c *compiler) loops(x *xquery.FLWOR, plan *flworPlan, top bool, letVar int32) *nest {
	n := &nest{c: c, innermost: -1, letCur: -1}
	for ci, cl := range x.Clauses {
		if cl.Let {
			if inner, isFLWOR := cl.Seq.(*xquery.FLWOR); isFLWOR && inner.OrderBy == nil && x.OrderBy == nil {
				c.letFLWOR(cl, inner, n, top && emittedOnly(cl.Binder, x, ci))
				continue
			}
			spec := c.domainFor(cl.Seq)
			c.vars.slots[cl.Binder] = spec.sums
			if plan.Collect == nil || plan.Collect[ci] {
				c.emit(instr{Op: opLet, A: c.addVar(cl), B: c.addDom(spec)})
			}
			if plan.Replay != nil {
				sc := sortClause{binder: cl.Binder, let: true}
				if plan.Replay[ci] {
					sc.dom = spec.dom
				}
				n.clauses = append(n.clauses, sc)
			}
			continue
		}
		if plan.Replay != nil {
			n.clauses = append(n.clauses, sortClause{binder: cl.Binder})
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
			ps := predSpec{pd: pd, slot: int32(slot), test: c.lower(pd.Conj)} // tested per tuple if deferred
			if pd.IsLit {
				ps.lit = litRestrict{rel: stepsOf(pd.Rel), op: pd.Op, lit: pd.Lit, slot: c.p.nowners}
				c.p.nowners++
			} else {
				ps.other, ps.idxSlot = pd.Other, c.p.njoins
				ps.thisRel, ps.otherRel = stepsOf(pd.RelThis), stepsOf(pd.RelOther)
				c.p.njoins++
			}
			switch {
			case pd.IsLit && spec.static:
				ps.resolved = true
				ps.conts, ps.complete, ps.why = c.eng.litTargets(spec.sums, ps.lit.rel, pd.Op, pd.Lit)
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
				if idx, ok, err := c.eng.joinIndexFor(ps.thisRel, ps.otherRel, spec.sums, c.vars.slots[pd.Other]); ok && err == nil {
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
		iter := c.emit(instr{Op: opIter, A: cu, B: vi})
		n.loop(iter)
		if len(pds) > 0 {
			c.emit(instr{Op: opDeferred, A: cu, C: int32(iter)})
		}
		n.innermost = int32(iter)
	}

	for _, conj := range plan.Residual {
		if cn := c.lower(conj); alwaysTrue(cn) {
			c.p.dropped = append(c.p.dropped, exprSpec{x: conj, n: cn})
		} else {
			c.p.exprs = append(c.p.exprs, exprSpec{x: conj, n: cn})
			n.loop(c.emit(instr{Op: opWhere, A: int32(len(c.p.exprs) - 1)}))
		}
	}
	return n
}

// wholeDomain reports that a FOR domain's scan yields every instance of
// its static summary set: an absolute path without predicates or a
// text() tail, which is also invariant.
func wholeDomain(spec *domainSpec) bool {
	if spec.path == nil || spec.path.name != "" || !spec.static || spec.textTail || !spec.invariant {
		return false
	}
	for _, st := range spec.path.steps {
		if st.predicated {
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
	c.emit(instr{Op: opLetOpen, A: ai})
	plan, vi, letVar := planFLWOR(inner), c.addVar(cl), int32(-1)
	if c.cards && atOnce(inner, plan) {
		letVar = vi
	}
	in := c.loops(inner, plan, false, letVar)
	cu, spec := c.bareFor(inner, in)
	ret := inner.Return
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

// addSort pools the ORDER BY of x, whose loops are n, with its key's
// rank table when the key is an eligible path from a variable of known
// summary set (keyRanks).
func (c *compiler) addSort(x *xquery.FLWOR, n *nest) int32 {
	ss := sortSpec{x: x, key: c.lower(x.OrderBy), desc: x.OrderDesc, fors: n.fors, clauses: n.clauses}
	if p, isPath := ss.key.(*pathNode); isPath {
		if sums := c.vars.origin(p.x); len(sums) > 0 {
			if ss.ranks = c.eng.keyRanks(p.steps, sums); ss.ranks != nil {
				ss.keyPath = p
			}
		}
	}
	c.p.sorts = append(c.p.sorts, ss)
	return int32(len(c.p.sorts) - 1)
}

// domainFor analyzes one FOR/LET source (or top-level path): lowering,
// static summary resolution, and invariance (no free variables → scan
// once per run). static requires a known origin: absolute paths, or
// variables whose (non-empty) summaries were tracked.
func (c *compiler) domainFor(x xquery.Expr) domainSpec {
	spec := domainSpec{expr: x, dom: c.lower(x)}
	spec.invariant = len(xquery.FreeVars(x)) == 0
	switch n := spec.dom.(type) {
	case *pathNode:
		spec.path = n
		if n.name == "" || len(c.vars.origin(n.x)) > 0 {
			// Text-tail domains bind decoded strings, with no summary
			// provenance.
			spec.static, spec.textTail = true, n.textTail
			if len(n.plan.targets) == len(n.steps) {
				spec.sums = n.plan.sums()
			}
		}
	case *varRef:
		if sums := c.vars.slots[n.binder]; len(sums) > 0 {
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

// constNum returns the value of x when it is constant arithmetic: a
// number, or +, -, * or div of two constants — operations whose
// evaluation is a pure float64 function. mod is not: its zero divisor is
// a fault met when it is evaluated.
func constNum(x xquery.Expr) (float64, bool) {
	switch x := x.(type) {
	case *xquery.NumberLit:
		return x.Val, true
	case *xquery.Arith:
		l, lok := constNum(x.Left)
		r, rok := constNum(x.Right)
		if lok && rok && x.Op != "mod" {
			f, _ := arithOps[x.Op](l, r)
			return f, true
		}
	}
	return 0, false
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
	sz += 192*len(p.paths) + c.eng.offBytes + 64*c.ncards
	sz += len(p.exprs)*16 + len(p.vars)*24
	for _, v := range p.vars {
		sz += len(v.name)
	}
	return sz
}
