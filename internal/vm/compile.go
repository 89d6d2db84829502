package vm

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"xquec/internal/costmodel"
	"xquec/internal/engine"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Compile lowers a parsed query into a Program bound to store. The
// compiler resolves every path's summary targets (into the program's
// plan pool, which all runs share) and predicate value containers
// against the repository's structure summary, lowers a LET bound to a
// FLWOR into loops of the program, plans every other nested FLWOR,
// folds constant arithmetic, and orders each clause's literal pushdowns
// cheapest-container-first using the cost model's measured decode
// costs; an ORDER BY key whose values live in known containers gets a
// rank table, and a join whose sides' summary sets are static its join
// index, both built here once. Shapes it does not specialize
// (constructors, aggregates, the other nested FLWORs) lower to
// instructions that hand the expression to the engine, so compilation
// succeeds on every parseable query; the error return reports a
// compiler bug (a recovered panic) instead of crashing the caller.
func Compile(expr xquery.Expr, store *storage.Store, src string) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("vm: compile: internal error: %v", r)
		}
	}()
	c := &compiler{
		p:   &Program{src: src, store: store, plans: engine.NewPlans()},
		eng: engine.New(store),
	}
	c.top(expr)
	c.emit(Instr{Op: OpHalt})
	c.p.ncur = int(c.ncur)
	c.p.sizeEst = c.estimateSize()
	return c.p, nil
}

type compiler struct {
	p    *Program
	eng  *engine.Engine // compile-time summary/container resolution only
	ncur int32
}

func (c *compiler) emit(in Instr) int {
	c.p.instrs = append(c.p.instrs, in)
	return len(c.p.instrs) - 1
}

func (c *compiler) newCursor() int32 {
	c.ncur++
	return c.ncur - 1
}

// addVar pools the variable of a clause bound at depth.
func (c *compiler) addVar(name string, depth int32) int32 {
	c.p.vars = append(c.p.vars, varSpec{name: name, depth: depth})
	return int32(len(c.p.vars) - 1)
}

// addExpr pools an expression the engine will evaluate, planning its
// paths and nested FLWORs under the variables in scope.
func (c *compiler) addExpr(x xquery.Expr, varSums map[string][]*storage.SummaryNode) int32 {
	c.eng.PlanExpr(c.p.plans, x, varSums)
	c.p.exprs = append(c.p.exprs, x)
	return int32(len(c.p.exprs) - 1)
}

func (c *compiler) addDom(spec domainSpec) int32 {
	c.p.doms = append(c.p.doms, spec)
	return int32(len(c.p.doms) - 1)
}

// top compiles one top-level block per sequence item. Each block gets a
// fresh environment (OpReset): sibling blocks must not see each other's
// variables.
func (c *compiler) top(x xquery.Expr) {
	if seq, ok := x.(*xquery.Sequence); ok {
		for _, it := range seq.Items {
			c.top(it)
		}
		return
	}
	c.emit(Instr{Op: OpReset})
	switch e := x.(type) {
	case *xquery.FLWOR:
		c.flwor(e)
	case *xquery.PathExpr:
		c.topPath(e)
	default:
		c.fallback(x)
	}
}

// fallback lowers a block to one engine evaluation plus streaming
// emission of its result sequence.
func (c *compiler) fallback(x xquery.Expr) {
	ei := c.addExpr(foldExpr(x), nil)
	c.emit(Instr{Op: OpEvalPush, A: ei})
	i := c.emit(Instr{Op: OpEmitSeq})
	c.p.instrs[i].C = int32(i + 1)
}

// topPath compiles a top-level path into a streaming cursor: scan the
// extent once, then emit node by node (decoding text per item for
// text() tails) with no intermediate sequence.
func (c *compiler) topPath(p *xquery.PathExpr) {
	spec := c.domainFor(p, nil, nil)
	spec.topPath = true
	di := c.addDom(spec)
	cu := c.newCursor()
	c.emit(Instr{Op: OpScan, A: cu, B: di})
	i := c.emit(Instr{Op: OpIterEmit, A: cu})
	c.p.instrs[i].C = int32(i + 1)
}

// flwor compiles a FLWOR into nested cursor loops. With an ORDER BY the
// loops end in OpCollect, and OpSort, OpReplay and the RETURN follow.
func (c *compiler) flwor(x *xquery.FLWOR) {
	plan := engine.PlanFLWOR(x)
	n := c.loops(x, plan, 0, map[string][]*storage.SummaryNode{}, map[string]bool{}, true)
	ret := c.addExpr(foldExpr(x.Return), n.varSums)
	end := 0 // where the loops exit to
	if x.OrderBy == nil {
		c.emit(Instr{Op: OpEvalPush, A: ret})
		n.loop(c.emit(Instr{Op: OpEmitSeq}))
		end = len(c.p.instrs)
	} else {
		si := c.addSort(x, plan, n.fors, n.varSums, n.known)
		n.loop(c.emit(Instr{Op: OpCollect, A: si}))
		end = c.emit(Instr{Op: OpSort, A: si})
		replay := c.emit(Instr{Op: OpReplay, A: si})
		c.emit(Instr{Op: OpEvalPush, A: ret})
		c.emit(Instr{Op: OpEmitSeq, C: int32(replay)})
		c.p.instrs[replay].C = int32(len(c.p.instrs))
	}
	n.exit(end)
}

// nest is the loop nest of one FLWOR's clauses as the compiler lays it
// out: what the body after the clauses needs to close the loops.
type nest struct {
	c         *compiler
	endPatch  []int   // instructions whose C is the loops' end
	innermost int32   // pc of the innermost OpIter so far; -1: none
	fors      []int32 // the FOR clauses' cursors
	forDoms   []int32 // and the domains they scan
	depth     int32   // the depth the next clause binds at
	varSums   map[string][]*storage.SummaryNode
	known     map[string]bool
}

// loop makes instruction i jump back to the innermost OpIter, or past
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

// loops lowers the clauses and residual WHERE of x, binding its variables
// from depth on, into nested cursor loops; the caller emits the body and
// closes them. varSums and known describe the variables in scope and
// learn x's. top marks a top-level FLWOR, whose clause-0 FOR bindings the
// bind hook observes.
func (c *compiler) loops(x *xquery.FLWOR, plan *engine.FLWORPlan, depth int32, varSums map[string][]*storage.SummaryNode, known map[string]bool, top bool) *nest {
	n := &nest{c: c, innermost: -1, depth: depth, varSums: varSums, known: known}
	for ci, cl := range x.Clauses {
		if cl.Let {
			if inner, isFLWOR := foldExpr(cl.Seq).(*xquery.FLWOR); isFLWOR && inner.OrderBy == nil && x.OrderBy == nil {
				c.letFLWOR(cl.Var, inner, n)
				continue
			}
			spec := c.domainFor(cl.Seq, varSums, known)
			c.note(cl.Var, spec, varSums, known)
			if plan.Collect == nil || plan.Collect[ci] {
				c.emit(Instr{Op: OpLet, A: c.addVar(cl.Var, n.depth), B: c.addDom(spec)})
				n.depth++
			}
			continue
		}
		pds := plan.Pushdowns[ci]
		spec := c.domainFor(cl.Seq, varSums, known)
		c.note(cl.Var, spec, varSums, known)

		// Build the clause's predicate specs. Literal pushdowns whose
		// clause summary is statically known resolve their containers
		// now; the rest resolve (or defer) at runtime. Slots remember
		// each pushdown's original plan position so deferred filters
		// evaluate in plan order no matter how restricts are
		// reordered.
		var lits, joins []int32
		for slot, pd := range pds {
			ps := predSpec{pd: pd, slot: int32(slot)}
			c.eng.PlanExpr(c.p.plans, pd.Conj, varSums) // evaluated per tuple if deferred
			switch {
			case pd.IsLit && spec.static:
				ps.resolved = true
				ps.conts, ps.complete, ps.fastOK = c.eng.RelValueTarget(spec.sums, pd.Rel)
				for _, ct := range ps.conts {
					ps.cost += float64(ct.Len()) * decodeCost(ct.Codec().Name())
				}
			case !pd.IsLit && spec.static && len(spec.sums) > 0 && known[pd.OtherVar]:
				// Both sides static: the index is built here, once. An
				// error is left for a run to meet.
				if idx, ok, err := c.eng.BuildJoinIndex(pd, spec.sums, varSums[pd.OtherVar]); ok && err == nil {
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
		c.emit(Instr{Op: OpScan, A: cu, B: di})
		for _, pi := range lits {
			c.p.preds[pi].desc = predDesc(&c.p.preds[pi])
			c.emit(Instr{Op: OpLitRestrict, A: cu, B: pi})
		}
		for _, pi := range joins {
			c.p.preds[pi].desc = predDesc(&c.p.preds[pi])
			c.emit(Instr{Op: OpJoinRestrict, A: cu, B: pi})
		}
		vi := c.addVar(cl.Var, n.depth)
		n.depth++
		iter := c.emit(Instr{Op: OpIter, A: cu, B: vi})
		n.loop(iter)
		if len(pds) > 0 {
			c.emit(Instr{Op: OpDeferred, A: cu, C: int32(iter)})
		}
		if top && ci == 0 {
			// The bind hook observes clause-0 FOR bindings only, after
			// the deferred filters pass (flworEach contract).
			c.emit(Instr{Op: OpHook, A: cu})
		}
		n.innermost = int32(iter)
	}

	for _, conj := range plan.Residual {
		n.loop(c.emit(Instr{Op: OpWhere, A: c.addExpr(foldExpr(conj), varSums)}))
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

// letFLWOR lowers `LET $name := inner` into the enclosing nest n: the
// inner clauses become loops of the program that bind after the LET's
// depth, their RETURN appends to an accumulator, and their exhaustion
// binds the LET from it. When the inner RETURN is the variable of its
// only FOR, over a node path, the accumulator is that cursor's
// (ascending) nodes and the LET keeps its summary set.
func (c *compiler) letFLWOR(name string, inner *xquery.FLWOR, n *nest) {
	depth := n.depth
	ai := int32(c.p.naccs)
	c.p.naccs++
	c.emit(Instr{Op: OpLetOpen, A: ai, B: depth})
	in := c.loops(inner, engine.PlanFLWOR(inner), depth+1, maps.Clone(n.varSums), maps.Clone(n.known), false)
	cu, spec := c.bareFor(inner, in)
	if cu >= 0 {
		in.loop(c.emit(Instr{Op: OpAppendCur, A: ai, B: cu}))
		n.varSums[name], n.known[name] = spec.sums, len(spec.sums) > 0
	} else {
		in.loop(c.emit(Instr{Op: OpAppend, A: ai, B: c.addExpr(foldExpr(inner.Return), in.varSums)}))
		n.varSums[name], n.known[name] = nil, false
	}
	in.exit(c.emit(Instr{Op: OpLetBind, A: c.addVar(name, depth), B: ai, C: cu}))
	n.depth++
}

// bareFor returns the cursor and domain of x's only FOR clause when x
// returns that clause's variable and the domain is a node path with a
// static summary set; -1 otherwise.
func (c *compiler) bareFor(x *xquery.FLWOR, in *nest) (int32, *domainSpec) {
	ret, isVar := x.Return.(*xquery.VarRef)
	if !isVar || len(in.fors) != 1 {
		return -1, nil
	}
	for ci := len(x.Clauses) - 1; ci >= 0; ci-- {
		cl := x.Clauses[ci]
		if cl.Var != ret.Name {
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
// is an eligible path from a variable of known summary set (KeyRanks).
func (c *compiler) addSort(x *xquery.FLWOR, plan *engine.FLWORPlan, fors []int32, varSums map[string][]*storage.SummaryNode, known map[string]bool) int32 {
	ss := sortSpec{flwor: x, plan: plan, fors: fors}
	c.eng.PlanExpr(c.p.plans, x.OrderBy, varSums)
	if p, isPath := x.OrderBy.(*xquery.PathExpr); isPath && known[p.Var] {
		ss.ranks = c.eng.KeyRanks(p, varSums[p.Var])
	}
	ss.desc = sortDesc(&ss)
	c.p.sorts = append(c.p.sorts, ss)
	return int32(len(c.p.sorts) - 1)
}

// note records what is statically known about a freshly bound variable.
// known requires non-empty sums: pathOrigin recovers summaries from the
// actual nodes when a variable's sums are empty, so an empty static set
// cannot be trusted as the origin of a later chain.
func (c *compiler) note(name string, spec domainSpec, varSums map[string][]*storage.SummaryNode, known map[string]bool) {
	varSums[name] = spec.sums
	known[name] = spec.static && len(spec.sums) > 0
}

// domainFor analyzes one FOR/LET source (or top-level path): constant
// folding, static summary resolution, and invariance (no free
// variables → scan once per run). static requires a known origin:
// absolute paths, or variables whose (non-empty) summaries were
// tracked.
func (c *compiler) domainFor(x xquery.Expr, varSums map[string][]*storage.SummaryNode, known map[string]bool) domainSpec {
	folded := foldExpr(x)
	spec := domainSpec{expr: folded}
	spec.invariant = len(engine.FreeVars(folded)) == 0
	sums := c.eng.PlanExpr(c.p.plans, folded, varSums)
	switch e := folded.(type) {
	case *xquery.PathExpr:
		spec.path = e
		if e.Var == "" || known[e.Var] {
			// Text-tail domains bind decoded strings; the runtime reports
			// no summary provenance for them, and PlanExpr none either.
			n := len(e.Steps)
			spec.static, spec.sums = true, sums
			spec.textTail = n > 0 && e.Steps[n-1].Test == xquery.TestText
		}
	case *xquery.VarRef:
		if known[e.Name] {
			spec.static, spec.sums = true, sums
		}
	default:
		// Every other shape evaluates generically: the runtime reports
		// nil summary provenance, which is itself static knowledge.
		spec.static = true
	}
	spec.desc = domDesc(&spec)
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

// decodeCost returns the cost model's measured per-record decode cost
// for a codec (§3's cost constants, calibrated in the codec kernels).
func decodeCost(name string) float64 {
	for _, a := range costmodel.Algorithms {
		if a.Name == name {
			return a.DecodeCost
		}
	}
	return 1
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
			return &xquery.PathExpr{Var: e.Var, Doc: e.Doc, Steps: steps}
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

// ---- disassembly annotations ----

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func sumsDesc(sums []*storage.SummaryNode) string {
	if len(sums) == 0 {
		return "statically empty"
	}
	total := 0
	parts := make([]string, 0, len(sums))
	for _, sn := range sums {
		total += len(sn.Extent)
		parts = append(parts, sn.Path())
	}
	return fmt.Sprintf("%s (%d nodes)", strings.Join(parts, " ∪ "), total)
}

func domDesc(spec *domainSpec) string {
	var b strings.Builder
	b.WriteString(trunc(spec.expr.String(), 48))
	if spec.static && spec.path != nil {
		b.WriteString(" ; summary ")
		b.WriteString(sumsDesc(spec.sums))
		if spec.textTail {
			b.WriteString(", text()")
		}
	} else if !spec.static {
		b.WriteString(" ; runtime navigation")
	}
	if spec.invariant {
		b.WriteString(", invariant")
	}
	return b.String()
}

func sortDesc(ss *sortSpec) string {
	desc := trunc(ss.flwor.OrderBy.String(), 40)
	if ss.flwor.OrderDesc {
		desc += " descending"
	}
	if ss.ranks == nil {
		return desc + " ; keys decoded"
	}
	return fmt.Sprintf("%s ; ranks over %d records", desc, ss.ranks.Records())
}

func predDesc(ps *predSpec) string {
	var b strings.Builder
	b.WriteString(trunc(ps.pd.Conj.String(), 40))
	switch {
	case ps.resolved && ps.fastOK && len(ps.conts) > 0:
		parts := make([]string, 0, len(ps.conts))
		for _, ct := range ps.conts {
			parts = append(parts, fmt.Sprintf("%s[%s](%d recs)", ct.Path, ct.Codec().Name(), ct.Len()))
		}
		fmt.Fprintf(&b, " ; conts %s cost=%.1f", strings.Join(parts, " "), ps.cost)
		if !ps.complete {
			b.WriteString(" incomplete")
		}
	case ps.resolved:
		b.WriteString(" ; no container fast path, deferred")
	case ps.idx != nil:
		fmt.Fprintf(&b, " ; index built at compile, %d partners", ps.idx.Partners())
		if ps.whole {
			b.WriteString(", whole domain")
		}
	default:
		b.WriteString(" ; runtime container resolution")
	}
	return b.String()
}

// estimateSize approximates the program's resident bytes (instructions
// plus operand pools; the AST nodes the expr pool points at are shared
// with the parse tree and counted as pointer slots only). The plan
// cache charges entries by this figure.
func (c *compiler) estimateSize() int {
	p := c.p
	sz := len(p.src) + len(p.instrs)*16
	for i := range p.doms {
		d := &p.doms[i]
		sz += 112 + len(d.desc) + len(d.preds)*4
	}
	for i := range p.preds {
		ps := &p.preds[i]
		sz += 128 + len(ps.desc) + len(ps.conts)*8
		if ps.idx != nil {
			sz += ps.idx.SizeBytes()
		}
	}
	for i := range p.sorts {
		ss := &p.sorts[i]
		sz += 64 + len(ss.desc) + len(ss.fors)*4
		if ss.ranks != nil {
			sz += 8 * ss.ranks.Records()
		}
	}
	sz += p.plans.SizeBytes()
	sz += len(p.exprs)*16 + len(p.vars)*24
	for _, v := range p.vars {
		sz += len(v.name)
	}
	return sz
}
