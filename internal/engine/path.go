package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xpar"
	"xquec/internal/xquery"
)

// pathState is the intermediate state of path evaluation: the current
// node set (document order), the summary nodes those nodes belong to,
// and whether the set is exactly the union of the summary extents —
// when it is, the next structural step is answered purely from the
// structure summary (the StructureSummaryAccess strategy of §2.3),
// without touching the structure tree, and nodes stays nil until someone
// needs the union itself (allNodes).
type pathState struct {
	nodes algebra.NodeSet
	sums  []*storage.SummaryNode
	exact bool
}

// allNodes materializes an exact state.
func (st *pathState) allNodes() algebra.NodeSet {
	if st.exact && st.nodes == nil {
		st.nodes = algebra.SummaryAccess(st.sums)
	}
	return st.nodes
}

// PathPlan is the structural part of one path expression resolved
// against the structure summary for one origin summary set. A summary
// node is a full root path, so the plan answers "which extents can hold
// the result" once, and evaluation only intersects them with the
// stretch of document order that belongs to each binding.
type PathPlan struct {
	origin  []*storage.SummaryNode   // the variable's (or context's) summary set; nil for absolute paths
	targets [][]*storage.SummaryNode // targets[i]: the summary nodes steps[:i+1] reach
	// runs[i] resolves the steps [i, runEnd(i)) — what evaluation moves
	// over at once — from each member of the set they start from, for
	// every i that starts such a run from a node set (an absolute path's
	// leading run starts from the document and needs none).
	runs  []runPlan
	slots int // galloping positions a cursor over the plan needs
	// plain: absolute and predicate-free, so the result is the same all run.
	plain bool
}

// runPlan is one run of steps resolved per origin: targets[o] are the
// summary nodes the run reaches from an instance of from[o], and only
// those — `$b/location` under `//item` looks in the one location extent
// of $b's own region, not in six.
type runPlan struct {
	from    []*storage.SummaryNode
	targets [][]*storage.SummaryNode
	// Slots of the cursor: len(from) for the from extents starting at
	// slot, then one per target of from[o] starting at tslot[o].
	slot  int
	tslot []int
}

// runEnd returns the end of the run of steps that starts at step i: the
// step alone when it carries predicates, else up to the next step that
// does (or the text() tail).
func runEnd(steps []xquery.Step, i int) int {
	j := i + 1
	for len(steps[i].Preds) == 0 && j < len(steps) && steps[j].Test != xquery.TestText && len(steps[j].Preds) == 0 {
		j++
	}
	return j
}

// Sums returns the summary nodes the structural steps end on.
func (pl *PathPlan) Sums() []*storage.SummaryNode {
	if len(pl.targets) == 0 {
		return pl.origin
	}
	return pl.targets[len(pl.targets)-1]
}

// pathCursor is one run's state for one path expression: the plan, the
// galloping positions inside the extents its runs read, and — for plain
// paths — the result.
type pathCursor struct {
	plan     *PathPlan
	pos      []int
	done     bool
	st       pathState
	textTail bool
}

// resolvePath builds the plan of p for an origin summary set.
func (e *Engine) resolvePath(p *xquery.PathExpr, sums []*storage.SummaryNode) *PathPlan {
	pl := &PathPlan{origin: sums, plain: p.Var == "", targets: make([][]*storage.SummaryNode, 0, len(p.Steps))}
	cur := sums
	for i, step := range p.Steps {
		if step.Test == xquery.TestText {
			break
		}
		pl.plain = pl.plain && len(step.Preds) == 0
		cur = e.summaryTargets(cur, i == 0 && p.Var == "", step)
		pl.targets = append(pl.targets, cur)
	}
	for i, j := 0, 0; i < len(pl.targets); i = j {
		j = runEnd(p.Steps, i)
		from := sums
		if i > 0 {
			from = pl.targets[i-1]
		} else if p.Var == "" {
			continue
		}
		if pl.runs == nil {
			pl.runs = make([]runPlan, len(pl.targets))
		}
		run := &pl.runs[i]
		run.from, run.slot = from, pl.slots
		pl.slots += len(from)
		for o := range from {
			reach := from[o : o+1]
			for k := i; k < j; k++ {
				reach = e.summaryTargets(reach, false, p.Steps[k])
			}
			run.targets = append(run.targets, reach)
			run.tslot = append(run.tslot, pl.slots)
			pl.slots += len(reach)
		}
	}
	return pl
}

// antichain reports that no member of sums is a summary-ancestor of
// another, i.e. that instances of sums never nest.
func antichain(sums []*storage.SummaryNode) bool {
	for _, sn := range sums {
		if nestedIn(sn, sums) {
			return false
		}
	}
	return true
}

// nestedIn reports that sn has a summary-ancestor in sums.
func nestedIn(sn *storage.SummaryNode, sums []*storage.SummaryNode) bool {
	for anc := sn.Parent; len(sums) > 1 && anc != nil; anc = anc.Parent {
		if slices.Contains(sums, anc) {
			return true
		}
	}
	return false
}

// cursorFor returns the run's cursor for p over the origin set sums,
// taking the plan from the program when it resolved this origin and
// resolving it here otherwise. A path whose origin set changes between
// evaluations (a variable without summary knowledge) re-resolves.
func (e *Engine) cursorFor(p *xquery.PathExpr, sums []*storage.SummaryNode) *pathCursor {
	pc := e.paths[p]
	if pc != nil && slices.Equal(pc.plan.origin, sums) {
		return pc
	}
	var pl *PathPlan
	if e.plans != nil {
		pl = e.plans.paths[p]
	}
	if pl == nil || !slices.Equal(pl.origin, sums) {
		pl = e.resolvePath(p, sums)
	}
	pc = &pathCursor{plan: pl, pos: make([]int, pl.slots)}
	e.paths[p] = pc
	return pc
}

// evalPath evaluates a path expression to a sequence.
func (e *Engine) evalPath(p *xquery.PathExpr, env *scope) (Seq, error) {
	return e.appendPath(nil, p, env)
}

// appendPath appends the items of a path expression to dst.
func (e *Engine) appendPath(dst Seq, p *xquery.PathExpr, env *scope) (Seq, error) {
	st, textTail, err := e.evalPathNodes(p, env)
	if err != nil {
		return nil, err
	}
	if textTail {
		return e.appendTexts(dst, st.nodes)
	}
	if dst == nil {
		dst = make(Seq, 0, len(st.nodes))
	}
	for _, id := range st.nodes {
		dst = append(dst, id)
	}
	return dst, nil
}

// evalPathNodes evaluates the structural part of a path; if the final
// step is text(), textTail is true and the returned nodes are the text
// owners. The nodes may alias a summary extent or a binding: they are
// read-only, and valid until the variable is rebound.
func (e *Engine) evalPathNodes(p *xquery.PathExpr, env *scope) (pathState, bool, error) {
	st, err := e.pathOrigin(p, env)
	if err != nil {
		return pathState{}, false, err
	}
	pc := e.cursorFor(p, st.sums)
	if pc.done {
		return pc.st, pc.textTail, nil
	}
	textTail := false
	steps := p.Steps
	for i := 0; i < len(steps); {
		step := steps[i]
		if step.Test == xquery.TestText {
			if i != len(steps)-1 {
				return pathState{}, false, fmt.Errorf("engine: text() must be the final step")
			}
			if len(step.Preds) > 0 {
				return pathState{}, false, fmt.Errorf("engine: predicates on text() are not supported")
			}
			st.nodes, st.exact, textTail = e.withText(st.allNodes(), st.sums), false, true
			break
		}
		j := runEnd(steps, i)
		if len(step.Preds) == 0 {
			st = e.moveRun(st, i, j, pc)
		} else if st, err = e.predStep(st, steps, i, env, pc); err != nil {
			return pathState{}, false, err
		}
		i = j
	}
	st.allNodes()
	if pc.plan.plain {
		pc.done, pc.st, pc.textTail = true, st, textTail
	}
	return st, textTail, nil
}

// withText restricts nodes, instances of sums, to those that have
// immediate text. Where the summary says every instance has some — the
// rule for a path one asks text() of — that is all of them, and the tree
// is not asked; otherwise only a node without text is copied around.
func (e *Engine) withText(nodes algebra.NodeSet, sums []*storage.SummaryNode) algebra.NodeSet {
	all := len(sums) > 0
	for _, sn := range sums {
		all = all && sn.TextCount == sn.Count
	}
	if all {
		return nodes
	}
	for i, id := range nodes {
		if e.store.HasText(id) {
			continue
		}
		out := append(make(algebra.NodeSet, 0, len(nodes)-1), nodes[:i]...)
		for _, id := range nodes[i+1:] {
			if e.store.HasText(id) {
				out = append(out, id)
			}
		}
		return out
	}
	return nodes
}

// pathOrigin resolves the origin of a path.
func (e *Engine) pathOrigin(p *xquery.PathExpr, env *scope) (pathState, error) {
	if p.Var == "" { // absolute: the (single) document
		return pathState{exact: true}, nil
	}
	var ids algebra.NodeSet
	var sums []*storage.SummaryNode
	if p.Var == "." {
		if env.ctx[0] == 0 {
			return pathState{}, errNonNodePath
		}
		ids, sums = env.ctx[:], env.ctxSums
	} else {
		b, ok := env.vars[p.Var]
		if !ok {
			return pathState{}, fmt.Errorf("engine: unbound variable $%s", p.Var)
		}
		if ids, sums = b.ids, b.sums; ids == nil {
			if ids, ok = nodeSeq(b.value()); !ok {
				return pathState{}, errNonNodePath
			}
		}
	}
	if len(sums) == 0 && len(ids) > 0 && len(p.Steps) > 0 {
		// The variable was bound from a non-path source (e.g. a nested
		// FLWOR): recover the summary nodes by walking each node's tag
		// path upward.
		sums = e.summariesOf(ids)
	}
	return pathState{nodes: ids, sums: sums}, nil
}

// summariesOf returns the distinct summary nodes the given nodes are
// instances of.
func (e *Engine) summariesOf(ids algebra.NodeSet) []*storage.SummaryNode {
	seen := map[int32]bool{}
	var out []*storage.SummaryNode
	for _, id := range ids {
		sn := e.summaryOf(id)
		if sn != nil && !seen[sn.ID] {
			seen[sn.ID] = true
			out = append(out, sn)
		}
	}
	return out
}

// summaryOf resolves one node's summary node by its tag path.
func (e *Engine) summaryOf(id storage.NodeID) *storage.SummaryNode {
	var tags []string
	for cur := id; cur != 0; cur = e.store.Parent(cur) {
		tags = append(tags, e.store.TagOf(cur))
	}
	sn := e.store.Sum.Root
	if sn == nil || sn.Tag != tags[len(tags)-1] {
		return nil
	}
	for i := len(tags) - 2; i >= 0; i-- {
		var next *storage.SummaryNode
		for _, c := range sn.Children {
			if c.Tag == tags[i] {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		sn = next
	}
	return sn
}

var errNonNodePath = fmt.Errorf("engine: path step over non-node sequence")

// summaryTargets returns the distinct summary children of sums matching
// the step (child axis), or all matching descendants for the descendant
// axis. fromDocument starts from the virtual document node, whose one
// child is the root.
func (e *Engine) summaryTargets(sums []*storage.SummaryNode, fromDocument bool, step xquery.Step) []*storage.SummaryNode {
	name := step.Name
	if step.Test == xquery.TestAttr {
		name = "@" + step.Name
	}
	if fromDocument {
		sums = []*storage.SummaryNode{{Children: []*storage.SummaryNode{e.store.Sum.Root}}}
	}
	var out []*storage.SummaryNode
	for _, sn := range sums {
		// Children of distinct summary nodes are distinct; a descendant
		// walk from an origin nested in another would only repeat it.
		if step.Axis == xquery.AxisChild || !nestedIn(sn, sums) {
			out = appendTargets(out, sn, name, step)
		}
	}
	return out
}

func appendTargets(out []*storage.SummaryNode, sn *storage.SummaryNode, name string, step xquery.Step) []*storage.SummaryNode {
	for _, c := range sn.Children {
		match := c.Tag == name
		if step.Test == xquery.TestName && name == "*" {
			match = !strings.HasPrefix(c.Tag, "@") && c.Tag != "#text"
		}
		if match {
			out = append(out, c)
		}
		if step.Axis != xquery.AxisChild {
			out = appendTargets(out, c, name, step)
		}
	}
	return out
}

// lastID stands in for "the next instance" after the last one of an
// extent: no node has it.
const lastID = ^storage.NodeID(0)

// moveRun applies the steps [i, j), a run of the plan, to st: from an
// exact state the targets' extents themselves, from a node set what
// within finds — no intermediate step is evaluated, no child visited and
// no subtree end asked for.
func (e *Engine) moveRun(st pathState, i, j int, pc *pathCursor) pathState {
	next := pathState{sums: pc.plan.targets[j-1], exact: st.exact}
	if !st.exact {
		next.nodes = e.within(st.nodes, &pc.plan.runs[i], pc.pos)
	}
	return next
}

// within returns what a run reaches from nodes, instances of run.from:
// for b = S.Extent[i] and a summary node T the run reaches from S, the
// part of T.Extent between b and S.Extent[i+1] — every instance of T has
// exactly one ancestor among the instances of S, which never nest, so it
// is the nearest one before it (DESIGN.md, "Containment is extent order";
// recursion changes nothing, T is a summary node of its own at every
// depth). The cursors that place b advance with ascending bindings. One
// node and one non-empty extent range yield a sub-slice of that extent;
// anything else is copied.
func (e *Engine) within(nodes algebra.NodeSet, run *runPlan, pos []int) algebra.NodeSet {
	var one, out algebra.NodeSet
	sorted := true
	for _, b := range nodes {
		o, i := algebra.Nearest(run.from, pos[run.slot:run.slot+len(run.from)], b)
		if o < 0 || run.from[o].Extent[i] != b {
			continue // not an instance of the origin set: reaches nothing
		}
		next := lastID
		if ext := run.from[o].Extent; i+1 < len(ext) {
			next = ext[i+1]
		}
		mark, pieces := len(out), 0
		for t, sn := range run.targets[o] {
			r := algebra.Within(sn.Extent, b+1, next-1, &pos[run.tslot[o]+t])
			if len(r) == 0 {
				continue
			}
			if pieces++; len(nodes) == 1 && pieces == 1 {
				one = r
				continue
			}
			out = append(append(out, one...), r...)
			one = nil
		}
		if pieces > 1 { // extents of sibling paths interleave under one node
			slices.Sort(out[mark:])
		}
		// Nodes that nest reach overlapping stretches.
		sorted = sorted && (mark == 0 || mark == len(out) || out[mark-1] < out[mark])
	}
	if out == nil {
		return one
	}
	if !sorted {
		return algebra.SortUnique(out)
	}
	return out
}

// predStep applies step i, which carries predicates. Positional ones
// select per parent, so the parent set is walked node by node; the
// rest filter the moved set as a whole.
func (e *Engine) predStep(st pathState, steps []xquery.Step, i int, env *scope, pc *pathCursor) (pathState, error) {
	preds, targets := steps[i].Preds, pc.plan.targets[i]
	next := pathState{sums: targets}
	if len(targets) == 0 {
		return next, nil
	}
	positional := false
	for _, pred := range preds {
		if _, is := pickPositional(nil, pred); is {
			positional = true
		}
	}
	var err error
	switch {
	case !positional:
		next = e.moveRun(st, i, i+1, pc)
		next.nodes, err = e.applyPreds(next.nodes, next.exact, preds, env, targets)
		next.exact = false
	case i == 0 && st.exact:
		// The document node has one child, the root: position among it.
		next.nodes, err = e.applyPreds(algebra.NodeSet{1}, false, preds, env, nil)
	default:
		parents := st.allNodes()
		var out []storage.NodeID
		for k := range parents {
			kids := e.within(parents[k:k+1], &pc.plan.runs[i], pc.pos)
			if kids, err = e.applyPreds(kids, false, preds, env, targets); err != nil {
				break
			}
			if len(parents) == 1 {
				out = kids // a sub-slice of an extent: never written to
				break
			}
			out = append(out, kids...)
		}
		next.nodes = algebra.SortUnique(out)
	}
	return next, err
}

// pickPositional applies a positional predicate (an integer literal or
// last()) to cur; is reports whether pred is one.
func pickPositional(cur algebra.NodeSet, pred xquery.Expr) (sel algebra.NodeSet, is bool) {
	switch p := pred.(type) {
	case *xquery.NumberLit:
		if idx := int(p.Val); idx >= 1 && idx <= len(cur) {
			return cur[idx-1 : idx], true
		}
		return nil, true
	case *xquery.Call:
		if p.Name == "last" {
			if len(cur) > 0 {
				cur = cur[len(cur)-1:]
			}
			return cur, true
		}
	}
	return cur, false
}

// applyPreds filters candidate nodes, instances of sums, by the step
// predicates, in order. all says that the candidates are every instance
// of sums and that nodes, nil, does not spell them out: a container match
// then goes from the matching values to their instances directly, and the
// candidates are materialized only if some predicate has to see them.
func (e *Engine) applyPreds(nodes algebra.NodeSet, all bool, preds []xquery.Expr, env *scope, sums []*storage.SummaryNode) (algebra.NodeSet, error) {
	if len(preds) == 1 && !all {
		// The lone [1] or [last()] of Q2/Q3: nothing to flatten.
		if sel, is := pickPositional(nodes, preds[0]); is {
			return sel, nil
		}
	}
	cur := nodes
	// AND-predicates are split so each conjunct can use the container
	// fast path independently.
	var flat []xquery.Expr
	for _, pred := range preds {
		if _, is := pickPositional(nil, pred); is {
			flat = append(flat, pred)
			continue
		}
		flat = append(flat, splitPredConjuncts(pred)...)
	}
	preds = flat
	// The owner sets of the conjunct fast paths depend only on the
	// containers (never on cur), so independent conjuncts can be
	// evaluated concurrently and consumed in predicate order.
	pre := e.precomputeConjunctOwners(preds, sums)
	for i, pred := range preds {
		// Value predicate: container fast path, else per-node. A
		// precomputed conjunct replays its (owners, ok, err) in predicate
		// order, so error and fallback selection match the serial loop.
		co := pre[i]
		if co == nil {
			var err error
			if co, err = e.predOwners(sums, pred); err != nil {
				return nil, err
			}
		}
		if co.err != nil {
			return nil, co.err
		}
		if co.ok {
			// The owners are values below sums, whose instances never nest
			// (relValueTarget resolves nothing else): extent order alone
			// places each under its instance.
			if all {
				cur, all = algebra.AncestorsIn(sums, co.owners), false
			} else {
				cur = algebra.SemiJoinIn(sums, cur, co.owners)
			}
			continue
		}
		if all {
			cur, all = algebra.SummaryAccess(sums), false
		}
		if sel, is := pickPositional(cur, pred); is {
			cur = sel
			continue
		}
		// The context is set in place and restored: the scope is shared
		// with the enclosing expression.
		ctx, ctxSums := env.ctx[0], env.ctxSums
		env.ctxSums = sums
		var out algebra.NodeSet
		for _, id := range cur {
			env.ctx[0] = id
			b, err := e.evalBool(pred, env)
			if err != nil {
				return nil, err
			}
			if b {
				out = append(out, id)
			}
		}
		env.ctx[0], env.ctxSums = ctx, ctxSums
		cur = out
	}
	if all {
		cur = algebra.SummaryAccess(sums)
	}
	return cur, nil
}

// conjunctOwners is one container fast-path result: the matched owner
// set under the summary set it was resolved for, whether the fast path
// applies, and any container error. The engine keeps one per comparison
// and run (Engine.owners), so a literal restrict inside a nested FLWOR,
// a non-first clause or a step predicate of a relative path scans its
// container once per run, not once per outer tuple.
type conjunctOwners struct {
	sums   []*storage.SummaryNode
	owners algebra.NodeSet
	ok     bool
	err    error
}

var noOwners = &conjunctOwners{}

// precomputeConjunctOwners fans the container fast paths of independent
// `relPath op literal` conjuncts out across the worker pool. It returns
// a sparse slice aligned with preds (nil = not eligible, evaluate as
// before). Only pure container/summary reads run on the workers; every
// result is replayed in predicate order by the caller, so evaluation
// order, error selection and fallback decisions are serial-identical.
func (e *Engine) precomputeConjunctOwners(preds []xquery.Expr, sums []*storage.SummaryNode) []*conjunctOwners {
	out := make([]*conjunctOwners, len(preds))
	if e.par <= 1 || len(sums) == 0 || len(preds) < 2 {
		return out
	}
	type job struct {
		idx     int
		cmp     *xquery.Cmp
		rel     *xquery.PathExpr
		op, lit string
	}
	var jobs []job
	for i, pred := range preds {
		cmp, isCmp := pred.(*xquery.Cmp)
		if !isCmp {
			continue
		}
		if co := e.owners[cmp]; co != nil && slices.Equal(co.sums, sums) {
			out[i] = co
		} else if rel, lit, op, ok := splitCmp(cmp); ok {
			jobs = append(jobs, job{idx: i, cmp: cmp, rel: rel, op: op, lit: lit})
		}
	}
	if len(jobs) < 2 {
		return out
	}
	inner := e.par / len(jobs)
	if inner < 1 {
		inner = 1
	}
	workers := e.par
	if workers > len(jobs) {
		workers = len(jobs)
	}
	xpar.NoteScan(len(jobs))
	_ = xpar.ForEach(workers, len(jobs), func(k int) error {
		j := jobs[k]
		co := &conjunctOwners{sums: sums}
		co.owners, co.ok, co.err = e.scanOwners(sums, j.rel, j.op, j.lit, inner)
		out[j.idx] = co
		return nil
	})
	for _, j := range jobs {
		if out[j.idx].err == nil {
			e.owners[j.cmp] = out[j.idx]
		}
	}
	return out
}

// splitPredConjuncts flattens an AND tree inside a step predicate.
func splitPredConjuncts(pred xquery.Expr) []xquery.Expr {
	if l, isLogic := pred.(*xquery.Logic); isLogic && l.Op == "and" {
		return append(splitPredConjuncts(l.Left), splitPredConjuncts(l.Right)...)
	}
	return []xquery.Expr{pred}
}

// ---------------------------------------------------------------------
// Compressed-domain predicate fast path
// ---------------------------------------------------------------------

// relValueTarget resolves a context-relative path (inside a predicate or
// a WHERE clause) to the value containers it denotes under the given
// summary nodes. ok is false when the shape is unsupported (the caller
// then evaluates row-at-a-time). complete reports that every instance of
// the path has a value in the containers — when false, only existential
// equality against a non-empty literal is sound on the containers alone.
func (e *Engine) relValueTarget(sums []*storage.SummaryNode, p *xquery.PathExpr) (conts []*storage.Container, complete bool, ok bool) {
	if p.Var == "" {
		return nil, false, false // absolute paths are not context-relative
	}
	if !antichain(sums) {
		// Instances nest (a recursive schema): a value under an inner
		// instance also lies inside the outer one's interval, so owners
		// cannot be mapped back to instances by containment.
		return nil, false, false
	}
	cur := sums
	for _, step := range p.Steps {
		if len(step.Preds) > 0 {
			return nil, false, false
		}
		if step.Test == xquery.TestText {
			break
		}
		cur = e.summaryTargets(cur, false, step)
		if len(cur) == 0 {
			return nil, true, true // statically empty: no container, no match
		}
	}
	// Terminal: the value container(s). For attribute ends, the summary
	// node itself holds the container; for element ends, its #text
	// child — valid only when the element's string value IS its
	// immediate text, i.e. it has no element children (mixed or nested
	// content would need deep-text comparison).
	complete = true
	seen := map[int32]bool{}
	for _, sn := range cur {
		target := sn
		if !strings.HasPrefix(sn.Tag, "@") {
			var txt *storage.SummaryNode
			for _, c := range sn.Children {
				if c.Tag == "#text" {
					txt = c
					continue
				}
				if !strings.HasPrefix(c.Tag, "@") {
					return nil, false, false // element content: deep value
				}
			}
			if txt == nil {
				// No instance has a text value: their string values are
				// all "", which the containers cannot answer.
				return nil, false, false
			}
			if sn.TextCount < sn.Count {
				complete = false // some instances have no text value
			}
			target = txt
		}
		if target.Container < 0 || seen[target.ID] {
			continue
		}
		seen[target.ID] = true
		conts = append(conts, e.store.Container(target.Container))
	}
	return conts, complete, true
}

// predOwners evaluates a predicate of the form  relPath op literal
// (either side) against the containers, in the compressed domain when
// the codec supports the comparison. Its ok is false when the predicate
// does not have that shape.
func (e *Engine) predOwners(sums []*storage.SummaryNode, pred xquery.Expr) (*conjunctOwners, error) {
	cmp, okShape := pred.(*xquery.Cmp)
	if !okShape || len(sums) == 0 {
		return noOwners, nil
	}
	rel, lit, op, ok := splitCmp(cmp)
	if !ok {
		return noOwners, nil
	}
	return e.matchOwners(cmp, sums, rel, op, lit)
}

// splitCmp normalizes a comparison into (relative path, literal,
// effective operator). Comparisons with the literal on the left flip
// the operator.
func splitCmp(cmp *xquery.Cmp) (*xquery.PathExpr, string, string, bool) {
	lit := func(e xquery.Expr) (string, bool) {
		switch v := e.(type) {
		case *xquery.StringLit:
			return v.Val, true
		case *xquery.NumberLit:
			return formatNum(v.Val), true
		}
		return "", false
	}
	if p, isPath := cmp.Left.(*xquery.PathExpr); isPath && p.Var == "." {
		if l, isLit := lit(cmp.Right); isLit {
			return p, l, cmp.Op, true
		}
	}
	if p, isPath := cmp.Right.(*xquery.PathExpr); isPath && p.Var == "." {
		if l, isLit := lit(cmp.Left); isLit {
			return p, l, flipOp(cmp.Op), true
		}
	}
	return nil, "", "", false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and != are symmetric
}

// matchOwners returns the owner nodes (value parents) matching the
// comparison conj, `relPath op literal`, under the given summary nodes:
// this run's earlier answer when conj was asked under the same summary
// set before, else a scan of the containers (scanOwners).
func (e *Engine) matchOwners(conj *xquery.Cmp, sums []*storage.SummaryNode, rel *xquery.PathExpr, op, literal string) (*conjunctOwners, error) {
	if co := e.owners[conj]; co != nil && slices.Equal(co.sums, sums) {
		return co, nil
	}
	co := &conjunctOwners{sums: sums}
	var err error
	if co.owners, co.ok, err = e.scanOwners(sums, rel, op, literal, e.par); err != nil {
		return nil, err
	}
	e.owners[conj] = co
	return co, nil
}

// scanOwners resolves `relPath op literal` under the given summary nodes
// to its containers and matches them, spending up to par workers: one
// summary path can map to many containers, so the per-container matches
// fan out across the pool, each container scan splitting its leftover
// worker share internally.
func (e *Engine) scanOwners(sums []*storage.SummaryNode, rel *xquery.PathExpr, op, literal string, par int) (algebra.NodeSet, bool, error) {
	conts, complete, ok := e.relValueTarget(sums, rel)
	if !ok {
		return nil, false, nil
	}
	// An instance without a text value still atomizes to the string ""
	// (an empty element's string value), which matches != and <-style
	// comparisons — but has no container record. When such instances
	// exist (complete == false), only equality against a non-empty
	// literal is sound on the containers alone.
	if !complete && !(op == "=" && literal != "") {
		return nil, false, nil
	}
	if op == "=" && literal == "" {
		// "" never appears in the containers (empty text nodes are not
		// recorded); fall back to per-node evaluation.
		return nil, false, nil
	}
	if par > 1 && len(conts) > 1 {
		results := make([]conjunctOwners, len(conts))
		inner := par / len(conts)
		if inner < 1 {
			inner = 1
		}
		workers := par
		if workers > len(conts) {
			workers = len(conts)
		}
		xpar.NoteScan(len(conts))
		// Workers never return an error: the reduction below walks the
		// results in container order, so the error and not-handled
		// decisions are the ones the serial loop would have made.
		_ = xpar.ForEach(workers, len(conts), func(i int) error {
			results[i].owners, results[i].ok, results[i].err = e.containerMatch(conts[i], op, literal, inner)
			return nil
		})
		all := make([]algebra.NodeSet, 0, len(conts))
		for _, r := range results {
			if r.err != nil {
				return nil, false, r.err
			}
			if !r.ok {
				return nil, false, nil
			}
			all = append(all, r.owners)
		}
		return algebra.MergeUnion(all...), true, nil
	}
	var all []algebra.NodeSet
	for _, c := range conts {
		owners, ok, err := e.containerMatch(c, op, literal, par)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		all = append(all, owners)
	}
	return algebra.MergeUnion(all...), true, nil
}

// containerMatch evaluates `value op literal` over one container,
// preferring the compressed domain; the decoding-scan fallbacks split
// the record range across up to par workers.
func (e *Engine) containerMatch(c *storage.Container, op, literal string, par int) (algebra.NodeSet, bool, error) {
	_, litIsNum := parseNum(literal)
	// String containers compared against numeric literals follow
	// numeric semantics per value ("40.0" = 40): fall back to a
	// decoding scan.
	if c.Kind == storage.KindString && litIsNum {
		owners, err := algebra.ContFilterPar(c, par, func(plain []byte) bool {
			return compareAtoms(op, string(plain), literal)
		})
		return owners, err == nil, err
	}
	probe, exact := canonicalProbe(c, literal)
	if !exact {
		// The literal is not representable in the container's value
		// space exactly (e.g. "40" against a scale-2 decimal container
		// would be, but "abc" against an int container is not):
		// fall back to the decoding scan with general semantics.
		owners, err := algebra.ContFilterPar(c, par, func(plain []byte) bool {
			return compareAtoms(op, string(plain), literal)
		})
		return owners, err == nil, err
	}
	switch op {
	case "=":
		owners, err := algebra.ContEqPar(c, probe, par)
		return owners, err == nil, err
	case "!=":
		owners, err := algebra.ContFilterPar(c, par, func(plain []byte) bool {
			return compareAtoms("!=", string(plain), literal)
		})
		return owners, err == nil, err
	case "<":
		owners, err := algebra.ContRange(c, nil, true, probe, false)
		return owners, err == nil, err
	case "<=":
		owners, err := algebra.ContRange(c, nil, true, probe, true)
		return owners, err == nil, err
	case ">":
		owners, err := algebra.ContRange(c, probe, false, nil, true)
		return owners, err == nil, err
	case ">=":
		owners, err := algebra.ContRange(c, probe, true, nil, true)
		return owners, err == nil, err
	}
	return nil, false, nil
}

func parseNum(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f, err == nil
}

// canonicalProbe reformats a literal into the container's canonical
// value text, so the typed codecs can encode it; exact=false means the
// literal cannot be made canonical and the caller must scan.
func canonicalProbe(c *storage.Container, literal string) ([]byte, bool) {
	switch c.Kind {
	case storage.KindString:
		return []byte(literal), true
	case storage.KindInt:
		f, ok := parseNum(literal)
		if !ok || f != float64(int64(f)) {
			return nil, false
		}
		return []byte(strconv.FormatInt(int64(f), 10)), true
	case storage.KindDecimal:
		f, ok := parseNum(literal)
		if !ok {
			return nil, false
		}
		// Infer the scale from an existing record: decode one value.
		if c.Len() == 0 {
			return nil, false
		}
		sc := storage.NewScratch()
		defer sc.Release()
		v, err := c.DecodeScratch(sc, 0)
		if err != nil {
			return nil, false
		}
		dot := bytes.IndexByte(v, '.')
		if dot < 0 {
			return nil, false
		}
		scale := len(v) - dot - 1
		s := strconv.FormatFloat(f, 'f', scale, 64)
		if got, _ := parseNum(s); got != f {
			return nil, false // literal has more precision than the scale
		}
		return []byte(s), true
	case storage.KindFloat:
		f, ok := parseNum(literal)
		if !ok {
			return nil, false
		}
		return []byte(strconv.FormatFloat(f, 'f', -1, 64)), true
	case storage.KindDate:
		if len(literal) == 10 && literal[4] == '-' && literal[7] == '-' {
			return []byte(literal), true
		}
		return nil, false
	}
	return nil, false
}
