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
// without touching the structure tree.
type pathState struct {
	nodes algebra.NodeSet
	sums  []*storage.SummaryNode
	exact bool
}

// PathPlan is the structural part of one path expression resolved
// against the structure summary for one origin summary set. A summary
// node is a full root path, so the plan answers "which extents can hold
// the result" once, and evaluation only intersects them with the
// bindings' subtree intervals.
type PathPlan struct {
	origin  []*storage.SummaryNode   // the variable's (or context's) summary set; nil for absolute paths
	targets [][]*storage.SummaryNode // targets[i]: the summary nodes steps[:i+1] reach
	// anti[i]: the set step i starts from is an antichain (no member is a
	// summary-ancestor of another), which makes the range lookup sound.
	anti []bool
	// plain: absolute and predicate-free, so the result is the same all run.
	plain bool
}

// Sums returns the summary nodes the structural steps end on.
func (pl *PathPlan) Sums() []*storage.SummaryNode {
	if len(pl.targets) == 0 {
		return pl.origin
	}
	return pl.targets[len(pl.targets)-1]
}

// pathCursor is one run's state for one path expression: the plan, the
// galloping position inside each target extent, and — for plain paths —
// the result.
type pathCursor struct {
	plan     *PathPlan
	pos      [][]int
	done     bool
	st       pathState
	textTail bool
}

// resolvePath builds the plan of p for an origin summary set.
func (e *Engine) resolvePath(p *xquery.PathExpr, sums []*storage.SummaryNode) *PathPlan {
	pl := &PathPlan{origin: sums, plain: p.Var == "",
		targets: make([][]*storage.SummaryNode, 0, len(p.Steps)), anti: make([]bool, 0, len(p.Steps))}
	cur := sums
	for i, step := range p.Steps {
		if step.Test == xquery.TestText {
			break
		}
		pl.plain = pl.plain && len(step.Preds) == 0
		pl.anti = append(pl.anti, antichain(cur))
		cur = e.summaryTargets(cur, i == 0 && p.Var == "", step)
		pl.targets = append(pl.targets, cur)
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
	pc = &pathCursor{plan: pl, pos: make([][]int, len(pl.targets))}
	for i, tg := range pl.targets {
		pc.pos[i] = make([]int, len(tg))
	}
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
			st.nodes, textTail = e.withText(st.nodes), true
			break
		}
		if len(step.Preds) > 0 {
			if st, err = e.predStep(st, steps, i, env, pc); err != nil {
				return pathState{}, false, err
			}
			i++
			continue
		}
		j := i + 1
		for j < len(steps) && steps[j].Test != xquery.TestText && len(steps[j].Preds) == 0 {
			j++
		}
		st = e.moveRun(st, steps, i, j, pc)
		i = j
	}
	if pc.plan.plain {
		pc.done, pc.st, pc.textTail = true, st, textTail
	}
	return st, textTail, nil
}

// withText restricts nodes to those that have immediate text, copying
// only when one does not.
func (e *Engine) withText(nodes algebra.NodeSet) algebra.NodeSet {
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

// moveRun applies the predicate-free steps [i, j) to st. From an exact
// state the result is the targets' extents themselves. From a node set
// whose summary set is an antichain it is the targets' extents inside
// the nodes' subtree intervals: containment in the interval is
// reachability by the steps, the intervals are disjoint and ascend, so
// no intermediate step is evaluated and no child is visited. Any other
// set goes step by step until the set it has reached is an antichain.
func (e *Engine) moveRun(st pathState, steps []xquery.Step, i, j int, pc *pathCursor) pathState {
	pl := pc.plan
	next := pathState{sums: pl.targets[j-1]}
	if st.exact {
		next.nodes, next.exact = algebra.SummaryAccess(next.sums), true
		return next
	}
	next.nodes = st.nodes
	for k := i; k < j && len(next.nodes) > 0; k++ {
		if pl.anti[k] {
			next.nodes = e.within(next.nodes, next.sums, pc.pos[j-1])
			break
		}
		next.nodes = e.stepwise(next.nodes, pl.targets[k], steps[k].Axis == xquery.AxisChild)
	}
	return next
}

// within returns the targets' extent nodes inside the subtrees of nodes,
// whose summary set is an antichain. One node and one non-empty extent
// range yield a sub-slice of that extent; anything else is copied.
func (e *Engine) within(nodes algebra.NodeSet, targets []*storage.SummaryNode, pos []int) algebra.NodeSet {
	var one, out algebra.NodeSet
	var prev storage.NodeID
	for _, b := range nodes {
		if b == prev {
			continue
		}
		prev = b
		if e.endOf != b {
			e.endOf, e.end = b, e.store.SubtreeEnd(b)
		}
		end := e.end
		mark, pieces := len(out), 0
		for t, sn := range targets {
			r := algebra.Within(sn.Extent, b+1, end, &pos[t])
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
		if pieces > 1 { // extents of sibling paths interleave inside one subtree
			slices.Sort(out[mark:])
		}
	}
	if out == nil {
		return one
	}
	return out
}

// stepwise applies one step to nodes that may nest (a recursive schema:
// their summary set is not an antichain), where an extent node inside a
// subtree need not be reachable by the step: a child step keeps a
// candidate only if its parent is the node it was found under.
func (e *Engine) stepwise(nodes algebra.NodeSet, targets []*storage.SummaryNode, child bool) algebra.NodeSet {
	var out []storage.NodeID
	for _, b := range nodes {
		end := e.store.SubtreeEnd(b)
		for _, sn := range targets {
			for _, x := range algebra.Within(sn.Extent, b+1, end, nil) {
				if !child || e.store.Parent(x) == b {
					out = append(out, x)
				}
			}
		}
	}
	return algebra.SortUnique(out)
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
		next = e.moveRun(st, steps, i, i+1, pc)
		next.nodes, err = e.applyPreds(next.nodes, preds, env, targets)
		next.exact = false
	case i == 0 && st.exact:
		// The document node has one child, the root: position among it.
		next.nodes, err = e.applyPreds(algebra.NodeSet{1}, preds, env, nil)
	default:
		parents := st.nodes
		if st.exact {
			parents = algebra.SummaryAccess(st.sums)
		}
		var out []storage.NodeID
		for k := range parents {
			kids := e.moveRun(pathState{nodes: parents[k : k+1]}, steps, i, i+1, pc).nodes
			if kids, err = e.applyPreds(kids, preds, env, targets); err != nil {
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

// applyPreds filters candidate nodes by the step predicates, in order.
func (e *Engine) applyPreds(nodes algebra.NodeSet, preds []xquery.Expr, env *scope, sums []*storage.SummaryNode) (algebra.NodeSet, error) {
	if len(preds) == 1 {
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
		if sel, is := pickPositional(cur, pred); is {
			cur = sel
			continue
		}
		// Value predicate: container fast path, else per-node. A
		// precomputed conjunct replays its (owners, ok, err) in predicate
		// order, so error and fallback selection match the serial loop.
		if pc := pre[i]; pc != nil {
			if pc.err != nil {
				return nil, pc.err
			}
			if pc.ok {
				cur = algebra.SemiJoinAncestorPar(e.store, cur, pc.owners, e.par)
				continue
			}
		} else if sel, ok, err := e.predFastPath(cur, sums, pred, env); err != nil {
			return nil, err
		} else if ok {
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
	return cur, nil
}

// conjunctOwners is one precomputed fast-path result: the matched owner
// set, whether the fast path applies, and any container error.
type conjunctOwners struct {
	owners algebra.NodeSet
	ok     bool
	err    error
}

// precomputeConjunctOwners fans the container fast paths of independent
// `relPath op literal` conjuncts out across the worker pool. It returns
// a sparse slice aligned with preds (nil = not eligible, evaluate as
// before). Only pure container/summary reads run on the workers; every
// result is replayed in predicate order by the caller, so evaluation
// order, error selection and fallback decisions are serial-identical.
func (e *Engine) precomputeConjunctOwners(preds []xquery.Expr, sums []*storage.SummaryNode) []*conjunctOwners {
	if e.par <= 1 || len(sums) == 0 || len(preds) < 2 {
		return make([]*conjunctOwners, len(preds))
	}
	type job struct {
		idx     int
		rel     *xquery.PathExpr
		op, lit string
	}
	var jobs []job
	for i, pred := range preds {
		cmp, isCmp := pred.(*xquery.Cmp)
		if !isCmp {
			continue
		}
		if rel, lit, op, ok := splitCmp(cmp); ok {
			jobs = append(jobs, job{idx: i, rel: rel, op: op, lit: lit})
		}
	}
	out := make([]*conjunctOwners, len(preds))
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
		pc := &conjunctOwners{}
		pc.owners, pc.ok, pc.err = e.matchOwners(sums, j.rel, j.op, j.lit, inner)
		out[j.idx] = pc
		return nil
	})
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
			// #text summary nodes carry no structural extent (values live
			// in the containers), so instance coverage is measured by the
			// container's record count: one record per instance with text.
			txtCount := txt.Count
			if txt.Container >= 0 {
				if c := e.store.Container(txt.Container); c != nil {
					txtCount = c.Len()
				}
			}
			if txtCount < sn.Count {
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

// predFastPath evaluates predicates of the form  relPath op literal
// (either side) against the containers, in the compressed domain when
// the codec supports the comparison. It returns ok=false when the
// predicate does not have that shape.
func (e *Engine) predFastPath(nodes algebra.NodeSet, sums []*storage.SummaryNode, pred xquery.Expr, env *scope) (algebra.NodeSet, bool, error) {
	cmp, okShape := pred.(*xquery.Cmp)
	if !okShape || len(sums) == 0 {
		return nil, false, nil
	}
	rel, lit, op, ok := splitCmp(cmp)
	if !ok {
		return nil, false, nil
	}
	owners, ok, err := e.matchOwners(sums, rel, op, lit, e.par)
	if err != nil || !ok {
		return nil, ok, err
	}
	return algebra.SemiJoinAncestorPar(e.store, nodes, owners, e.par), true, nil
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

// matchOwners returns the owner nodes (value parents) matching
// `relPath op literal` under the given summary nodes, spending up to
// par workers: one summary path can map to many containers, so the
// per-container matches fan out across the pool, each container scan
// splitting its leftover worker share internally.
func (e *Engine) matchOwners(sums []*storage.SummaryNode, rel *xquery.PathExpr, op, literal string, par int) (algebra.NodeSet, bool, error) {
	conts, complete, ok := e.relValueTarget(sums, rel)
	if !ok {
		return nil, false, nil
	}
	return e.matchOwnersConts(conts, complete, op, literal, par)
}

// matchOwnersConts is the scan half of matchOwners, taking an already
// resolved container set (the bytecode compiler resolves relValueTarget
// statically and calls in here per execution).
func (e *Engine) matchOwnersConts(conts []*storage.Container, complete bool, op, literal string, par int) (algebra.NodeSet, bool, error) {
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
