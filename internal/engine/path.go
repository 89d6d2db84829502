package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"xquec/internal/algebra"
	"xquec/internal/compress/alm"
	"xquec/internal/compress/numeric"
	"xquec/internal/storage"
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
	// at, when known, says that nodes is one stretch of one extent:
	// nodes[k] is sums[at.o].Extent[at.i+k].
	at place
}

// place is where a node stands among the extents of a summary set: it
// is sums[o].Extent[i]. The zero place is not known.
type place struct {
	o, i int32
	ok   bool
}

// placeOf finds the place of id among the extents of sums by galloping
// (algebra.Nearest); it is not known when id is no instance of sums.
func placeOf(sums []*storage.SummaryNode, pos []int, id storage.NodeID) place {
	k, i := algebra.Nearest(sums, pos, id)
	if k < 0 || sums[k].Extent[i] != id {
		return place{}
	}
	return place{int32(k), int32(i), true}
}

// allNodes materializes an exact state.
func (st *pathState) allNodes() algebra.NodeSet {
	if st.exact && st.nodes == nil {
		st.nodes = algebra.SummaryAccess(st.sums)
	}
	return st.nodes
}

// pathPlan is the structural part of one path expression resolved
// against the structure summary for one origin summary set. A summary
// node is a full root path, so the plan answers "which extents can hold
// the result" once, and evaluation only intersects them with the
// stretch of document order that belongs to each binding.
type pathPlan struct {
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
// of $b's own region, not in six. reads[o][t] is how the instances of
// targets[o][t] under one instance of from[o] are read, with no search.
type runPlan struct {
	from    []*storage.SummaryNode
	targets [][]*storage.SummaryNode
	reads   [][]reach
	// slot is where the cursor's galloping positions in the from extents
	// start, one per member, for nodes whose place is not known.
	slot int
}

// reach is how a run reads the instances of a target T under the k-th
// instance of an origin S (DESIGN.md, "Containment is extent order"):
// T.Extent[k] when every instance of S has exactly one T along the
// summary chain (one), else T.Extent[off[k]:off[k+1]].
type reach struct {
	one bool
	off []uint32 // |S.Extent|+1 entries; nil when one
	at  int32    // T's index in the summary set the run ends on
}

// span returns the stretch of T.Extent under the k-th instance of S.
func (r *reach) span(k int32) (lo, hi int32) {
	if r.one {
		return k, k + 1
	}
	return int32(r.off[k]), int32(r.off[k+1])
}

// offsetBuilds counts the offset arrays built, for the tests that prove
// a program builds each once.
var offsetBuilds atomic.Int64

// reach derives how a run reads t under s: one per parent when every
// summary node on the chain from t up to s is (OnePerParent, memoized per
// store), else through offsets — one merge of the two extents: off[k] is
// the number of t-instances before the k-th s-instance. Every t-instance
// has exactly one ancestor among the s-instances, which never nest, and
// it is the nearest one before it, so the t-instances under s.Extent[k]
// are those between it and s.Extent[k+1]. The paths the engine resolves
// share the offsets of one pair of summary nodes: the compiler's, every
// run of its program; a run's own, the paths it re-resolves.
func (e *engine) reach(s, t *storage.SummaryNode, at int) reach {
	r := reach{one: true, at: int32(at)}
	for c := t; c != s && r.one; c = c.Parent {
		r.one = c.OnePerParent()
	}
	if r.one {
		return r
	}
	key := [2]*storage.SummaryNode{s, t}
	if r.off = e.offsets[key]; r.off != nil {
		return r
	}
	offsetBuilds.Add(1)
	r.off = make([]uint32, len(s.Extent)+1)
	j := 0
	for k, id := range s.Extent {
		for j < len(t.Extent) && t.Extent[j] < id {
			j++
		}
		r.off[k] = uint32(j)
	}
	r.off[len(s.Extent)] = uint32(len(t.Extent))
	if e.offsets == nil {
		e.offsets = map[[2]*storage.SummaryNode][]uint32{}
	}
	e.offsets[key] = r.off
	e.offBytes += 4 * len(r.off)
	return r
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

// sums returns the summary nodes the structural steps end on.
func (pl *pathPlan) sums() []*storage.SummaryNode {
	if len(pl.targets) == 0 {
		return pl.origin
	}
	return pl.targets[len(pl.targets)-1]
}

// pathCursor is one run's state for one path expression: the plan, the
// galloping positions inside the extents its runs read, and — for plain
// paths — the result.
type pathCursor struct {
	plan     *pathPlan
	pos      []int
	done     bool
	st       pathState
	textTail bool
}

// resolvePath builds the plan of p for an origin summary set.
func (e *engine) resolvePath(p *xquery.PathExpr, sums []*storage.SummaryNode) *pathPlan {
	pl := &pathPlan{origin: sums, plain: p.Var == "", targets: make([][]*storage.SummaryNode, 0, len(p.Steps))}
	cur := sums
	for i, step := range p.Steps {
		if step.Test == xquery.TestText {
			break
		}
		pl.plain = pl.plain && len(step.Preds) == 0
		cur = e.summaryTargets(cur, i == 0 && p.Var == "", step)
		pl.targets = append(pl.targets, cur)
	}
	exact := p.Var == "" // the state a run is entered with is every instance of its origins
	for i, j := 0, 0; i < len(pl.targets); i = j {
		j = runEnd(p.Steps, i)
		// An absolute path's state stays exact up to its first predicate
		// step. A run entered exact starts from the document, or moves the
		// extents as a whole (moveRun) unless a positional predicate picks
		// per parent (predStep): only a run from a node set reads.
		entered := exact
		exact = exact && len(p.Steps[i].Preds) == 0
		if entered && (i == 0 || !slices.ContainsFunc(p.Steps[i].Preds, isPositional)) {
			continue
		}
		from := sums
		if i > 0 {
			from = pl.targets[i-1]
		}
		if pl.runs == nil {
			pl.runs = make([]runPlan, len(pl.targets))
		}
		run := &pl.runs[i]
		run.from, run.slot = from, pl.slots
		pl.slots += len(from)
		run.targets = make([][]*storage.SummaryNode, len(from))
		n := 0
		for o := range from {
			targets := from[o : o+1]
			for k := i; k < j; k++ {
				targets = e.summaryTargets(targets, false, p.Steps[k])
			}
			run.targets[o], n = targets, n+len(targets)
		}
		reads := make([]reach, 0, n)
		run.reads = make([][]reach, len(from))
		for o, targets := range run.targets {
			for _, sn := range targets {
				reads = append(reads, e.reach(from[o], sn, slices.Index(pl.targets[j-1], sn)))
			}
			run.reads[o] = reads[len(reads)-len(targets):]
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
func (e *engine) cursorFor(p *xquery.PathExpr, sums []*storage.SummaryNode) *pathCursor {
	pc := e.paths[p]
	if pc != nil && slices.Equal(pc.plan.origin, sums) {
		return pc
	}
	pl := e.plans[p]
	if pl == nil || !slices.Equal(pl.origin, sums) {
		pl = e.resolvePath(p, sums)
	}
	pc = &pathCursor{plan: pl, pos: make([]int, pl.slots)}
	e.paths[p] = pc
	return pc
}

// evalPath evaluates a path expression to a sequence.
func (e *engine) evalPath(p *xquery.PathExpr, env *scope) (seq, error) {
	return e.appendPath(nil, p, env)
}

// appendPath appends the items of a path expression to dst.
func (e *engine) appendPath(dst seq, p *xquery.PathExpr, env *scope) (seq, error) {
	nodes, sums, textTail, err := e.evalPathNodes(p, env)
	if err != nil {
		return nil, err
	}
	if textTail {
		return e.appendTexts(dst, nodes, sums)
	}
	if dst == nil {
		dst = make(seq, 0, len(nodes))
	}
	for _, id := range nodes {
		dst = append(dst, id)
	}
	return dst, nil
}

// evalPathNodes evaluates the structural part of a path to nodes,
// instances of sums; if the final step is text(), textTail is true and
// the nodes are the text owners. The nodes may alias a summary extent or
// a binding: they are read-only, and valid until the variable is
// rebound.
func (e *engine) evalPathNodes(p *xquery.PathExpr, env *scope) (nodes algebra.NodeSet, sums []*storage.SummaryNode, textTail bool, err error) {
	var st pathState
	if err = e.pathOrigin(p, env, &st); err != nil {
		return nil, nil, false, err
	}
	pc := e.cursorFor(p, st.sums)
	if pc.done {
		return pc.st.nodes, pc.st.sums, pc.textTail, nil
	}
	steps := p.Steps
	for i := 0; i < len(steps); {
		step := &steps[i]
		if step.Test == xquery.TestText {
			if i != len(steps)-1 {
				return nil, nil, false, fmt.Errorf("engine: text() must be the final step")
			}
			if len(step.Preds) > 0 {
				return nil, nil, false, fmt.Errorf("engine: predicates on text() are not supported")
			}
			st.nodes, st.exact, st.at, textTail = e.withText(st.allNodes(), st.sums), false, place{}, true
			break
		}
		j := runEnd(steps, i)
		if len(step.Preds) == 0 {
			e.moveRun(&st, i, j, pc)
		} else if err = e.predStep(&st, steps, i, env, pc); err != nil {
			return nil, nil, false, err
		}
		i = j
	}
	st.allNodes()
	if pc.plan.plain {
		pc.done, pc.st, pc.textTail = true, st, textTail
	}
	return st.nodes, st.sums, textTail, nil
}

// withText restricts nodes, instances of sums, to those that have
// immediate text. Where the summary says every instance has some — the
// rule for a path one asks text() of — that is all of them, and the tree
// is not asked; otherwise only a node without text is copied around.
func (e *engine) withText(nodes algebra.NodeSet, sums []*storage.SummaryNode) algebra.NodeSet {
	all := len(sums) > 0
	for _, sn := range sums {
		all = all && sn.TextCount == sn.Count
	}
	if all {
		return nodes
	}
	for i, id := range nodes {
		if e.store.HasText(&e.cur, id) {
			continue
		}
		out := append(make(algebra.NodeSet, 0, len(nodes)-1), nodes[:i]...)
		for _, id := range nodes[i+1:] {
			if e.store.HasText(&e.cur, id) {
				out = append(out, id)
			}
		}
		return out
	}
	return nodes
}

// pathOrigin resolves the origin of a path: for a variable bound to one
// node, with its place among the extents of its summary set (the FOR
// cursor's, or found once per binding).
func (e *engine) pathOrigin(p *xquery.PathExpr, env *scope, st *pathState) error {
	if p.Var == "" { // absolute: the (single) document
		st.exact = true
		return nil
	}
	if p.Var == "." {
		if env.ctx[0] == 0 {
			return errNonNodePath
		}
		st.nodes, st.sums = env.ctx[:], env.ctxSums
	} else {
		b := env.lookup(p.Var)
		if b == nil {
			return fmt.Errorf("engine: unbound variable $%s", p.Var)
		}
		if st.nodes, st.sums = b.ids, b.sums; st.nodes == nil {
			var ok bool
			if st.nodes, ok = nodeSeq(b.value()); !ok {
				return errNonNodePath
			}
		} else if len(st.nodes) == 1 && len(st.sums) > 0 {
			st.at = b.place()
		}
	}
	if len(st.sums) == 0 && len(st.nodes) > 0 && len(p.Steps) > 0 {
		// The variable was bound from a non-path source (e.g. a nested
		// FLWOR): recover the summary nodes by walking each node's tag
		// path upward.
		st.sums = e.summariesOf(st.nodes)
	}
	return nil
}

// summariesOf returns the distinct summary nodes the given nodes are
// instances of.
func (e *engine) summariesOf(ids algebra.NodeSet) []*storage.SummaryNode {
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
func (e *engine) summaryOf(id storage.NodeID) *storage.SummaryNode {
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
func (e *engine) summaryTargets(sums []*storage.SummaryNode, fromDocument bool, step xquery.Step) []*storage.SummaryNode {
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

// moveRun applies the steps [i, j), a run of the plan, to st: from an
// exact state the targets' extents themselves, from a node set what
// within reads — no intermediate step is evaluated, no child visited and
// no subtree end asked for.
func (e *engine) moveRun(st *pathState, i, j int, pc *pathCursor) {
	if st.exact {
		st.nodes = nil
	} else {
		st.nodes, st.at = e.within(st.nodes, st.at, &pc.plan.runs[i], pc.pos)
	}
	st.sums = pc.plan.targets[j-1]
}

// within returns what a run reaches from nodes, instances of run.from,
// and its place when that is one stretch of one extent. For b =
// S.Extent[k] and a summary node T the run reaches from S, that is the
// T-instances under b, which the run reads at once (reach.span). k is
// at's when nodes is a stretch of an extent whose place is known — a FOR
// binding's, the pick of a positional step — and is found by galloping
// otherwise: the cursors that place b advance with ascending nodes. One
// node and one non-empty stretch yield a sub-slice of that extent;
// anything else is copied.
func (e *engine) within(nodes algebra.NodeSet, at place, run *runPlan, pos []int) (algebra.NodeSet, place) {
	if len(nodes) == 1 && at.ok && len(run.targets[at.o]) == 1 {
		// A bound node and one target, the common case: one read.
		rd := &run.reads[at.o][0]
		if lo, hi := rd.span(at.i); lo < hi {
			return run.targets[at.o][0].Extent[lo:hi], place{rd.at, lo, rd.at >= 0}
		}
		return nil, place{}
	}
	var one, out algebra.NodeSet
	var oneAt place
	sorted := true
	for n, b := range nodes {
		o, k := at.o, at.i+int32(n)
		if !at.ok {
			bp := placeOf(run.from, pos[run.slot:run.slot+len(run.from)], b)
			if !bp.ok {
				continue // not an instance of the origin set: reaches nothing
			}
			o, k = bp.o, bp.i
		}
		mark, pieces := len(out), 0
		for t, sn := range run.targets[o] {
			rd := &run.reads[o][t]
			lo, hi := rd.span(k)
			if lo == hi {
				continue
			}
			r := algebra.NodeSet(sn.Extent[lo:hi])
			if pieces++; len(nodes) == 1 && pieces == 1 {
				one, oneAt = r, place{rd.at, lo, rd.at >= 0}
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
		return one, oneAt
	}
	if !sorted {
		return algebra.SortUnique(out), place{}
	}
	return out, place{}
}

// predStep applies step i, which carries predicates, to st. Positional
// ones select per parent, so the parent set is walked node by node; the
// rest filter the moved set as a whole.
func (e *engine) predStep(st *pathState, steps []xquery.Step, i int, env *scope, pc *pathCursor) error {
	preds, targets := steps[i].Preds, pc.plan.targets[i]
	if len(targets) == 0 {
		*st = pathState{sums: targets}
		return nil
	}
	positional := slices.ContainsFunc(preds, isPositional)
	var nodes algebra.NodeSet
	var err error
	switch {
	case !positional:
		e.moveRun(st, i, i+1, pc)
		nodes, err = e.applyPreds(st.nodes, st.exact, preds, env, targets)
	case i == 0 && st.exact && steps[i].Axis == xquery.AxisChild:
		// The document node has one child, the root: position among it.
		nodes, err = e.applyPreds(algebra.NodeSet{1}, false, preds, env, nil)
	case i == 0 && st.exact:
		// The document node is the one origin: position among all the
		// descendants the step matches.
		nodes, err = e.applyPreds(algebra.SummaryAccess(targets), false, preds, env, targets)
	case len(preds) == 1 && len(st.allNodes()) == 1:
		// One parent and one position, Q2's and Q3's bidder[1] and
		// bidder[last()]: an index into the stretch the parent reaches,
		// which keeps its place.
		kids, at := e.within(st.nodes, st.at, &pc.plan.runs[i], pc.pos)
		k, _ := position(len(kids), preds[0])
		*st = pathState{sums: targets}
		if k >= 0 {
			st.nodes, st.at = kids[k:k+1], place{at.o, at.i + int32(k), at.ok}
		}
		return nil
	default:
		parents := st.allNodes()
		var out []storage.NodeID
		for k := range parents {
			at := st.at
			at.i += int32(k)
			kids, _ := e.within(parents[k:k+1], at, &pc.plan.runs[i], pc.pos)
			if kids, err = e.applyPreds(kids, false, preds, env, targets); err != nil {
				break
			}
			if len(parents) == 1 {
				out = kids // a sub-slice of an extent: never written to
				break
			}
			out = append(out, kids...)
		}
		nodes = algebra.SortUnique(out)
	}
	*st = pathState{nodes: nodes, sums: targets}
	return err
}

// position returns the index among n candidates that a positional
// predicate (an integer literal or last()) picks, -1 for none; is
// reports whether pred is one.
func position(n int, pred xquery.Expr) (k int, is bool) {
	switch p := pred.(type) {
	case *xquery.NumberLit:
		if idx := int(p.Val); idx >= 1 && idx <= n {
			return idx - 1, true
		}
		return -1, true
	case *xquery.Call:
		if p.Name == "last" {
			return n - 1, true
		}
	}
	return -1, false
}

// isPositional reports that pred is a positional predicate.
func isPositional(pred xquery.Expr) bool {
	_, is := position(0, pred)
	return is
}

// pickPositional applies a positional predicate (an integer literal or
// last()) to cur; is reports whether pred is one.
func pickPositional(cur algebra.NodeSet, pred xquery.Expr) (sel algebra.NodeSet, is bool) {
	k, is := position(len(cur), pred)
	switch {
	case !is:
		return cur, false
	case k < 0:
		return nil, true
	}
	return cur[k : k+1], true
}

// applyPreds filters candidate nodes, instances of sums, by the step
// predicates, in order. all says that the candidates are every instance
// of sums and that nodes, nil, does not spell them out: a container match
// then goes from the matching values to their instances directly, and the
// candidates are materialized only if some predicate has to see them.
func (e *engine) applyPreds(nodes algebra.NodeSet, all bool, preds []xquery.Expr, env *scope, sums []*storage.SummaryNode) (algebra.NodeSet, error) {
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
	domain := len(nodes)
	if all {
		domain = 0
		for _, sn := range sums {
			domain += len(sn.Extent)
		}
	}
	for _, pred := range preds {
		// Value predicate: container fast path, else per-node.
		co, err := e.predOwners(sums, pred, domain)
		if err != nil {
			return nil, err
		}
		if co.ok {
			// The owners are values below sums, whose instances never nest
			// (litTargets resolves nothing else): extent order alone
			// places each under its instance.
			if all {
				cur, all = algebra.AncestorsIn(sums, co.owners), false
			} else {
				cur = algebra.SemiJoinIn(sums, cur, co.owners)
			}
			domain = len(cur)
			continue
		}
		if all {
			cur, all = algebra.SummaryAccess(sums), false
		}
		if sel, is := pickPositional(cur, pred); is {
			cur = sel
			domain = len(cur)
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
		domain = len(cur)
	}
	if all {
		cur = algebra.SummaryAccess(sums)
	}
	return cur, nil
}

// conjunctOwners is one literal restrict resolved under a summary set:
// the containers that answer it (litTargets) and, once they are scanned,
// the owners of the matching values. The engine keeps one per restrict
// and run (engine.owners), so a literal restrict inside a nested FLWOR, a
// non-first clause or a step predicate of a relative path resolves and
// scans its containers once per run, not once per outer tuple.
type conjunctOwners struct {
	sums    []*storage.SummaryNode
	conts   []*storage.Container
	fast    bool // the containers answer the restrict
	records int  // the containers' records: what a decoding scan decodes
	// ms are the code automata the scan runs (matchers), aligned with
	// conts; built before the first scan.
	ms     []*alm.Matcher
	owners algebra.NodeSet
	ok     bool // owners is the restrict's answer
}

var noOwners = &conjunctOwners{}

// restrictFor returns this run's resolution of the literal restrict conj,
// `rel op literal` under sums, resolving it when conj was not yet asked
// under that summary set.
func (e *engine) restrictFor(conj xquery.Expr, sums []*storage.SummaryNode, rel *xquery.PathExpr, op, literal string) *conjunctOwners {
	if co := e.owners[conj]; co != nil && slices.Equal(co.sums, sums) {
		return co
	}
	co := &conjunctOwners{sums: sums}
	var why string
	co.conts, _, why = e.litTargets(sums, rel, op, literal)
	co.fast = why == ""
	for _, c := range co.conts {
		co.records += c.Len()
	}
	e.owners[conj] = co
	return co
}

// worthScanning reports that a scan of co's containers answers the
// restrict over a domain of that many candidates without reading more
// than evaluating it per candidate would: a string function reads every
// record — decoding it, or running its code automaton over it — so it is
// scanned only when there are no more records than candidates. A
// comparison's scan searches the compressed domain, or
// decodes once per run what every outer tuple would decode again.
func (co *conjunctOwners) worthScanning(op string, domain int) bool {
	return co.fast && !co.ok && (stringFunc(op) == nil || co.records <= domain)
}

// matchers makes sure co holds the code automata its scan runs: pre's,
// the program's, when they were built for co's containers, else this
// run's own, built once.
func (co *conjunctOwners) matchers(op, literal string, pre *matchers) {
	if co.ms != nil || stringFunc(op) == nil {
		return
	}
	if co.ms = pre.tables(co.conts); co.ms == nil {
		co.ms = buildMatchers(co.conts, op, literal).tables(co.conts)
	}
}

// splitPredConjuncts flattens an AND tree inside a step predicate. A
// number or last() in the tree is a boolean there, not a position, so a
// tree holding one stays whole.
func splitPredConjuncts(pred xquery.Expr) []xquery.Expr {
	l, isLogic := pred.(*xquery.Logic)
	if !isLogic || l.Op != "and" {
		return []xquery.Expr{pred}
	}
	out := append(splitPredConjuncts(l.Left), splitPredConjuncts(l.Right)...)
	for _, c := range out {
		if _, is := pickPositional(nil, c); is {
			return []xquery.Expr{pred}
		}
	}
	return out
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
func (e *engine) relValueTarget(sums []*storage.SummaryNode, p *xquery.PathExpr) (conts []*storage.Container, complete bool, ok bool) {
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

// litTargets resolves the literal restrict `rel op literal` — op a
// comparison operator or a string function — under sums to the
// containers whose scan answers it. why, when not empty, says why no scan
// does, and the restrict is evaluated per candidate. complete is false
// when some instance has no value in the containers, which only
// equality against a non-empty literal allows.
func (e *engine) litTargets(sums []*storage.SummaryNode, rel *xquery.PathExpr, op, literal string) (conts []*storage.Container, complete bool, why string) {
	if len(sums) == 0 {
		return nil, false, "no summary set"
	}
	if stringFunc(op) != nil {
		conts, why = e.stringTargets(sums, rel)
		return conts, true, why
	}
	conts, complete, ok := e.relValueTarget(sums, rel)
	switch {
	case !ok:
		return nil, false, "the value is not one container's: element content, a predicate or nesting bindings"
	case op == "=" && literal == "":
		// "" never appears in the containers (empty text nodes are not
		// recorded).
		return nil, complete, `"" is in no container`
	case !complete && op != "=":
		// An instance without a text value still atomizes to the string
		// "" (an empty element's string value), which matches != and
		// <-style comparisons — but has no container record.
		return nil, complete, "some instances have no value, which only = answers"
	}
	return conts, complete, ""
}

// stringTargets resolves the path of a string-function restrict under
// sums to the containers holding the string value of each instance's rel
// node, when that value is at most one record — so a scan that tests each
// record once tests every instance's value. It checks, on the summary and
// the extents, that each instance has at most one rel node (the per-tuple
// evaluation reads the first), and that the string value of that node is
// at most one record: a single #text below it in the summary, at most one
// child per parent along the chain down to it, and one record per owner.
// A rel node without text has the value "", which no non-empty literal
// matches. why says which condition fails.
func (e *engine) stringTargets(sums []*storage.SummaryNode, rel *xquery.PathExpr) ([]*storage.Container, string) {
	if !antichain(sums) {
		return nil, "the bindings nest"
	}
	cur, textTail := sums, false
	for i, step := range rel.Steps {
		switch {
		case len(step.Preds) > 0:
			return nil, "a step has a predicate"
		case step.Axis != xquery.AxisChild:
			return nil, "a step is not a child step"
		case step.Test == xquery.TestText && i < len(rel.Steps)-1:
			return nil, "text() is not the last step"
		case step.Test == xquery.TestText:
			textTail = true
			continue
		}
		next := e.summaryTargets(cur, false, step)
		for k, sn := range next {
			if k > 0 && next[k-1].Parent == sn.Parent {
				return nil, "a step matches several paths"
			}
			if !isAttr(sn) && !algebra.DistinctParents(sn.Extent, sn.Parent.Extent) {
				return nil, sn.Path() + " repeats under one parent"
			}
		}
		cur = next
	}
	var conts []*storage.Container
	for _, sn := range cur {
		txt := sn
		if !isAttr(sn) {
			var why string
			if txt, why = soleText(sn, textTail); why != "" {
				return nil, why
			}
		}
		if txt == nil || txt.Container < 0 {
			continue // every value is ""
		}
		c := e.store.Container(txt.Container)
		if !isAttr(txt) && c.Len() > txt.Parent.TextCount {
			return nil, txt.Parent.Path() + " has several text records under one node"
		}
		conts = append(conts, c)
	}
	return conts, ""
}

// soleText returns the summary node of the text that is the string value
// of an instance of sn — its immediate text when immediate — nil when no
// instance has any. why says that the value may be several text nodes:
// text below sn at two paths, or an element on the way down to it that
// repeats under its parent.
func soleText(sn *storage.SummaryNode, immediate bool) (txt *storage.SummaryNode, why string) {
	var walk func(n *storage.SummaryNode) bool
	walk = func(n *storage.SummaryNode) bool {
		for _, c := range n.Children {
			switch {
			case c.Tag == "#text" && txt != nil:
				return false
			case c.Tag == "#text":
				txt = c
			case !immediate && !isAttr(c) && !walk(c):
				return false
			}
		}
		return true
	}
	if !walk(sn) {
		return nil, sn.Path() + " has text at several paths"
	}
	if txt == nil {
		return nil, ""
	}
	for p := txt.Parent; p != sn; p = p.Parent {
		if !algebra.DistinctParents(p.Extent, p.Parent.Extent) {
			return nil, p.Path() + " repeats under one parent"
		}
	}
	return txt, ""
}

func isAttr(sn *storage.SummaryNode) bool { return strings.HasPrefix(sn.Tag, "@") }

// predOwners evaluates a step predicate that is a literal restrict
// (splitVarPred on the context) against the containers, over a domain of
// that many candidates. Its ok is false when the predicate has another
// shape, or the containers do not answer it.
func (e *engine) predOwners(sums []*storage.SummaryNode, pred xquery.Expr, domain int) (*conjunctOwners, error) {
	if len(sums) == 0 {
		return noOwners, nil
	}
	rel, lit, op, ok := splitVarPred(pred, ".")
	if !ok {
		return noOwners, nil
	}
	return e.matchOwners(pred, sums, rel, op, lit, domain, nil)
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
// literal restrict conj, `rel op literal`, under the given summary nodes
// over a domain of that many candidates: this run's earlier answer when
// conj was scanned under the same summary set before, else a scan of its
// containers when it is worth one (worthScanning). ok is false when
// there is no answer, and conj is evaluated per candidate.
func (e *engine) matchOwners(conj xquery.Expr, sums []*storage.SummaryNode, rel *xquery.PathExpr, op, literal string, domain int, pre *matchers) (*conjunctOwners, error) {
	co := e.restrictFor(conj, sums, rel, op, literal)
	if co.ok {
		return co, nil
	}
	if !co.worthScanning(op, domain) {
		return noOwners, nil
	}
	co.matchers(op, literal, pre)
	owners, ok, err := e.scanTargets(co.conts, co.ms, op, literal)
	if err != nil {
		return nil, err
	}
	if !ok {
		return noOwners, nil
	}
	co.owners, co.ok = owners, true
	return co, nil
}

// scanTargets matches the containers of a literal restrict, one after
// the other (one summary path can map to many containers), and unites
// their owners.
func (e *engine) scanTargets(conts []*storage.Container, ms []*alm.Matcher, op, literal string) (algebra.NodeSet, bool, error) {
	var all []algebra.NodeSet
	for i, c := range conts {
		var m *alm.Matcher
		if ms != nil {
			m = ms[i]
		}
		owners, ok, err := e.containerMatch(c, op, literal, m)
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

// access is how a literal restrict reads one container: the paper's
// ContAccess on compressed bytes (equality, or an interval of the value
// order), a binary search that decodes O(log n) records where the codec
// does not preserve order but the records are in value order, a ContScan
// that runs a code automaton over each record's compressed bytes, or a
// ContScan that decodes every record.
type access uint8

const (
	accessScan access = iota
	accessEq
	accessRange
	accessSearch
	accessMatch
)

func (a access) String() string {
	switch a {
	case accessEq:
		return "ContAccess eq on compressed bytes"
	case accessRange:
		return "ContAccess range on compressed bytes"
	case accessSearch:
		return "ContAccess range by binary search decoding"
	case accessMatch:
		return "ContScan matching on compressed bytes"
	}
	return "ContScan decoding every record"
}

// accessFor decides how containerMatch answers `value op literal` over
// c, and returns the probe it compares with: the literal in c's
// canonical value text, nil when the literal has none and a scan
// compares atoms. String containers compared against numeric literals
// follow numeric semantics per value ("40.0" = 40), which no probe
// answers. why, for a decoding scan of contains or ends-with, says why no
// code automaton reads the compressed bytes instead.
func accessFor(c *storage.Container, op, literal string) (access access, probe []byte, why string) {
	switch op {
	case "contains", "ends-with":
		return matchAccess(c, literal)
	case "starts-with":
		// The values with prefix P are the interval [P, succ(P)) of the
		// byte order, which is a string container's record order.
		if c.Kind != storage.KindString {
			return accessScan, nil, ""
		}
		if c.Codec().Props().OrderPreserving {
			return accessRange, []byte(literal), ""
		}
		return accessSearch, []byte(literal), ""
	}
	if _, litIsNum := parseNum(literal); c.Kind == storage.KindString && litIsNum {
		return accessScan, nil, ""
	}
	probe, exact := canonicalProbe(c, literal)
	props := c.Codec().Props()
	switch {
	case !exact:
		return accessScan, nil, ""
	case op == "=" && props.Eq:
		return accessEq, probe, ""
	case op == "=" || op == "!=":
		return accessScan, probe, ""
	case props.OrderPreserving:
		return accessRange, probe, ""
	}
	return accessSearch, probe, ""
}

// matchAccess is accessFor of contains and ends-with: a code automaton
// where the codec has one, the literal fits it and its table is no larger
// than the container it scans.
func matchAccess(c *storage.Container, literal string) (access, []byte, string) {
	codec, isALM := c.Codec().(*alm.Codec)
	switch {
	case !isALM:
		return accessScan, nil, c.Codec().Name() + " has no code automaton"
	case len(literal) > alm.MaxMatchLiteral:
		return accessScan, nil, fmt.Sprintf("the literal is longer than %d bytes", alm.MaxMatchLiteral)
	}
	if tab, size := codec.MatcherBytes(len(literal)), c.CompressedBytes(); tab > size {
		return accessScan, nil, fmt.Sprintf("a %d B automaton exceeds the %d B container", tab, size)
	}
	return accessMatch, nil, ""
}

// prefixEnd returns succ(p), the least byte string above every string
// with prefix p: p without its trailing 0xFF bytes, the last byte left
// incremented. nil, when every byte of p is 0xFF, is no upper bound.
func prefixEnd(p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xff {
			end := slices.Clone(p[:i+1])
			end[i]++
			return end
		}
	}
	return nil
}

// containerMatch evaluates `value op literal` over one container the way
// accessFor decides. m is the container's code automaton of the literal
// where accessFor reads it by accessMatch (buildMatchers), else nil.
func (e *engine) containerMatch(c *storage.Container, op, literal string, m *alm.Matcher) (algebra.NodeSet, bool, error) {
	if m != nil {
		owners, err := algebra.ContMatch(c, m.Match)
		return owners, err == nil, err
	}
	var owners algebra.NodeSet
	var err error
	switch access, probe, _ := accessFor(c, op, literal); {
	case access == accessEq:
		owners, err = algebra.ContEq(c, probe)
	case access == accessRange || access == accessSearch:
		// ContRange searches the compressed bytes, or decodes its way
		// through a binary search when the codec does not keep order.
		lo, hi := probe, probe
		switch {
		case op == "starts-with":
			hi = prefixEnd(probe)
		case op[0] == '<':
			lo = nil
		default:
			hi = nil
		}
		owners, err = algebra.ContRange(c, lo, op == ">=" || op == "starts-with", hi, op == "<=")
	case stringFunc(op) != nil:
		test, lit := stringFunc(op), []byte(literal)
		owners, err = algebra.ContFilter(c, func(plain []byte) bool { return test(plain, lit) })
	case op == "=" && probe != nil:
		owners, err = algebra.ContFilter(c, func(plain []byte) bool { return bytes.Equal(plain, probe) })
	default:
		owners, err = algebra.ContFilter(c, func(plain []byte) bool {
			return compareAtoms(op, string(plain), literal)
		})
	}
	return owners, err == nil, err
}

// matchers are the code automata of one literal restrict over its
// containers, aligned with them: one for each container accessFor reads
// by accessMatch, nil for the others. A compiled program builds them once
// for its static summary sets and shares them across its runs; a run
// whose restrict resolves to other containers builds its own.
type matchers struct {
	conts []*storage.Container
	ms    []*alm.Matcher
	size  int
}

// buildMatchers builds the matchers of `rel op literal` over conts, nil
// when no container is read by accessMatch. Containers sharing a codec
// share one matcher.
func buildMatchers(conts []*storage.Container, op, literal string) *matchers {
	var out *matchers
	for i, c := range conts {
		if access, _, _ := accessFor(c, op, literal); access != accessMatch {
			continue
		}
		if out == nil {
			out = &matchers{conts: conts, ms: make([]*alm.Matcher, len(conts))}
		}
		for j := range i {
			if out.ms[j] != nil && conts[j].Codec() == c.Codec() {
				out.ms[i] = out.ms[j]
				break
			}
		}
		if out.ms[i] != nil {
			continue
		}
		// accessMatch admits the literals Matcher takes.
		m, _ := c.Codec().(*alm.Codec).Matcher([]byte(literal), op == "ends-with")
		out.ms[i], out.size = m, out.size+m.SizeBytes()
	}
	return out
}

// tables returns the matchers when they were built for conts, nil
// otherwise.
func (m *matchers) tables(conts []*storage.Container) []*alm.Matcher {
	if m == nil || !slices.Equal(m.conts, conts) {
		return nil
	}
	return m.ms
}

// sizeBytes is the size of the matchers' tables, for the plan cache.
func (m *matchers) sizeBytes() int {
	if m == nil {
		return 0
	}
	return m.size
}

func parseNum(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f, err == nil
}

// parseNumBytes is parseNum on bytes. The string conversion does not
// escape, so a number of up to 32 bytes is parsed without allocating.
func parseNumBytes(b []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(bytes.TrimSpace(b)), 64)
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
		// The codec holds the scale every value of the container shares.
		dc, isDecimal := c.Codec().(numeric.DecimalCodec)
		if !isDecimal {
			return nil, false
		}
		s := strconv.FormatFloat(f, 'f', dc.Scale, 64)
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
