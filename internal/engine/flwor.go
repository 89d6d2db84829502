package engine

import (
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// pushdown is a WHERE conjunct statically assigned to a FOR clause: it
// is applied while computing the clause's domain instead of as a
// per-tuple filter. Each pushdown keeps the original conjunct so the
// runtime can fall back to tuple-at-a-time evaluation when the
// compressed-domain shape does not materialize (e.g. untracked summary
// nodes).
type pushdown struct {
	Conj xquery.Expr
	// literal restrict: `$v/rel op literal`, or `fn($v/rel, literal)` with
	// Op the function's name (contains, starts-with, ends-with)
	IsLit bool
	Rel   *xquery.PathExpr
	Op    string
	Lit   string
	// equality join: $v/relThis = $other/relOther
	OtherVar string
	RelThis  *xquery.PathExpr
	RelOther *xquery.PathExpr
}

// flworPlan is the static evaluation plan of one FLWOR.
type flworPlan struct {
	Pushdowns map[int][]pushdown // clause index -> pushdowns, in plan order
	Residual  []xquery.Expr      // conjuncts evaluated per tuple
	// Collect and Replay say, per clause, whether a LET of a FLWOR with
	// ORDER BY is evaluated while the tuples are collected and after the
	// sort (orderPhases); nil without ORDER BY. hides: a replayed LET
	// refers to a name that only it or a later clause binds.
	Collect, Replay []bool
	hides           bool
}

// planFLWOR assigns WHERE conjuncts to FOR clauses; the VM compiler
// lowers every FLWOR's loops from it.
func planFLWOR(x *xquery.FLWOR) *flworPlan {
	plan := &flworPlan{Pushdowns: map[int][]pushdown{}}
	if x.OrderBy != nil {
		plan.Collect, plan.Replay, plan.hides = orderPhases(x)
	}
	// clauseOf: the FOR clause binding each name last; boundAt: the
	// clause, FOR or LET, binding it last. A join pushed onto a clause
	// runs when that clause binds, so its other variable must be bound by
	// an earlier clause or outside the FLWOR — not by the clause itself
	// or a later one, which would leave it unbound, or bound to what it
	// shadows.
	clauseOf, boundAt := map[string]int{}, map[string]int{}
	for i, c := range x.Clauses {
		if !c.Let {
			clauseOf[c.Var] = i
		}
		boundAt[c.Var] = i
	}
	before := func(name string, ci int) bool {
		bi, bound := boundAt[name]
		return !bound || bi < ci
	}
	for _, conj := range splitConjuncts(x.Where) {
		assigned := false
		// literal restrict on a FOR variable of this FLWOR
		for v, ci := range clauseOf {
			if rel, lit, op, ok := splitVarPred(conj, v); ok {
				plan.Pushdowns[ci] = append(plan.Pushdowns[ci], pushdown{
					Conj: conj, IsLit: true, Rel: rel, Op: op, Lit: lit,
				})
				assigned = true
				break
			}
		}
		cmp, isCmp := conj.(*xquery.Cmp)
		if assigned || !isCmp {
			if !assigned {
				plan.Residual = append(plan.Residual, conj)
			}
			continue
		}
		// equality join between two variables' paths
		if cmp.Op == "=" {
			lp, lok := cmp.Left.(*xquery.PathExpr)
			rp, rok := cmp.Right.(*xquery.PathExpr)
			if lok && rok && lp.Var != "" && rp.Var != "" && lp.Var != "." && rp.Var != "." {
				li, lIn := clauseOf[lp.Var]
				ri, rIn := clauseOf[rp.Var]
				switch {
				case lIn && (!rIn || li >= ri) && before(rp.Var, li):
					plan.Pushdowns[li] = append(plan.Pushdowns[li], pushdown{
						Conj: cmp, OtherVar: rp.Var,
						RelThis:  &xquery.PathExpr{Var: ".", Steps: lp.Steps},
						RelOther: &xquery.PathExpr{Var: ".", Steps: rp.Steps},
					})
					assigned = true
				case rIn && before(lp.Var, ri):
					plan.Pushdowns[ri] = append(plan.Pushdowns[ri], pushdown{
						Conj: cmp, OtherVar: lp.Var,
						RelThis:  &xquery.PathExpr{Var: ".", Steps: rp.Steps},
						RelOther: &xquery.PathExpr{Var: ".", Steps: lp.Steps},
					})
					assigned = true
				}
			}
		}
		if !assigned {
			plan.Residual = append(plan.Residual, conj)
		}
	}
	return plan
}

// pathPlans is what is derivable once per query and not per run: the
// resolved plan of each path whose origin summary set is static. The
// compiler fills one per program; runs only read it, so any number of
// them share it.
type pathPlans map[*xquery.PathExpr]*pathPlan

// sizeBytes estimates the resident size of the plans, for the plan
// cache's byte accounting: a few slices of summary-node pointers each.
func (pl pathPlans) sizeBytes() int { return 192 * len(pl) }

// planExpr records in pl the plan of every path under x, and returns the
// summary set of x's value when that is static (a path without a text()
// tail, a variable). vars gives the summary sets of the variables in
// scope, "." for the context; a set that turns out different at run time
// only costs that path a re-resolution, so an unknown variable may simply
// be absent. A FLWOR under x is not entered: it is handed to nested with
// the summary sets in scope where it stands (a map of its own), for the
// compiler to make a sub-program of.
func (e *engine) planExpr(pl pathPlans, x xquery.Expr, vars map[string][]*storage.SummaryNode, nested func(*xquery.FLWOR, map[string][]*storage.SummaryNode)) []*storage.SummaryNode {
	switch x := x.(type) {
	case *xquery.VarRef:
		return vars[x.Name]
	case *xquery.PathExpr:
		plan := e.resolvePath(x, vars[x.Var])
		pl[x] = plan
		for i, step := range x.Steps {
			if len(step.Preds) > 0 && i < len(plan.targets) {
				inner := cloneVars(vars)
				inner["."] = plan.targets[i]
				for _, pred := range step.Preds {
					e.planExpr(pl, pred, inner, nested)
				}
			}
		}
		if len(plan.targets) < len(x.Steps) {
			return nil // text() tail: the value is strings
		}
		return plan.sums()
	case *xquery.FLWOR:
		nested(x, cloneVars(vars))
		return nil
	}
	for _, sub := range xquery.Children(x) {
		e.planExpr(pl, sub, vars, nested)
	}
	return nil
}

func cloneVars(vars map[string][]*storage.SummaryNode) map[string][]*storage.SummaryNode {
	out := make(map[string][]*storage.SummaryNode, len(vars)+1)
	maps.Copy(out, vars)
	return out
}

// sortedOrder returns the stable ORDER BY permutation of keys. The
// comparison is decided once per sort — numeric when every key is a
// number, plain string order otherwise — because a per-pair choice is
// not an order on mixed keys ("2" < "10" < "1a" < "2").
func sortedOrder(keys []string, desc bool) []int {
	order := make([]int, len(keys))
	nums := make([]float64, len(keys))
	numeric := true
	for i, k := range keys {
		order[i] = i
		if numeric { // the first non-number settles it; a failed parse allocates its error
			f, ok := parseNum(k)
			nums[i], numeric = f, ok && f == f
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if desc {
			a, b = b, a
		}
		if numeric {
			return nums[order[a]] < nums[order[b]]
		}
		return keys[order[a]] < keys[order[b]]
	})
	return order
}

// joinIndex maps nodes of the "other" side of an equality join to their
// partner nodes on "this" side. Built once per comparison and pair of
// summary sets — by the compiler when both sets are static, else once
// per run — it is what turns the Q8/Q9 correlated nested loops into a
// single container join. It is keyed by extent ordinal: the instances
// of otherSums[k] are numbered first[k], first[k]+1, … in extent order,
// and the partners of the instance numbered o are
// partners[start[o]:start[o+1]], in document order. It is read-only once
// built, so any number of runs share it.
type joinIndex struct {
	sums, otherSums []*storage.SummaryNode
	first           []int
	start           []int32
	partners        algebra.NodeSet
	joins           []containerJoin // what JoinContainers did, per pair
}

// containerJoin records how one pair of containers of a join index was
// joined: by the compressed merge join, or by decoding both into a hash
// join (algebra.JoinContainers).
type containerJoin struct {
	This, Other *storage.Container
	Merged      bool
}

// joinIndexBuilds counts the join indexes built, for the tests that
// prove a program builds its static ones once.
var joinIndexBuilds atomic.Int64

// sizeBytes is the index's resident size: a 4-byte node per partner, a
// 4-byte start per ordinal and a record per pair of containers.
func (idx *joinIndex) sizeBytes() int {
	return 4*len(idx.partners) + 4*len(idx.start) + 24*len(idx.joins)
}

// covers reports that the index was built for these summary sets.
func (idx *joinIndex) covers(sums, otherSums []*storage.SummaryNode) bool {
	return slices.Equal(idx.sums, sums) && slices.Equal(idx.otherSums, otherSums)
}

// partnersOf returns the partners of one binding of the other variable,
// at its place among the extents of otherSums: a read-only window of the
// index (capped, so appending to it copies).
func (idx *joinIndex) partnersOf(at place) algebra.NodeSet {
	if !at.ok {
		return nil
	}
	o := idx.first[at.o] + int(at.i)
	return idx.partners[idx.start[o]:idx.start[o+1]:idx.start[o+1]]
}

// applyLit restricts cur (the domain of this clause's variable, instances
// of sums) to the nodes whose value under the pushdown's path matches its
// literal, by one container match per run — through ms, the program's
// code automata, when they fit the containers; handled is false when the
// comparison has no container fast path — among them nodes without a
// summary set (bound from a nested FLWOR), which an empty set must not
// prove empty.
func (e *engine) applyLit(pd pushdown, ms *matchers, cur algebra.NodeSet, sums []*storage.SummaryNode) (algebra.NodeSet, bool, error) {
	if len(sums) == 0 {
		return nil, false, nil
	}
	co, err := e.matchOwners(pd.Conj, sums, pd.Rel, pd.Op, pd.Lit, len(cur), ms)
	if err != nil || !co.ok {
		return nil, false, err
	}
	return algebra.SemiJoinIn(sums, cur, co.owners), true, nil
}

// applyJoin restricts cur (the domain of this clause's variable) to the
// join partners of the other variable's current binding, through idx
// when it was built for these summary sets and the run's own index
// otherwise. whole says cur is every instance of sums, so the partners
// are the restriction as they stand.
func (e *engine) applyJoin(pd pushdown, idx *joinIndex, whole bool, cur algebra.NodeSet, sums []*storage.SummaryNode, env *scope) (algebra.NodeSet, bool, error) {
	other := env.lookup(pd.OtherVar)
	if other == nil || len(other.ids) != 1 || len(other.sums) == 0 || len(sums) == 0 {
		return nil, false, nil
	}
	if idx == nil || !idx.covers(sums, other.sums) {
		var ok bool
		var err error
		if idx, ok, err = e.joinIndexFor(pd, sums, other.sums); err != nil || !ok {
			return nil, ok, err
		}
		whole = false
	}
	// The binding's place is the one its relative paths read at, found
	// once per binding where its cursor did not know it.
	partners := idx.partnersOf(other.place())
	if whole {
		return partners, true, nil
	}
	// The partners are usually a tiny subset of the clause domain: probe
	// them into cur by galloping instead of a full linear merge.
	var out algebra.NodeSet
	pos := 0
	for _, m := range partners {
		if len(algebra.Within(cur, m, m, &pos)) > 0 {
			out = append(out, m)
		}
	}
	return out, true, nil
}

// joinIndexFor builds (or reuses) the join index for a comparison. Both
// sides' value owners are placed under their bindings by extent order
// (algebra.Nearest: relValueTarget resolves containers only under summary
// sets whose instances never nest).
func (e *engine) joinIndexFor(pd pushdown, sums, otherSums []*storage.SummaryNode) (*joinIndex, bool, error) {
	if idx, ok := e.joinIdx[pd.Conj]; ok && idx.covers(sums, otherSums) {
		return idx, true, nil
	}
	thisConts, _, ok1 := e.relValueTarget(sums, pd.RelThis)
	otherConts, _, ok2 := e.relValueTarget(otherSums, pd.RelOther)
	if !ok1 || !ok2 || len(thisConts) == 0 || len(otherConts) == 0 {
		return nil, false, nil
	}
	joinIndexBuilds.Add(1)
	idx := &joinIndex{sums: sums, otherSums: otherSums, first: make([]int, len(otherSums))}
	n := 0
	for k, sn := range otherSums {
		idx.first[k] = n
		n += len(sn.Extent)
	}
	// One (other ordinal, this node) link per joined value pair, counted
	// into start while they are collected.
	type link struct {
		o int32
		t storage.NodeID
	}
	var links []link
	idx.start = make([]int32, n+1)
	for _, tc := range thisConts {
		for _, oc := range otherConts {
			pairs, merged, err := algebra.JoinContainers(tc, oc)
			if err != nil {
				return nil, false, err
			}
			idx.joins = append(idx.joins, containerJoin{tc, oc, merged})
			for _, p := range pairs {
				tk, ti := algebra.Nearest(sums, nil, p.A)
				ok, oi := algebra.Nearest(otherSums, nil, p.B)
				if tk >= 0 && ok >= 0 {
					o := int32(idx.first[ok] + oi)
					links = append(links, link{o, sums[tk].Extent[ti]})
					idx.start[o+1]++
				}
			}
		}
	}
	// Bucket the links by ordinal, then sort and deduplicate every bucket
	// in place, closing the gaps the duplicates leave.
	for o := 0; o < n; o++ {
		idx.start[o+1] += idx.start[o]
	}
	idx.partners = make(algebra.NodeSet, len(links))
	fill := slices.Clone(idx.start[:n])
	for _, l := range links {
		idx.partners[fill[l.o]] = l.t
		fill[l.o]++
	}
	w, lo := int32(0), idx.start[0]
	for o := 0; o < n; o++ {
		hi := idx.start[o+1]
		bucket := algebra.SortUnique(idx.partners[lo:hi])
		idx.start[o] = w
		w += int32(copy(idx.partners[w:], bucket))
		lo = hi
	}
	idx.start[n] = w
	if e.joinIdx == nil {
		e.joinIdx = map[xquery.Expr]*joinIndex{}
	}
	e.joinIdx[pd.Conj] = idx
	return idx, true, nil
}
