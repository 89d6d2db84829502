package engine

import (
	"slices"
	"sort"
	"sync/atomic"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// pushdown is a WHERE conjunct statically assigned to a FOR clause: it
// is applied while computing the clause's domain instead of as a
// per-tuple filter. Each pushdown keeps the original conjunct, which the
// compiler also lowers, so a run can fall back to tuple-at-a-time
// evaluation when the compressed-domain shape does not materialize (e.g.
// untracked summary nodes).
type pushdown struct {
	Conj xquery.Expr
	// literal restrict: `$v/rel op literal`, or `fn($v/rel, literal)` with
	// Op the function's name (contains, starts-with, ends-with); Rel is
	// the conjunct's path, whose steps are rel
	IsLit bool
	Rel   *xquery.PathExpr
	Op    string
	Lit   string
	// equality join: $v/relThis = $other/relOther, Other being $other's
	// binder slot (xquery.Clause.Binder), RelThis and RelOther the sides'
	// paths
	Other    int
	RelThis  *xquery.PathExpr
	RelOther *xquery.PathExpr
}

// flworPlan is the static evaluation plan of one FLWOR.
type flworPlan struct {
	Pushdowns map[int][]pushdown // clause index -> pushdowns, in plan order
	Residual  []xquery.Expr      // conjuncts evaluated per tuple
	// Collect and Replay say, per clause, whether a LET of a FLWOR with
	// ORDER BY is evaluated while the tuples are collected and after the
	// sort (orderPhases); nil without ORDER BY.
	Collect, Replay []bool
}

// planFLWOR assigns WHERE conjuncts to FOR clauses; the VM compiler
// lowers every FLWOR's loops from it. Nothing is pushed onto a FOR whose
// domain is no node set (noNodes): no container answers for it, so a
// pushdown would only become a per-tuple test run before the residual
// conjuncts, out of written order.
func planFLWOR(x *xquery.FLWOR) *flworPlan {
	plan := &flworPlan{Pushdowns: map[int][]pushdown{}}
	if x.OrderBy != nil {
		plan.Collect, plan.Replay = orderPhases(x)
	}
	// clause returns the index of the clause of x whose slot is binder, -1
	// when the binder lies outside x. A join pushed onto a clause runs
	// when that clause binds, so its other variable's binder must be an
	// earlier clause or lie outside the FLWOR.
	clause := func(binder int) int {
		for i, c := range x.Clauses {
			if c.Binder == binder {
				return i
			}
		}
		return -1
	}
	pushable := func(ci int) bool { return !x.Clauses[ci].Let && !noNodes(x.Clauses[ci].Seq) }
	forClause := func(p *xquery.PathExpr) (int, bool) {
		ci := clause(p.Binder)
		return ci, ci >= 0 && pushable(ci)
	}
	for _, conj := range splitConjuncts(x.Where) {
		assigned := false
		// literal restrict on a FOR variable of this FLWOR
		for ci, c := range x.Clauses {
			if !pushable(ci) {
				continue
			}
			if rel, lit, op, ok := splitVarPred(conj, c.Binder); ok {
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
				li, lIn := forClause(lp)
				ri, rIn := forClause(rp)
				switch {
				case lIn && clause(rp.Binder) < li:
					plan.Pushdowns[li] = append(plan.Pushdowns[li], pushdown{
						Conj: cmp, Other: rp.Binder, RelThis: lp, RelOther: rp,
					})
					assigned = true
				case rIn && clause(lp.Binder) < ri:
					plan.Pushdowns[ri] = append(plan.Pushdowns[ri], pushdown{
						Conj: cmp, Other: lp.Binder, RelThis: rp, RelOther: lp,
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

// noNodes reports that x evaluates to no node, whatever the store: a
// comparison, a logical or arithmetic expression, a literal, or a
// sequence of them.
func noNodes(x xquery.Expr) bool {
	switch x := x.(type) {
	case *xquery.Cmp, *xquery.Logic, *xquery.Arith, *xquery.StringLit, *xquery.NumberLit:
		return true
	case *xquery.Sequence:
		for _, it := range x.Items {
			if !noNodes(it) {
				return false
			}
		}
		return true
	}
	return false
}

// staticVars is what the compiler knows of a query's variables: the
// summary set of each binder's value, by slot (xquery.Clause.Binder) —
// nil where it is not known, and always at slot 0, a name nothing binds —
// and ctx, the context item's where the compiler stands. A set is known
// when it is not empty: pathOrigin recovers summaries from the actual
// nodes when a binding's are empty, so an empty static set cannot be
// trusted as the origin of a later chain. A set that turns out different
// at run time only costs a path a re-resolution. Slots are the query's
// own, so one staticVars serves the whole compile: a clause writes only
// its slot, and only the references in its scope read it.
type staticVars struct {
	slots [][]*storage.SummaryNode
	ctx   []*storage.SummaryNode
}

// origin returns the summary set of p's origin: its variable's, or the
// context item's; nil for an absolute path.
func (v *staticVars) origin(p *xquery.PathExpr) []*storage.SummaryNode {
	if p.Var == "." {
		return v.ctx
	}
	return v.slots[p.Binder]
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
// partner nodes on "this" side. Built once per join and pair of summary
// sets — by the compiler when both sets are static, else once per run —
// it is what turns the Q8/Q9 correlated nested loops into a
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
// joined: by the merge join on compressed bytes, or by the merge of both
// sides' decoded values (algebra.JoinContainers).
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
// of sums) to the nodes whose value under the restrict's path matches its
// literal, by one container match per run — through ms, the program's
// code automata, when they fit the containers; handled is false when the
// comparison has no container fast path — among them nodes without a
// summary set (bound from a nested FLWOR), which an empty set must not
// prove empty.
func (e *engine) applyLit(r *litRestrict, ms *matchers, cur algebra.NodeSet, sums []*storage.SummaryNode) (algebra.NodeSet, bool, error) {
	if len(sums) == 0 {
		return nil, false, nil
	}
	co, err := e.matchOwners(r, sums, len(cur), ms)
	if err != nil || !co.ok {
		return nil, false, err
	}
	return algebra.SemiJoinIn(sums, cur, co.owners), true, nil
}

// applyJoin restricts cur (the domain of this clause's variable) to the
// join partners of the other variable's current binding, through the
// program's index when it was built for these summary sets and the run's
// own otherwise. When the program's index restricts a cursor that holds
// every instance of sums (ps.whole), the partners are the restriction as
// they stand.
func (e *engine) applyJoin(ps *predSpec, cur algebra.NodeSet, sums []*storage.SummaryNode) (algebra.NodeSet, bool, error) {
	other := e.env.of(ps.other)
	if other == nil || len(other.ids) != 1 || len(other.sums) == 0 || len(sums) == 0 {
		return nil, false, nil
	}
	idx, whole := ps.idx, ps.whole
	if idx == nil || !idx.covers(sums, other.sums) {
		if idx, whole = e.joinIdx[ps.idxSlot], false; idx == nil || !idx.covers(sums, other.sums) {
			var ok bool
			var err error
			if idx, ok, err = e.joinIndexFor(ps.thisRel, ps.otherRel, sums, other.sums); err != nil || !ok {
				return nil, ok, err
			}
			e.joinIdx[ps.idxSlot] = idx
		}
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

// joinIndexFor builds the join index of `$this/thisRel = $other/otherRel`
// for two summary sets. Both sides' values must be one record each
// (valueOf), every node must have its record — a node without one is "",
// which equals the other side's and is in no container — and both sides'
// value owners are placed under their bindings by extent order
// (algebra.Nearest: valueOf resolves values only under summary sets whose
// instances never nest).
func (e *engine) joinIndexFor(thisRel, otherRel []step, sums, otherSums []*storage.SummaryNode) (*joinIndex, bool, error) {
	this, other := e.valueOf(sums, thisRel), e.valueOf(otherSums, otherRel)
	if this.why != "" || other.why != "" || !this.all || !other.all || len(this.conts) == 0 || len(other.conts) == 0 {
		return nil, false, nil
	}
	thisConts, otherConts := this.conts, other.conts
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
	return idx, true, nil
}
