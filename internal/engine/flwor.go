package engine

import (
	"maps"
	"slices"
	"sort"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Pushdown is a WHERE conjunct statically assigned to a FOR clause: it
// is applied while computing the clause's domain instead of as a
// per-tuple filter. Each pushdown keeps the original conjunct so the
// runtime can fall back to tuple-at-a-time evaluation when the
// compressed-domain shape does not materialize (e.g. untracked summary
// nodes).
type Pushdown struct {
	Conj *xquery.Cmp
	// literal comparison: $v/rel op literal
	IsLit bool
	Rel   *xquery.PathExpr
	Op    string
	Lit   string
	// equality join: $v/relThis = $other/relOther
	OtherVar string
	RelThis  *xquery.PathExpr
	RelOther *xquery.PathExpr
}

// FLWORPlan is the static evaluation plan of one FLWOR.
type FLWORPlan struct {
	Pushdowns map[int][]Pushdown // clause index -> pushdowns, in plan order
	Residual  []xquery.Expr      // conjuncts evaluated per tuple
	// Collect and Replay say, per clause, whether a LET of a FLWOR with
	// ORDER BY is evaluated while the tuples are collected and after the
	// sort (orderPhases); nil without ORDER BY. hides: a replayed LET
	// refers to a name that only it or a later clause binds.
	Collect, Replay []bool
	hides           bool
}

// PlanFLWOR assigns WHERE conjuncts to FOR clauses; the VM compiler
// lowers a top-level FLWOR from the same assignment flworEach evaluates
// a nested one with.
func PlanFLWOR(x *xquery.FLWOR) *FLWORPlan {
	plan := &FLWORPlan{Pushdowns: map[int][]Pushdown{}}
	if x.OrderBy != nil {
		plan.Collect, plan.Replay, plan.hides = orderPhases(x)
	}
	clauseOf := map[string]int{}
	for i, c := range x.Clauses {
		if !c.Let {
			clauseOf[c.Var] = i
		}
	}
	for _, conj := range splitConjuncts(x.Where) {
		cmp, isCmp := conj.(*xquery.Cmp)
		if !isCmp {
			plan.Residual = append(plan.Residual, conj)
			continue
		}
		assigned := false
		// literal comparison on a FOR variable of this FLWOR
		for v, ci := range clauseOf {
			if rel, lit, op, ok := splitVarCmp(cmp, v); ok {
				plan.Pushdowns[ci] = append(plan.Pushdowns[ci], Pushdown{
					Conj: cmp, IsLit: true, Rel: rel, Op: op, Lit: lit,
				})
				assigned = true
				break
			}
		}
		if assigned {
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
				case lIn && (!rIn || li >= ri):
					plan.Pushdowns[li] = append(plan.Pushdowns[li], Pushdown{
						Conj: cmp, OtherVar: rp.Var,
						RelThis:  &xquery.PathExpr{Var: ".", Steps: lp.Steps},
						RelOther: &xquery.PathExpr{Var: ".", Steps: rp.Steps},
					})
					assigned = true
				case rIn:
					plan.Pushdowns[ri] = append(plan.Pushdowns[ri], Pushdown{
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

// Plans is what is derivable once per query and not per run: the
// pushdown plan of each FLWOR and the resolved plan of each path whose
// origin summary set is static. The compiler fills one per program;
// runs only read it, so any number of them share it.
type Plans struct {
	flwors map[*xquery.FLWOR]*FLWORPlan
	paths  map[*xquery.PathExpr]*PathPlan
}

// NewPlans returns an empty plan set for a compiler to fill.
func NewPlans() *Plans {
	return &Plans{paths: map[*xquery.PathExpr]*PathPlan{}}
}

// SizeBytes estimates the resident size of the plans, for the plan
// cache's byte accounting: a few slices of summary-node pointers each.
func (pl *Plans) SizeBytes() int { return 128*len(pl.flwors) + 192*len(pl.paths) }

// PlanExpr records in pl the plan of every FLWOR and every path under
// x, and returns the summary set of x's value when that is static (a
// path without a text() tail, a variable). vars gives the summary sets
// of the variables in scope, "." for the context; a set that turns out
// different at run time only costs that path a re-resolution, so an
// unknown variable may simply be absent.
func (e *Engine) PlanExpr(pl *Plans, x xquery.Expr, vars map[string][]*storage.SummaryNode) []*storage.SummaryNode {
	switch x := x.(type) {
	case *xquery.VarRef:
		return vars[x.Name]
	case *xquery.PathExpr:
		plan := e.resolvePath(x, vars[x.Var])
		pl.paths[x] = plan
		for i, step := range x.Steps {
			if len(step.Preds) > 0 && i < len(plan.targets) {
				inner := cloneVars(vars)
				inner["."] = plan.targets[i]
				for _, pred := range step.Preds {
					e.PlanExpr(pl, pred, inner)
				}
			}
		}
		if len(plan.targets) < len(x.Steps) {
			return nil // text() tail: the value is strings
		}
		return plan.Sums()
	case *xquery.FLWOR:
		if pl.flwors == nil {
			pl.flwors = map[*xquery.FLWOR]*FLWORPlan{}
		}
		pl.flwors[x] = PlanFLWOR(x)
		vars = cloneVars(vars)
		for _, cl := range x.Clauses {
			vars[cl.Var] = e.PlanExpr(pl, cl.Seq, vars)
		}
		for _, sub := range []xquery.Expr{x.Where, x.OrderBy, x.Return} {
			e.PlanExpr(pl, sub, vars) // a nil part has no children
		}
		return nil
	}
	for _, sub := range xquery.Children(x) {
		e.PlanExpr(pl, sub, vars)
	}
	return nil
}

func cloneVars(vars map[string][]*storage.SummaryNode) map[string][]*storage.SummaryNode {
	out := make(map[string][]*storage.SummaryNode, len(vars)+1)
	maps.Copy(out, vars)
	return out
}

// flworPlanFor returns the pushdown plan of x: the program's, else this
// run's memo.
func (e *Engine) flworPlanFor(x *xquery.FLWOR) *FLWORPlan {
	if e.plans != nil {
		if plan := e.plans.flwors[x]; plan != nil {
			return plan
		}
	}
	plan := e.flwors[x]
	if plan == nil {
		if e.flwors == nil {
			e.flwors = map[*xquery.FLWOR]*FLWORPlan{}
		}
		plan = PlanFLWOR(x)
		e.flwors[x] = plan
	}
	return plan
}

// evalFLWOR evaluates for/let/where/return eagerly, collecting every
// RETURN chunk into one sequence.
func (e *Engine) evalFLWOR(x *xquery.FLWOR, env *scope) (Seq, error) {
	var out Seq
	err := e.flworEach(x, env, func(v Seq) { out = append(out, v...) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// flworEach runs for/let/where/return with the §4 optimizations —
// WHERE conjuncts of the form path-op-literal become compressed-domain
// container matches restricting the FOR domain, and equality joins
// between variables are answered by a container join index built once
// (the compressed merge join of the Q9 plan when the sides share a
// source model) instead of rescanning per outer binding — handing each
// RETURN chunk to emit as soon as its bindings are settled. With an
// ORDER BY the walk only collects the tuples (TupleSort); the RETURN of
// each runs after the sort, one tuple at a time.
//
// Every clause binds its variable into env in place — one slot per
// clause evaluation, rewritten per tuple — and restores what it
// shadowed when its domain is exhausted.
func (e *Engine) flworEach(x *xquery.FLWOR, env *scope, emit func(Seq)) error {
	plan := e.flworPlanFor(x)
	var ts *TupleSort
	var fors []*binding // by clause: the FOR bindings a collected tuple records
	if x.OrderBy != nil {
		ts = NewTupleSort(x, plan, nil)
		fors = make([]*binding, len(x.Clauses))
	}

	var walk func(ci int) error
	// each walks the remaining clauses for the FOR item just bound.
	each := func(ci int, filters []xquery.Expr) error {
		if ok, err := e.passAll(filters, env); err != nil || !ok {
			return err
		}
		return walk(ci + 1)
	}
	walk = func(ci int) error {
		if ci == len(x.Clauses) {
			if ok, err := e.passAll(plan.Residual, env); err != nil || !ok {
				return err
			}
			if ts == nil {
				v, err := e.eval(x.Return, env)
				if err != nil {
					return err
				}
				emit(v)
				return nil
			}
			for _, b := range fors {
				if b != nil {
					var id storage.NodeID
					if b.ids != nil {
						id = b.ids[0]
					}
					ts.Add(id, b.item, b.sums)
				}
			}
			return e.collectKey(ts, env)
		}
		cl := x.Clauses[ci]
		if cl.Let && ts != nil && !plan.Collect[ci] {
			return walk(ci + 1) // only the RETURN needs it, if anything does
		}
		seq, ids, sums, err := e.evalBindingSeq(cl.Seq, env)
		if err != nil {
			return err
		}
		b, shadowed := env.bind(cl.Var, sums)
		defer env.unbind(cl.Var, shadowed)
		if cl.Let {
			b.seq, b.ids = seq, ids
			return walk(ci + 1)
		}
		if ts != nil {
			fors[ci] = b
		}
		pds := plan.Pushdowns[ci]
		if ids == nil {
			var fallbackFilters []xquery.Expr
			for _, pd := range pds {
				fallbackFilters = append(fallbackFilters, pd.Conj)
			}
			for _, it := range seq {
				b.set(it)
				if err := each(ci, fallbackFilters); err != nil {
					return err
				}
			}
			return nil
		}
		cur := ids
		var perTuple []xquery.Expr
		for _, pd := range pds {
			// A literal pushdown keeps the nodes whose value matches, a join
			// pushdown the partners of the other variable's current binding.
			var restricted algebra.NodeSet
			var handled bool
			if pd.IsLit {
				restricted, handled, err = e.applyLit(pd, cur, sums)
			} else {
				restricted, handled, err = e.applyJoin(pd, cur, sums, env)
			}
			if err != nil {
				return err
			}
			if handled {
				cur = restricted
				continue
			}
			perTuple = append(perTuple, pd.Conj)
		}
		for _, id := range cur {
			b.setNode(id)
			if err := each(ci, perTuple); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil || ts == nil {
		return err
	}
	if err := e.SortTuples(ts); err != nil {
		return err
	}
	// Replay rebinds the clauses' variables: put back what they shadow.
	for ci, cl := range x.Clauses {
		ts.outer[ci] = env.vars[cl.Var]
		defer env.unbind(cl.Var, ts.outer[ci])
	}
	for {
		ok, err := e.replay(ts, env)
		if err != nil || !ok {
			return err
		}
		v, err := e.eval(x.Return, env)
		if err != nil {
			return err
		}
		emit(v)
	}
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

func (e *Engine) passAll(filters []xquery.Expr, env *scope) (bool, error) {
	for _, f := range filters {
		ok, err := e.evalBool(f, env)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// joinIndex maps nodes of the "other" side of an equality join to their
// partner nodes on "this" side. Built once per comparison and pair of
// summary sets, it is what turns the Q8/Q9 correlated nested loops into
// a single container join. It is keyed by extent ordinal: the instances
// of otherSums[k] are numbered first[k], first[k]+1, … in extent order,
// and the partners of the instance numbered o are
// partners[start[o]:start[o+1]], in document order.
type joinIndex struct {
	sums, otherSums []*storage.SummaryNode
	first           []int
	start           []int32
	partners        algebra.NodeSet
	merged          bool // true when the compressed merge join was used
}

// partnersOf returns the partners of one binding of the other variable.
func (idx *joinIndex) partnersOf(other storage.NodeID) algebra.NodeSet {
	k, i := algebra.Nearest(idx.otherSums, nil, other)
	if k < 0 || idx.otherSums[k].Extent[i] != other {
		return nil
	}
	o := idx.first[k] + i
	return idx.partners[idx.start[o]:idx.start[o+1]]
}

// applyLit restricts cur (the domain of this clause's variable, instances
// of sums) to the nodes whose value under the pushdown's path matches its
// literal, by one container match per run; handled is false when the
// comparison has no container fast path.
func (e *Engine) applyLit(pd Pushdown, cur algebra.NodeSet, sums []*storage.SummaryNode) (algebra.NodeSet, bool, error) {
	co, err := e.matchOwners(pd.Conj, sums, pd.Rel, pd.Op, pd.Lit)
	if err != nil || !co.ok {
		return nil, false, err
	}
	return algebra.SemiJoinIn(sums, cur, co.owners), true, nil
}

// applyJoin restricts cur (the domain of this clause's variable) to the
// join partners of the other variable's current binding.
func (e *Engine) applyJoin(pd Pushdown, cur algebra.NodeSet, sums []*storage.SummaryNode, env *scope) (algebra.NodeSet, bool, error) {
	other := env.vars[pd.OtherVar]
	if other == nil || len(other.ids) != 1 || len(other.sums) == 0 || len(sums) == 0 {
		return nil, false, nil
	}
	idx, ok, err := e.joinIndexFor(pd, sums, other.sums)
	if err != nil || !ok {
		return nil, ok, err
	}
	// The partners are usually a tiny subset of the clause domain: probe
	// them into cur by binary search instead of a full linear merge.
	var out algebra.NodeSet
	for _, m := range idx.partnersOf(other.ids[0]) {
		i := sort.Search(len(cur), func(k int) bool { return cur[k] >= m })
		if i < len(cur) && cur[i] == m {
			out = append(out, m)
		}
	}
	return out, true, nil
}

// joinIndexFor builds (or reuses) the join index for a comparison. Both
// sides' value owners are placed under their bindings by extent order
// (algebra.Nearest: relValueTarget resolves containers only under summary
// sets whose instances never nest).
func (e *Engine) joinIndexFor(pd Pushdown, sums, otherSums []*storage.SummaryNode) (*joinIndex, bool, error) {
	if idx, ok := e.joinIdx[pd.Conj]; ok && slices.Equal(idx.sums, sums) && slices.Equal(idx.otherSums, otherSums) {
		return idx, true, nil
	}
	thisConts, _, ok1 := e.relValueTarget(sums, pd.RelThis)
	otherConts, _, ok2 := e.relValueTarget(otherSums, pd.RelOther)
	if !ok1 || !ok2 || len(thisConts) == 0 || len(otherConts) == 0 {
		return nil, false, nil
	}
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
			idx.merged = idx.merged || merged
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
		e.joinIdx = map[*xquery.Cmp]*joinIndex{}
	}
	e.joinIdx[pd.Conj] = idx
	return idx, true, nil
}
