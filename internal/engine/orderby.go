package engine

import (
	"cmp"
	"slices"
	"strings"

	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// tupleSort is the ORDER BY of a FLWOR in one run of its program:
// collection adds a tuple per binding that passes the WHERE — each FOR
// clause's item and summary set, and the key — the sort orders them,
// replay binds them back one at a time for the RETURN. Tuples live in
// flat slices, so collecting one allocates nothing.
type tupleSort struct {
	x     *xquery.FLWOR
	plan  *flworPlan
	ranks *rankTable // nil: keys are decoded as they are collected
	width int        // FOR clauses per tuple

	ids   []storage.NodeID // per tuple and FOR clause; 0 where the item is not a node
	ats   []place          // and the node's place among its set's extents, when known
	items []Item           // the item where it is not a node; nil until one is not
	set   []int32          // per tuple and FOR clause: the summary set, in sets
	// sets[0] is the empty set; last[f] is FOR clause f's latest set.
	sets     [][]*storage.SummaryNode
	last     []int32
	keys     []string         // decoded keys
	keyNodes []storage.NodeID // ranked keys: the key path's first node, 0 for none

	order []int
	next  int
	slots []binding  // per clause, what replay binds
	outer []*binding // per clause, its name's binding outside the FLWOR
}

// newTupleSort returns the sorter of one evaluation of x under plan;
// ranks, when not nil, ranks its key (keyRanks).
func newTupleSort(x *xquery.FLWOR, plan *flworPlan, ranks *rankTable) *tupleSort {
	n := len(x.Clauses)
	t := &tupleSort{x: x, plan: plan, ranks: ranks, sets: make([][]*storage.SummaryNode, 1),
		slots: make([]binding, n), outer: make([]*binding, n)}
	for _, cl := range x.Clauses {
		if !cl.Let {
			t.width++
		}
	}
	t.last = make([]int32, t.width)
	return t
}

// add records the next FOR clause's binding of the tuple being
// collected: a node, at its place among the extents of sums when the
// cursor knew it, or (id 0) any other item.
func (t *tupleSort) add(id storage.NodeID, at place, it Item, sums []*storage.SummaryNode) {
	f := len(t.ids) % t.width
	if last := t.sets[t.last[f]]; len(last) != len(sums) || len(sums) > 0 && &last[0] != &sums[0] {
		t.last[f] = int32(len(t.sets))
		t.sets = append(t.sets, sums)
	}
	if id == 0 && t.items == nil {
		t.items = make([]Item, len(t.ids), cap(t.ids))
	}
	t.ids, t.ats, t.set = append(t.ids, id), append(t.ats, at), append(t.set, t.last[f])
	if t.items != nil {
		t.items = append(t.items, it)
	}
}

// open starts an evaluation of the sorter's FLWOR under env: the tuples
// of the previous one go, and what the clauses' names are bound to
// outside the FLWOR is recorded, for replay and close to put back.
func (t *tupleSort) open(env *clauseEnv) {
	*t = *newTupleSort(t.x, t.plan, t.ranks)
	for ci, cl := range t.x.Clauses {
		t.outer[ci] = env.s.lookup(cl.Var)
	}
}

// close ends an evaluation open started: the clauses' names are bound to
// what they were outside the FLWOR again.
func (t *tupleSort) close(env *clauseEnv) {
	for ci, cl := range t.x.Clauses {
		env.s.unbind(cl.Var, t.outer[ci])
	}
}

// collectKey completes the tuple just added with its key: the first node
// of the key path when the key is ranked, else the string value of the
// key's first item (appendFirst). Key errors therefore arrive in tuple
// order.
func (e *engine) collectKey(t *tupleSort, env *scope) error {
	if t.ranks == nil {
		var err error
		e.sbuf, err = e.appendFirst(e.sbuf[:0], t.x.OrderBy, env)
		t.keys = append(t.keys, string(e.sbuf))
		return err
	}
	nodes, _, _, err := e.evalPathNodes(t.x.OrderBy.(*xquery.PathExpr), env)
	var id storage.NodeID
	if len(nodes) > 0 {
		id = nodes[0]
	}
	t.keyNodes = append(t.keyNodes, id)
	return err
}

// sortTuples orders the collected tuples: by their ranks when each key
// is one ranked record or none, else by the keys decoded — an eligible
// key's string value is its node's immediate text — with sortedOrder.
func (e *engine) sortTuples(t *tupleSort) error {
	if t.ranks != nil {
		if t.order = t.ranks.order(e.store, &e.cur, t.keyNodes, t.x.OrderDesc); t.order != nil {
			return nil
		}
		for _, id := range t.keyNodes {
			var err error
			if e.sbuf = e.sbuf[:0]; id != 0 {
				if e.sbuf, err = e.store.Text(&e.cur, e.sbuf, id); err != nil {
					return err
				}
			}
			t.keys = append(t.keys, string(e.sbuf))
		}
	}
	t.order = sortedOrder(t.keys, t.x.OrderDesc)
	return nil
}

// replay binds the next tuple in sorted order into env, and reports
// whether there was one: each FOR variable to the item it was collected
// with and — in clause order, so each sees what it saw during
// collection — each LET the RETURN needs.
func (e *engine) replay(t *tupleSort, env *scope) (bool, error) {
	if t.next == len(t.order) {
		return false, nil
	}
	k := t.order[t.next] * t.width
	t.next++
	if t.plan.hides {
		// No LET may see the previous tuple's binding of a name bound at
		// or after it.
		for ci, cl := range t.x.Clauses {
			env.unbind(cl.Var, t.outer[ci])
		}
	}
	for ci, cl := range t.x.Clauses {
		b := &t.slots[ci]
		switch {
		case !cl.Let:
			b.sums = t.sets[t.set[k]]
			if t.ids[k] != 0 {
				b.setNode(t.ids[k], t.ats[k])
			} else {
				b.set(nil, nil, t.items[k], b.sums)
			}
			k++
		case t.plan.Replay[ci]:
			seq, ids, sums, err := e.evalBindingSeq(cl.Seq, env)
			if err != nil {
				return false, err
			}
			b.set(seq, ids, nil, sums)
		default:
			continue
		}
		env.bind(cl.Var, b)
	}
	return true, nil
}

// orderPhases is the rule for where the LETs of a FLWOR with ORDER BY
// are evaluated: collected — before the sort — when a later FOR domain, a
// collected LET, a WHERE conjunct or the key refers to one, replayed —
// after the sort — when the RETURN needs it (Q19's $k). LETs have no side
// effects, so evaluating one twice is sound. hides reports a replayed LET
// that refers to a name no earlier clause binds, but it or a later one.
func orderPhases(x *xquery.FLWOR) (collect, replay []bool, hides bool) {
	n := len(x.Clauses)
	collect, replay = make([]bool, n), make([]bool, n)
	// binder is the last of the first `before` clauses to bind name.
	binder := func(name string, before int) int {
		j := before - 1
		for j >= 0 && x.Clauses[j].Var != name {
			j--
		}
		return j
	}
	// mark sets need for each LET sub refers to (sub placed before clause
	// `before`), and for the LETs those refer to.
	var mark func(need []bool, sub xquery.Expr, before int)
	mark = func(need []bool, sub xquery.Expr, before int) {
		for name := range xquery.FreeVars(sub) {
			if j := binder(name, before); j >= 0 && x.Clauses[j].Let && !need[j] {
				need[j] = true
				mark(need, x.Clauses[j].Seq, j)
			}
		}
	}
	for ci, cl := range x.Clauses {
		if !cl.Let {
			mark(collect, cl.Seq, ci)
		}
	}
	mark(collect, x.Where, n)
	mark(collect, x.OrderBy, n)
	mark(replay, x.Return, n)
	for j, cl := range x.Clauses {
		for name := range xquery.FreeVars(cl.Seq) {
			hides = hides || replay[j] && binder(name, j) < 0 && binder(name, n) >= 0
		}
	}
	return collect, replay, hides
}

// rankTable is the rank table of an ORDER BY key whose values live in known
// containers (keyRanks): each record decoded once, at compile time, and
// ranked as sortedOrder compares keys — densely in byte order, and in
// parseNum order (-1: no number, or NaN) — so a run sorts integers.
type rankTable struct {
	conts    []*storage.Container // the ranked containers
	str, num [][]int32            // per ranked container and record
	// empty is the string rank of "", the key of a tuple whose key path
	// finds no node or no text: it ties with a stored "" (an empty
	// attribute), as the strings do.
	empty int32
	// records counts the ranked records; the table holds two int32
	// ranks for each.
	records int
}

// keyRanks returns the rank table of an ORDER BY key that is a path from
// a variable bound under sums, or nil when the key is not eligible: its
// values must live in the containers a WHERE comparison on the path
// would match (relValueTarget) — attributes, and elements whose children
// are text and attributes only, so a string value is immediate text.
func (e *engine) keyRanks(p *xquery.PathExpr, sums []*storage.SummaryNode) *rankTable {
	conts, _, ok := e.relValueTarget(sums, p)
	if !ok {
		return nil
	}
	var slab []byte
	ends := []int{0} // value j is slab[ends[j]:ends[j+1]]
	for _, c := range conts {
		for i := 0; i < c.Len(); i++ {
			var err error
			if slab, err = c.Decode(slab, i); err != nil {
				return nil // a run decodes, and meets the error there
			}
			ends = append(ends, len(slab))
		}
	}
	all := string(slab)
	vals := make([]string, len(ends)) // the last is "", the key without text
	for j := range len(ends) - 1 {
		vals[j] = all[ends[j]:ends[j+1]]
	}
	str, num, nums := make([]int32, len(vals)), make([]int32, len(vals)), make([]float64, len(vals))
	r := &rankTable{conts: conts, records: len(vals) - 1}
	denseRanks(str, func(int) bool { return true }, func(a, b int) int { return strings.Compare(vals[a], vals[b]) })
	denseRanks(num, func(j int) bool {
		// strconv.ParseFloat accepts nothing that starts otherwise, and
		// its error allocates: skip the text values without the call.
		if t := strings.TrimSpace(vals[j]); t == "" || strings.IndexByte("+-.0123456789iInN", t[0]) < 0 {
			return false
		}
		f, ok := parseNum(vals[j])
		nums[j] = f
		return ok && f == f
	}, func(a, b int) int { return cmp.Compare(nums[a], nums[b]) })
	r.empty = str[len(vals)-1]
	for _, c := range conts {
		r.str, r.num = append(r.str, str[:c.Len():c.Len()]), append(r.num, num[:c.Len():c.Len()])
		str, num = str[c.Len():], num[c.Len():]
	}
	return r
}

// denseRanks sets ranks[j], for each j that keep admits, to its rank in
// the order of cmp — equal ones alike, no rank skipped — and -1 for the
// others.
func denseRanks(ranks []int32, keep func(j int) bool, cmp func(a, b int) int) {
	var idx []int
	for j := range ranks {
		ranks[j] = -1
		if keep(j) {
			idx = append(idx, j)
		}
	}
	slices.SortFunc(idx, cmp)
	r := int32(-1)
	for k, j := range idx {
		if k == 0 || cmp(idx[k-1], j) != 0 {
			r++
		}
		ranks[j] = r
	}
}

// order returns the ORDER BY permutation of tuples whose keys are the
// immediate text of nodes (0: none, the empty key), or nil when a key is
// not one record of a ranked container. The keys compare numerically
// when every one has a numeric rank, else as strings — sortedOrder's
// once-per-sort rule. Each tuple sorts as one word, its rank (inverted
// when descending) above its index, so ties keep tuple order in both
// directions, as in sortedOrder; the sort costs O(k log k) in the k
// tuples, whatever the number of distinct values.
func (r *rankTable) order(s *storage.Store, c *storage.TextCursor, nodes []storage.NodeID, desc bool) []int {
	str, num := make([]int32, len(nodes)), make([]int32, len(nodes))
	numeric := true
	var buf [2]storage.ValueRef
	for i, id := range nodes {
		str[i], num[i] = r.empty, -1
		refs := buf[:0]
		if id != 0 {
			refs = s.TextRefs(c, refs, id)
		}
		if len(refs) > 1 {
			return nil // the key is the concatenation of several values
		}
		if len(refs) == 1 {
			k := slices.Index(r.conts, s.Container(refs[0].Container))
			if k < 0 {
				return nil
			}
			str[i], num[i] = r.str[k][refs[0].Index], r.num[k][refs[0].Index]
		}
		numeric = numeric && num[i] >= 0
	}
	keys := str
	if numeric {
		keys = num
	}
	words := make([]uint64, len(nodes))
	for i, k := range keys {
		w := uint32(k) // a rank here is never -1
		if desc {
			w = ^w
		}
		words[i] = uint64(w)<<32 | uint64(i)
	}
	slices.Sort(words)
	order := make([]int, len(nodes))
	for i, w := range words {
		order[i] = int(uint32(w))
	}
	return order
}
