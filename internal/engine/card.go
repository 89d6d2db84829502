package engine

import (
	"fmt"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// cardHow is how a cardinality rule answers.
type cardHow uint8

const (
	// cardConst: the answer is n, known at compile — a statically empty
	// path, or an absolute predicate-free one, whose nodes are its
	// targets' extents (for a text() tail, their instances with text).
	cardConst cardHow = iota
	// cardSpans: a predicate-free path from a variable bound to one node,
	// the sum of the spans its one run reads at the binding's place.
	cardSpans
	// cardRanges: an absolute path whose last step's conjuncts compare one
	// value per instance with literals, the summed lengths of the record
	// spans they select, intersected per container.
	cardRanges
)

// cardRule answers count(x), empty(x) and exists(x) for one argument x
// from structures that exist — extent lengths, offset spans, container
// ranges — binding no tuple and building no node set (DESIGN.md
// "Cardinalities without tuples"). The compiler chooses it per call
// (cardCall); a run whose binding is not the one it was chosen for counts
// the argument instead (cardArg).
type cardRule struct {
	how cardHow
	n   int
	// binder and plan: a cardSpans path's variable and its plan over the
	// variable's summary set.
	binder int
	plan   *pathPlan
	// conts are a cardRanges operand's containers, lits the conjuncts on
	// it.
	conts []*storage.Container
	lits  []pushdown
	// flwor: the argument is `FOR $v IN P WHERE … RETURN r`, counted as
	// the instances of P that pass.
	flwor bool
}

// cardPath chooses the rule of a path p, whose plan is pl, with lits
// further literal conjuncts on its last step (a counted FOR's WHERE). The
// origin must be statically a node set: the document, or a variable of
// known summary set — not the context, nor a variable that may hold
// atoms, which must still fail.
func (e *engine) cardPath(pl *pathPlan, p *xquery.PathExpr, lits []pushdown, vars *staticVars) *cardRule {
	n := len(p.Steps)
	textTail := n > 0 && p.Steps[n-1].Test == xquery.TestText
	if textTail {
		n--
	}
	if pl == nil || n == 0 || len(pl.targets) != n || p.Var != "" && (p.Var == "." || len(vars.slots[p.Binder]) == 0) {
		return nil
	}
	for _, st := range p.Steps[:n-1] {
		if len(st.Preds) > 0 {
			return nil
		}
	}
	if textTail && len(p.Steps[n].Preds) > 0 {
		return nil // an error at run time
	}
	for _, pred := range p.Steps[n-1].Preds {
		for _, conj := range splitPredConjuncts(pred) {
			rel, lit, op, ok := splitVarPred(conj, 0)
			if !ok {
				return nil
			}
			lits = append(lits, pushdown{Conj: conj, IsLit: true, Rel: rel, Op: op, Lit: lit})
		}
	}
	sums := pl.targets[n-1]
	if len(sums) == 0 {
		return &cardRule{how: cardConst} // statically empty: no predicate is asked
	}
	if textTail && (p.Var != "" || len(lits) > 0) {
		// Only the instances with immediate text count, and the rules
		// read no text: they answer when that is all the instances the
		// path selects, or none of them.
		all, none := true, true
		for _, sn := range sums {
			all, none = all && sn.TextCount == sn.Count, none && sn.TextCount == 0
		}
		switch {
		case none:
			return &cardRule{how: cardConst}
		case !all:
			return nil // which instances have text is the tree's to say
		}
	}
	switch {
	case len(lits) > 0 && p.Var == "":
		return e.cardRanges(sums, lits)
	case len(lits) > 0:
		return nil // a binding's instances are no whole extent
	case p.Var == "":
		r := &cardRule{how: cardConst}
		for _, sn := range sums {
			if textTail {
				r.n += sn.TextCount
			} else {
				r.n += len(sn.Extent)
			}
		}
		return r
	}
	if len(pl.runs) == 0 || pl.runs[0].from == nil {
		return nil
	}
	return &cardRule{how: cardSpans, binder: p.Binder, plan: pl}
}

// cardRanges chooses the rule of the literal conjuncts lits on the
// instances of sums, a whole extent: they must all compare one operand
// by =, <, <=, > or >=, which every instance has exactly one node on,
// whose value is one record it always has (valueOf) — a record is then an
// instance, and counting records counts instances — and every container
// must answer each of them as one stretch of its records: ContAccess eq
// or range, or a binary search.
func (e *engine) cardRanges(sums []*storage.SummaryNode, lits []pushdown) *cardRule {
	for _, pd := range lits {
		if !pd.IsLit || stringFunc(pd.Op) != nil || pd.Op == "!=" || pd.Op == "=" && pd.Lit == "" || pd.Rel.String() != lits[0].Rel.String() {
			return nil
		}
	}
	v := e.valueOf(sums, stepsOf(lits[0].Rel))
	if v.why != "" || !v.one || !v.all {
		return nil
	}
	for _, pd := range lits {
		for _, c := range v.conts {
			if access, _, _ := accessFor(c, pd.Op, pd.Lit); access != accessEq && access != accessRange && access != accessSearch {
				return nil
			}
		}
	}
	return &cardRule{how: cardRanges, lits: lits, conts: v.conts}
}

// cardFLWOR chooses the rule of `count(FOR $v IN P WHERE … RETURN r)`:
// one FOR over an absolute path P, no ORDER BY, a WHERE whose conjuncts
// are all literal restricts on $v, and a RETURN that yields exactly one
// item per tuple and cannot fail — $v, or a path from $v that reaches
// exactly one node from each binding (valueOf). Its count
// is then P's count under the restricts (cardPath), which never falls
// back: the FLWOR needs no sub-program.
func (e *engine) cardFLWOR(x *xquery.FLWOR) *cardRule {
	if len(x.Clauses) != 1 || x.Clauses[0].Let || x.OrderBy != nil {
		return nil
	}
	v := x.Clauses[0].Binder
	dom, isPath := x.Clauses[0].Seq.(*xquery.PathExpr)
	if !isPath || dom.Var != "" || len(dom.Steps) == 0 || dom.Steps[len(dom.Steps)-1].Test == xquery.TestText {
		return nil // the bindings are strings, which a path from $v fails on
	}
	plan := planFLWOR(x)
	if len(plan.Residual) > 0 {
		return nil
	}
	pl := e.resolvePath(stepsOf(dom), true, nil)
	r := e.cardPath(pl, dom, plan.Pushdowns[0], nil)
	if r == nil || r.how == cardSpans {
		return nil
	}
	switch ret := x.Return.(type) {
	case *xquery.VarRef:
		if ret.Binder != v {
			return nil
		}
	case *xquery.PathExpr:
		if ret.Binder != v || len(ret.Steps) == 0 || ret.Steps[len(ret.Steps)-1].Test == xquery.TestText || !e.valueOf(pl.sums(), stepsOf(ret)).one {
			return nil
		}
	default:
		return nil
	}
	r.flwor = true
	return r
}

// cardinality answers a call by its rule. ok is false when the run's
// binding is not one node of the summary set the rule was chosen for,
// and the argument is counted instead.
func (e *engine) cardinality(r *cardRule) (n int, ok bool, err error) {
	switch r.how {
	case cardConst:
		return r.n, true, nil
	case cardRanges:
		for _, c := range r.conts {
			span := algebra.Span{Hi: c.Len()}
			for _, pd := range r.lits {
				s, err := recordSpan(c, pd.Op, pd.Lit)
				if err != nil {
					return 0, true, err
				}
				span = span.Intersect(s)
			}
			n += span.Len()
		}
		return n, true, nil
	}
	b := e.env.of(r.binder)
	if b == nil || len(b.ids) != 1 || !sameSums(b.sums, r.plan.origin) {
		return 0, false, nil
	}
	at := b.place()
	if !at.ok {
		return 0, false, nil
	}
	reads := r.plan.runs[0].reads[at.o]
	for t := range reads {
		lo, hi := reads[t].span(at.i)
		n += int(hi - lo)
	}
	return n, true, nil
}

// recordSpan returns the records of c that `value op literal` selects,
// one stretch of value order, for the accesses cardRanges admits: equal
// values lie together in it, and an interval is one.
func recordSpan(c *storage.Container, op, literal string) (algebra.Span, error) {
	access, probe, _ := accessFor(c, op, literal)
	if access == accessEq {
		return algebra.EqSpan(c, probe), nil
	}
	lo, loInc, hi, hiInc := rangeBounds(op, probe)
	return algebra.RangeSpan(c, lo, loInc, hi, hiInc)
}

// alwaysTrue reports that n, a residual WHERE conjunct, is an empty or
// exists whose rule answers it at compile, true.
func alwaysTrue(n node) bool {
	en, isEmpty := n.(*emptyNode)
	return isEmpty && en.card != nil && en.card.how == cardConst && (en.card.n == 0) == en.empty
}

// cardDesc names how a rule answers, for the listing.
func cardDesc(name string, r *cardRule) string {
	what := name
	if r.flwor {
		what += " of the FOR's domain"
	}
	switch r.how {
	case cardConst:
		return fmt.Sprintf("%s = %d at compile", what, r.n)
	case cardSpans:
		return fmt.Sprintf("%s from reach spans, %s", what, readDesc(&r.plan.runs[0]))
	}
	parts := make([]string, 0, len(r.conts))
	for _, c := range r.conts {
		access, _, _ := accessFor(c, r.lits[0].Op, r.lits[0].Lit)
		parts = append(parts, fmt.Sprintf("%s[%s](%d recs) %s", c.Path, c.Codec().Name(), c.Len(), access))
	}
	desc := fmt.Sprintf("%s from record spans of %s", what, strings.Join(parts, ", "))
	if len(r.lits) > 1 {
		desc += fmt.Sprintf(", %d conjuncts intersected", len(r.lits))
	}
	return desc
}
