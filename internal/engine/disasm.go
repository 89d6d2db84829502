package engine

import (
	"fmt"
	"slices"
	"strings"

	"xquec/internal/xquery"
)

// Disassemble renders the program as one instruction per line — opcode,
// operands (cursor/pool indexes, jump targets), and notes on what the
// compiler decided: the summary access of each path, the access each
// literal restrict makes on each container, how each join's container
// pairs were joined, the emission templates. It is the query's plan, the
// one that runs. Each sub-program starts with a header naming its FLWOR.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: %d instrs, %d cursors, %d domains, %d preds", len(p.instrs), p.ncur, len(p.doms), len(p.preds))
	if len(p.subs) > 0 {
		fmt.Fprintf(&b, ", %d subs", len(p.subs))
	}
	fmt.Fprintf(&b, " (size≈%dB)\n", p.sizeEst)
	sub := 0
	for pc, in := range p.instrs {
		if sub < len(p.subs) && p.subs[sub].entry == int32(pc) {
			fmt.Fprintf(&b, "sub s%d: %s\n", sub, trunc(p.subs[sub].x.String(), 72))
			sub++
		}
		if in.Op == opHalt || in.Op == opReset { // no operands
			fmt.Fprintf(&b, "%3d  %s\n", pc, in.Op)
			continue
		}
		fmt.Fprintf(&b, "%3d  %-8s", pc, in.Op)
		switch in.Op {
		case opScan:
			fmt.Fprintf(&b, " c%d <- d%d        ; %s", in.A, in.B, p.domDesc(&p.doms[in.B]))
		case opLitRestrict, opJoinRestrict:
			fmt.Fprintf(&b, " c%d, p%d          ; %s", in.A, in.B, predDesc(&p.preds[in.B]))
		case opIter:
			fmt.Fprintf(&b, " c%d -> $%s, done->%d", in.A, p.vars[in.B].name, in.C)
		case opDeferred:
			fmt.Fprintf(&b, " c%d, fail->%d", in.A, in.C)
		case opLet:
			fmt.Fprintf(&b, " $%s <- d%d       ; %s", p.vars[in.A].name, in.B, p.domDesc(&p.doms[in.B]))
		case opWhere:
			fmt.Fprintf(&b, " e%d, fail->%d     ; %s", in.A, in.C, p.exprDesc(p.exprs[in.A]))
		case opEvalPush:
			fmt.Fprintf(&b, " e%d              ; %s", in.A, p.exprDesc(p.exprs[in.A]))
		case opEmitSeq:
			fmt.Fprintf(&b, " done->%d", in.C)
		case opIterEmit:
			fmt.Fprintf(&b, " c%d, done->%d", in.A, in.C)
		case opCollect:
			fmt.Fprintf(&b, " t%d, next->%d", in.A, in.C)
		case opSort:
			fmt.Fprintf(&b, " t%d              ; %s", in.A, p.sortDesc(&p.sorts[in.A]))
		case opReplay:
			fmt.Fprintf(&b, " t%d, done->%d", in.A, in.C)
		case opLetOpen:
			fmt.Fprintf(&b, " a%d, depth %d", in.A, in.B)
		case opAppend, opAppendOut:
			fmt.Fprintf(&b, " a%d, e%d, next->%d ; %s", in.A, in.B, in.C, p.exprDesc(p.exprs[in.B]))
		case opAppendCur:
			fmt.Fprintf(&b, " a%d, c%d, next->%d", in.A, in.B, in.C)
		case opEmitCtor:
			fmt.Fprintf(&b, " m%d, next->%d    ; %s", in.A, in.C, tplDesc(&p.tpls[in.A]))
		case opAppendCtor:
			fmt.Fprintf(&b, " a%d, m%d, next->%d ; %s", in.A, in.B, in.C, tplDesc(&p.tpls[in.B]))
		case opRet:
			fmt.Fprintf(&b, " s%d -> a%d", in.A, p.subs[in.A].acc)
		case opLetBind:
			fmt.Fprintf(&b, " $%s <- a%d", p.vars[in.A].name, in.B)
			if in.C >= 0 {
				fmt.Fprintf(&b, " ; nodes of c%d", in.C)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// pathDesc names how a run reads the nodes of path x, from its plan in
// the pool: StructureSummaryAccess when x is absolute and predicate-free
// (its nodes are the extents listed), summary-guided navigation when
// predicates or a variable's bindings select among those extents, and
// runtime navigation when x's variable had no summary set at compile
// time. A text() tail lists the owners of its text. Then come the runs
// from a node set, each with how it reads what one node reaches
// (readDesc).
func (p *Program) pathDesc(x *xquery.PathExpr) string {
	pl := p.plans[x]
	if pl == nil || x.Var != "" && len(pl.origin) == 0 {
		return "runtime navigation"
	}
	sums := pl.sums()
	if len(sums) == 0 {
		return "statically empty"
	}
	op := "summary-guided navigation"
	if pl.plain {
		op = "StructureSummaryAccess"
	}
	total := 0
	paths := make([]string, 0, len(sums))
	for _, sn := range sums {
		total += len(sn.Extent)
		paths = append(paths, sn.Path())
	}
	desc := fmt.Sprintf("%s %s (%d nodes)", op, strings.Join(paths, " ∪ "), total)
	var reads []string
	for i := range pl.runs {
		if run := &pl.runs[i]; run.from != nil {
			steps := &xquery.PathExpr{Steps: x.Steps[i:runEnd(x.Steps, i)]}
			reads = append(reads, steps.String()+" "+readDesc(run))
		}
	}
	if len(reads) > 0 {
		desc += ", reads " + strings.Join(reads, ", ")
	}
	return desc
}

// readDesc names how a run reads the instances it reaches from one node:
// "one per parent" when each is the node's extent index in its target's
// extent, "by extent offsets (N B)" when offset arrays of N bytes in all
// bound them, and both when the run's targets differ.
func readDesc(run *runPlan) string {
	ones, offs, size := 0, 0, 0
	for _, reads := range run.reads {
		for _, rd := range reads {
			if rd.one {
				ones++
			} else {
				offs, size = offs+1, size+4*len(rd.off)
			}
		}
	}
	switch {
	case offs == 0 && ones == 0:
		return "reaching nothing"
	case offs == 0:
		return "one per parent"
	case ones == 0:
		return fmt.Sprintf("by extent offsets (%d B)", size)
	}
	return fmt.Sprintf("one per parent or by extent offsets (%d B)", size)
}

func (p *Program) domDesc(spec *domainSpec) string {
	var b strings.Builder
	b.WriteString(trunc(spec.expr.String(), 48))
	switch {
	case !spec.static:
		b.WriteString(" ; runtime navigation")
	case spec.path != nil:
		b.WriteString(" ; ")
		b.WriteString(p.pathDesc(spec.path))
		if spec.textTail {
			b.WriteString(", text()")
		}
	}
	if spec.invariant {
		b.WriteString(", invariant")
	}
	return b.String()
}

// exprDesc notes an expression the engine evaluates: that a comparison
// is made between numbers, and the summary access of each path it reads
// (a FLWOR in it is a sub-program, listed on its own).
func (p *Program) exprDesc(x xquery.Expr) string {
	notes := []string{trunc(x.String(), 48)}
	if c, isCmp := x.(*xquery.Cmp); isCmp && numericCmp(c) {
		notes = append(notes, "as numbers")
	}
	var walk func(xquery.Expr)
	walk = func(x xquery.Expr) {
		switch x := x.(type) {
		case *xquery.PathExpr:
			if d := p.pathDesc(x); !slices.Contains(notes, d) {
				notes = append(notes, d)
			}
			return
		case *xquery.FLWOR:
			return
		}
		for _, sub := range xquery.Children(x) {
			walk(sub)
		}
	}
	walk(x)
	return strings.Join(notes, " ; ")
}

// sortDesc notes an ORDER BY: its key, whether the sort orders ranks or
// decoded keys, and how a ranked key's path is read.
func (p *Program) sortDesc(ss *sortSpec) string {
	desc := trunc(ss.flwor.OrderBy.String(), 40)
	if ss.flwor.OrderDesc {
		desc += " descending"
	}
	if ss.ranks == nil {
		return desc + " ; keys decoded"
	}
	return fmt.Sprintf("%s ; ranks over %d records ; %s", desc, ss.ranks.records, p.pathDesc(ss.flwor.OrderBy.(*xquery.PathExpr)))
}

func tplDesc(ts *tplSpec) string {
	lit, dyn := ts.t.shape()
	return fmt.Sprintf("%s ; %d literal bytes, %d dynamic", trunc(ts.x.String(), 40), lit, dyn)
}

// predDesc notes a restrict: per container, the access a literal
// restrict makes on it (accessFor) — with, for a decoding scan of
// a string function, why no code automaton reads it — or how a join
// index built at compile time joined each pair of containers.
func predDesc(ps *predSpec) string {
	var b strings.Builder
	b.WriteString(trunc(ps.pd.Conj.String(), 40))
	switch {
	case ps.resolved && ps.fastOK && len(ps.conts) > 0:
		parts := make([]string, 0, len(ps.conts))
		for _, ct := range ps.conts {
			access, _, why := accessFor(ct, ps.pd.Op, ps.pd.Lit)
			part := fmt.Sprintf("%s[%s](%d recs) %s", ct.Path, ct.Codec().Name(), ct.Len(), access)
			if why != "" {
				part += " (" + why + ")"
			}
			parts = append(parts, part)
		}
		fmt.Fprintf(&b, " ; conts %s ; cost=%.1f", strings.Join(parts, ", "), ps.cost)
		if !ps.complete {
			b.WriteString(" incomplete")
		}
	case ps.resolved && ps.fastOK:
		b.WriteString(" ; no container holds a value, no candidate passes")
	case ps.resolved:
		fmt.Fprintf(&b, " ; deferred: %s", ps.why)
	case ps.idx != nil:
		fmt.Fprintf(&b, " ; index built at compile, %d partners", len(ps.idx.partners))
		if ps.whole {
			b.WriteString(", whole domain")
		}
		b.WriteString(" ; ")
		b.WriteString(joinsDesc(ps.idx.joins))
	default:
		b.WriteString(" ; runtime container resolution")
	}
	return b.String()
}

// joinsDesc names how a join index joined each pair of its containers,
// leading with "mixed" when the pairs were not all joined alike.
func joinsDesc(joins []containerJoin) string {
	parts := make([]string, len(joins))
	mixed := false
	for i, j := range joins {
		parts[i] = "HashJoin (decompress both sides): "
		if j.Merged {
			parts[i] = "MergeJoin on compressed bytes (shared source model): "
		}
		parts[i] += j.This.Path + " ⋈ " + j.Other.Path
		mixed = mixed || j.Merged != joins[0].Merged
	}
	if mixed {
		return "mixed: " + strings.Join(parts, "; ")
	}
	return strings.Join(parts, "; ")
}
