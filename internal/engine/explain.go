package engine

import (
	"fmt"
	"slices"
	"strings"

	"xquec/internal/algebra"
	"xquec/internal/storage"
	"xquec/internal/xquery"
)

// Explain renders the evaluation strategy for a query without running
// it: which paths are answered from the structure summary, which WHERE
// conjuncts are pushed into FOR domains as compressed-domain container
// matches, and which joins can run as compressed merge joins (shared
// source model) versus decompressing hash joins — the information a
// Fig. 5-style QEP conveys.
func (e *Engine) Explain(src string) (string, error) {
	expr, err := xquery.Parse(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	e.explain(&sb, expr, map[string][]*storage.SummaryNode{}, 0)
	return sb.String(), nil
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func (e *Engine) explain(sb *strings.Builder, expr xquery.Expr, varSums map[string][]*storage.SummaryNode, depth int) {
	switch x := expr.(type) {
	case *xquery.FLWOR:
		e.explainFLWOR(sb, x, varSums, depth)
	case *xquery.PathExpr:
		indent(sb, depth)
		sums, exact := e.staticPath(x, varSums)
		fmt.Fprintf(sb, "Path %s: %s\n", x, describeAccess(sums, exact))
	case *xquery.Call:
		indent(sb, depth)
		fmt.Fprintf(sb, "%s(...)\n", x.Name)
		for _, a := range x.Args {
			e.explain(sb, a, varSums, depth+1)
		}
	case *xquery.Cmp:
		indent(sb, depth)
		fmt.Fprintf(sb, "Compare %s\n", x.Op)
		e.explain(sb, x.Left, varSums, depth+1)
		e.explain(sb, x.Right, varSums, depth+1)
	case *xquery.Logic:
		e.explain(sb, x.Left, varSums, depth)
		e.explain(sb, x.Right, varSums, depth)
	case *xquery.ElementCtor:
		indent(sb, depth)
		fmt.Fprintf(sb, "Construct <%s> (XMLSerialize decompresses on output)\n", x.Name)
		for _, c := range x.Content {
			if _, isLit := c.(*xquery.StringLit); isLit {
				continue
			}
			e.explain(sb, c, varSums, depth+1)
		}
	case *xquery.Sequence:
		for _, it := range x.Items {
			e.explain(sb, it, varSums, depth)
		}
	}
}

func (e *Engine) explainFLWOR(sb *strings.Builder, x *xquery.FLWOR, varSums map[string][]*storage.SummaryNode, depth int) {
	plan := PlanFLWOR(x)
	local := map[string][]*storage.SummaryNode{}
	for k, v := range varSums {
		local[k] = v
	}
	indent(sb, depth)
	sb.WriteString("FLWOR\n")
	for ci, cl := range x.Clauses {
		indent(sb, depth+1)
		kw := "FOR"
		if cl.Let {
			kw = "LET"
		}
		if p, isPath := cl.Seq.(*xquery.PathExpr); isPath {
			sums, exact := e.staticPath(p, local)
			local[cl.Var] = sums
			fmt.Fprintf(sb, "%s $%s IN %s: %s\n", kw, cl.Var, p, describeAccess(sums, exact))
		} else {
			fmt.Fprintf(sb, "%s $%s IN %s\n", kw, cl.Var, cl.Seq)
			if inner, isF := cl.Seq.(*xquery.FLWOR); isF {
				e.explainFLWOR(sb, inner, local, depth+2)
			}
		}
		for _, pd := range plan.Pushdowns[ci] {
			indent(sb, depth+2)
			if pd.IsLit {
				sb.WriteString(e.describeLitPushdown(local[cl.Var], pd))
			} else {
				sb.WriteString(e.describeJoinPushdown(local[cl.Var], local[pd.OtherVar], pd))
			}
			sb.WriteByte('\n')
		}
	}
	for _, c := range plan.Residual {
		indent(sb, depth+1)
		fmt.Fprintf(sb, "WHERE (residual, tuple-at-a-time): %s\n", c)
	}
	indent(sb, depth+1)
	sb.WriteString("RETURN\n")
	e.explain(sb, x.Return, local, depth+2)
}

// staticPath resolves a path's summary nodes without touching extents;
// exact mirrors pathState.exact.
func (e *Engine) staticPath(p *xquery.PathExpr, varSums map[string][]*storage.SummaryNode) ([]*storage.SummaryNode, bool) {
	pl := e.resolvePath(p, varSums[p.Var])
	return pl.Sums(), pl.plain
}

func describeAccess(sums []*storage.SummaryNode, exact bool) string {
	if len(sums) == 0 {
		return "no matching paths (statically empty)"
	}
	total := 0
	paths := make([]string, 0, len(sums))
	for _, sn := range sums {
		total += len(sn.Extent)
		paths = append(paths, sn.Path())
	}
	op := "StructureSummaryAccess"
	if !exact {
		op = "summary-guided navigation"
	}
	return fmt.Sprintf("%s %s (%d nodes)", op, strings.Join(paths, " ∪ "), total)
}

func (e *Engine) describeLitPushdown(sums []*storage.SummaryNode, pd Pushdown) string {
	conts, _, ok := e.relValueTarget(sums, pd.Rel)
	if !ok || len(conts) == 0 {
		return fmt.Sprintf("pushdown %s: no container resolved, tuple-at-a-time fallback", pd.Conj)
	}
	var parts []string
	for _, c := range conts {
		props := c.Codec().Props()
		mode := "decompressing ContScan"
		switch {
		case pd.Op == "=" && props.Eq:
			mode = "ContAccess eq on compressed bytes"
		case pd.Op != "=" && pd.Op != "!=" && props.OrderPreserving:
			mode = "ContAccess range on compressed bytes"
		}
		parts = append(parts, fmt.Sprintf("%s [%s, %s]", c.Path, c.Codec().Name(), mode))
	}
	return fmt.Sprintf("pushdown %s -> %s", pd.Conj, strings.Join(parts, "; "))
}

// describeJoinPushdown names the join's strategy. JoinContainers decides
// it per pair of containers, so the description does too: one strategy
// when every pair agrees, else each pair's.
func (e *Engine) describeJoinPushdown(sums, otherSums []*storage.SummaryNode, pd Pushdown) string {
	thisConts, _, ok1 := e.relValueTarget(sums, pd.RelThis)
	otherConts, _, ok2 := e.relValueTarget(otherSums, pd.RelOther)
	if !ok1 || !ok2 || len(thisConts) == 0 || len(otherConts) == 0 {
		return fmt.Sprintf("join %s: containers unresolved, tuple-at-a-time fallback", pd.Conj)
	}
	var pairs, strategies []string
	for _, tc := range thisConts {
		for _, oc := range otherConts {
			strategy := "HashJoin (decompress both sides)"
			if algebra.SameModel(tc, oc) && tc.Codec().Props().OrderPreserving {
				strategy = "MergeJoin on compressed bytes (shared source model)"
			}
			pairs = append(pairs, fmt.Sprintf("%s ⋈ %s", tc.Path, oc.Path))
			strategies = append(strategies, strategy)
		}
	}
	if !slices.ContainsFunc(strategies, func(s string) bool { return s != strategies[0] }) {
		return fmt.Sprintf("join %s -> %s: %s", pd.Conj, strategies[0], strings.Join(pairs, "; "))
	}
	for i := range pairs {
		pairs[i] = strategies[i] + ": " + pairs[i]
	}
	return fmt.Sprintf("join %s -> mixed: %s", pd.Conj, strings.Join(pairs, "; "))
}
