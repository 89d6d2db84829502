// Package galaxlike is the Figure-7 comparator: a straightforward
// in-memory XQuery evaluator over *uncompressed* XML, standing in for
// the optimized Galax prototype the paper measured against. Like Galax
// on the paper's laptop, it pays for a full document parse and
// materialization per query, evaluates correlated subqueries by naive
// re-scanning (no join indexes), and navigates the DOM rather than
// using any access structure. It shares the query AST with the XQueC
// engine and defines the reference semantics the compressed engine is
// differentially tested against.
package galaxlike

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xquec/internal/xmlparser"
	"xquec/internal/xquery"
)

// Engine evaluates queries over one XML document.
type Engine struct {
	src []byte
	// doc is the parsed document; when ParsePerQuery is set (the
	// default behaviour used in the benchmarks, matching how Galax
	// loads the document for every query run) it is rebuilt on Query.
	doc           *xmlparser.Document
	ParsePerQuery bool
}

// New returns an engine over the document source.
func New(src []byte) *Engine {
	return &Engine{src: src, ParsePerQuery: true}
}

// Item mirrors the engine item model over DOM nodes.
type Item interface{}

// Fragment is a constructed element.
type Fragment struct {
	Name    string
	Attrs   []FragAttr
	Content []Item
}

// FragAttr is a constructed attribute.
type FragAttr struct{ Name, Value string }

// Seq is a sequence of items.
type Seq []Item

// Result is a query result.
type Result struct{ Items Seq }

// Len returns the number of items.
func (r *Result) Len() int { return len(r.Items) }

// SerializeXML renders the result, one item per line.
func (r *Result) SerializeXML() (string, error) {
	var sb strings.Builder
	for i, it := range r.Items {
		if i > 0 {
			sb.WriteByte('\n')
		}
		b, err := serializeItem(nil, it)
		if err != nil {
			return "", err
		}
		sb.Write(b)
	}
	return sb.String(), nil
}

func serializeItem(dst []byte, it Item) ([]byte, error) {
	switch v := it.(type) {
	case *xmlparser.Node:
		return v.Serialize(dst), nil
	case string:
		return append(dst, v...), nil
	case float64:
		return append(dst, formatNum(v)...), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case *Fragment:
		dst = append(dst, '<')
		dst = append(dst, v.Name...)
		for _, a := range v.Attrs {
			dst = append(dst, ' ')
			dst = append(dst, a.Name...)
			dst = append(dst, '=', '"')
			dst = xmlparser.EscapeAttr(dst, a.Value)
			dst = append(dst, '"')
		}
		if len(v.Content) == 0 {
			return append(dst, '/', '>'), nil
		}
		dst = append(dst, '>')
		var err error
		for _, c := range v.Content {
			if s, ok := c.(string); ok {
				dst = xmlparser.EscapeText(dst, s)
				continue
			}
			dst, err = serializeItem(dst, c)
			if err != nil {
				return dst, err
			}
		}
		dst = append(dst, '<', '/')
		dst = append(dst, v.Name...)
		return append(dst, '>'), nil
	}
	return dst, fmt.Errorf("galaxlike: cannot serialize %T", it)
}

func formatNum(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Query parses and evaluates a query, (re)parsing the document first —
// the whole-document load the homomorphic systems and Galax pay (§2.3).
func (e *Engine) Query(src string) (*Result, error) {
	expr, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	if e.doc == nil || e.ParsePerQuery {
		doc, err := xmlparser.BuildDOM(e.src)
		if err != nil {
			return nil, err
		}
		e.doc = doc
	}
	env := &scope{vars: map[string]Seq{}}
	items, err := e.eval(expr, env)
	if err != nil {
		return nil, err
	}
	return &Result{Items: items}, nil
}

type scope struct {
	vars map[string]Seq
	ctx  Item
}

func (s *scope) clone() *scope {
	ns := &scope{vars: make(map[string]Seq, len(s.vars)), ctx: s.ctx}
	for k, v := range s.vars {
		ns.vars[k] = v
	}
	return ns
}

func (e *Engine) eval(expr xquery.Expr, env *scope) (Seq, error) {
	switch x := expr.(type) {
	case *xquery.StringLit:
		return Seq{x.Val}, nil
	case *xquery.NumberLit:
		return Seq{x.Val}, nil
	case *xquery.VarRef:
		if x.Name == "." {
			if env.ctx == nil {
				return nil, fmt.Errorf("galaxlike: no context item")
			}
			return Seq{env.ctx}, nil
		}
		s, ok := env.vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("galaxlike: unbound variable $%s", x.Name)
		}
		return s, nil
	case *xquery.Sequence:
		var out Seq
		for _, it := range x.Items {
			v, err := e.eval(it, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xquery.PathExpr:
		return e.evalPath(x, env)
	case *xquery.Cmp:
		b, err := e.evalCmp(x, env)
		if err != nil {
			return nil, err
		}
		return Seq{b}, nil
	case *xquery.Logic:
		lb, err := e.evalBool(x.Left, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" && !lb {
			return Seq{false}, nil
		}
		if x.Op == "or" && lb {
			return Seq{true}, nil
		}
		rb, err := e.evalBool(x.Right, env)
		if err != nil {
			return nil, err
		}
		return Seq{rb}, nil
	case *xquery.Arith:
		ln, err := e.evalNum(x.Left, env)
		if err != nil {
			return nil, err
		}
		rn, err := e.evalNum(x.Right, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return Seq{ln + rn}, nil
		case "-":
			return Seq{ln - rn}, nil
		case "*":
			return Seq{ln * rn}, nil
		case "div":
			return Seq{ln / rn}, nil
		case "mod":
			if int64(rn) == 0 {
				return nil, fmt.Errorf("galaxlike: %s mod %s: division by zero", formatNum(ln), formatNum(rn))
			}
			return Seq{float64(int64(ln) % int64(rn))}, nil
		}
		return nil, fmt.Errorf("galaxlike: bad arithmetic op %s", x.Op)
	case *xquery.Call:
		return e.evalCall(x, env)
	case *xquery.ElementCtor:
		return e.evalCtor(x, env)
	case *xquery.FLWOR:
		return e.evalFLWOR(x, env)
	}
	return nil, fmt.Errorf("galaxlike: unsupported expression %T", expr)
}

// evalFLWOR is deliberately naive: nested loops, WHERE evaluated per
// tuple, no indexes — the evaluation strategy the paper attributes to
// the uncompressed prototypes.
func (e *Engine) evalFLWOR(x *xquery.FLWOR, env *scope) (Seq, error) {
	var out Seq
	var keys []string
	var tuples []Seq
	var walk func(ci int, env *scope) error
	walk = func(ci int, env *scope) error {
		if ci == len(x.Clauses) {
			if x.Where != nil {
				ok, err := e.evalBool(x.Where, env)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			v, err := e.eval(x.Return, env)
			if err != nil {
				return err
			}
			if x.OrderBy != nil {
				kseq, err := e.eval(x.OrderBy, env)
				if err != nil {
					return err
				}
				katoms, err := e.atomize(kseq)
				if err != nil {
					return err
				}
				key := ""
				if len(katoms) > 0 {
					key = katoms[0]
				}
				keys = append(keys, key)
				tuples = append(tuples, v)
				return nil
			}
			out = append(out, v...)
			return nil
		}
		cl := x.Clauses[ci]
		seq, err := e.eval(cl.Seq, env)
		if err != nil {
			return err
		}
		if cl.Let {
			sub := env.clone()
			sub.vars[cl.Var] = seq
			return walk(ci+1, sub)
		}
		for _, it := range seq {
			sub := env.clone()
			sub.vars[cl.Var] = Seq{it}
			if err := walk(ci+1, sub); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, env); err != nil {
		return nil, err
	}
	for _, i := range sortedOrder(keys, x.OrderDesc) {
		out = append(out, tuples[i]...)
	}
	return out, nil
}

// sortedOrder is the engine's ORDER BY rule, restated: one comparison
// for the whole sort — numeric when every key is a number, plain string
// order otherwise — applied stably.
func sortedOrder(keys []string, desc bool) []int {
	order := make([]int, len(keys))
	nums := make([]float64, len(keys))
	numeric := true
	for i, k := range keys {
		order[i] = i
		if numeric {
			f, err := strconv.ParseFloat(strings.TrimSpace(k), 64)
			nums[i], numeric = f, err == nil && f == f
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

// evalPath walks the DOM.
func (e *Engine) evalPath(p *xquery.PathExpr, env *scope) (Seq, error) {
	var cur []*xmlparser.Node
	switch {
	case p.Var == "" && len(p.Steps) == 0:
		return nil, nil // the document node is no item of the engine's model
	case p.Var == "":
		cur = []*xmlparser.Node{docNode(e.doc)}
	case p.Var == ".":
		n, ok := env.ctx.(*xmlparser.Node)
		if !ok {
			return nil, fmt.Errorf("galaxlike: no context item")
		}
		cur = []*xmlparser.Node{n}
	default:
		seq, ok := env.vars[p.Var]
		if !ok {
			return nil, fmt.Errorf("galaxlike: unbound variable $%s", p.Var)
		}
		if len(p.Steps) == 0 {
			return seq, nil
		}
		for _, it := range seq {
			n, isNode := it.(*xmlparser.Node)
			if !isNode {
				return nil, fmt.Errorf("galaxlike: path over non-node item %T", it)
			}
			cur = append(cur, n)
		}
	}
	for i, step := range p.Steps {
		if step.Test == xquery.TestText {
			if i != len(p.Steps)-1 {
				return nil, fmt.Errorf("galaxlike: text() must be final")
			}
			var out Seq
			for _, n := range cur {
				if n.Kind == xmlparser.NodeAttr { // its value, as the engine has it
					out = append(out, n.Text)
					continue
				}
				var sb strings.Builder
				has := false
				for _, c := range n.Children {
					if c.Kind == xmlparser.NodeText {
						sb.WriteString(c.Text)
						has = true
					}
				}
				if has {
					out = append(out, sb.String())
				}
			}
			return out, nil
		}
		next, err := e.applyStep(cur, step, env)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	out := make(Seq, len(cur))
	for i, n := range cur {
		out[i] = n
	}
	return out, nil
}

// docNode wraps the document in a virtual parent so /site works.
func docNode(d *xmlparser.Document) *xmlparser.Node {
	return &xmlparser.Node{Kind: xmlparser.NodeElement, Name: "#document", Children: []*xmlparser.Node{d.Root}}
}

func (e *Engine) applyStep(cur []*xmlparser.Node, step xquery.Step, env *scope) ([]*xmlparser.Node, error) {
	var matched []*xmlparser.Node
	for _, n := range cur {
		var cands []*xmlparser.Node
		collect := func(c *xmlparser.Node) {
			switch step.Test {
			case xquery.TestAttr:
				for _, a := range c.Attrs {
					if a.Name == step.Name {
						cands = append(cands, a)
					}
				}
			case xquery.TestName:
				if c.Kind == xmlparser.NodeElement && (step.Name == "*" || c.Name == step.Name) {
					cands = append(cands, c)
				}
			}
		}
		if step.Axis == xquery.AxisChild {
			if step.Test == xquery.TestAttr {
				collect(n)
			} else {
				for _, c := range n.Children {
					collect(c)
				}
			}
		} else {
			// n//x is n/descendant-or-self::node()/x (XPath 1.0 §2.5):
			// an attribute step reaches n's own attributes too, an
			// element step only n's descendants.
			if step.Test == xquery.TestAttr {
				collect(n)
			}
			var walk func(c *xmlparser.Node)
			walk = func(c *xmlparser.Node) {
				for _, ch := range c.Children {
					collect(ch)
					walk(ch)
				}
			}
			walk(n)
		}
		// predicates, per origin node (positional semantics)
		sel := cands
		for _, pred := range step.Preds {
			var err error
			sel, err = e.filterPred(sel, pred, env)
			if err != nil {
				return nil, err
			}
		}
		matched = append(matched, sel...)
	}
	return dedupNodes(matched), nil
}

// dedupNodes removes duplicates and restores document order — path
// steps always yield document-ordered results regardless of the
// origin sequence's arrangement.
func dedupNodes(in []*xmlparser.Node) []*xmlparser.Node {
	seen := make(map[*xmlparser.Node]bool, len(in))
	out := in[:0]
	for _, n := range in {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

func (e *Engine) filterPred(cands []*xmlparser.Node, pred xquery.Expr, env *scope) ([]*xmlparser.Node, error) {
	switch p := pred.(type) {
	case *xquery.NumberLit:
		i := int(p.Val)
		if i < 1 || i > len(cands) {
			return nil, nil
		}
		return cands[i-1 : i], nil
	case *xquery.Call:
		if p.Name == "last" {
			if len(cands) == 0 {
				return nil, nil
			}
			return cands[len(cands)-1:], nil
		}
	}
	var out []*xmlparser.Node
	for _, n := range cands {
		sub := env.clone()
		sub.ctx = n
		ok, err := e.evalBool(pred, sub)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, n)
		}
	}
	return out, nil
}

func (e *Engine) evalBool(expr xquery.Expr, env *scope) (bool, error) {
	v, err := e.eval(expr, env)
	if err != nil {
		return false, err
	}
	return effectiveBool(v), nil
}

func effectiveBool(s Seq) bool {
	if len(s) == 0 {
		return false
	}
	if len(s) == 1 {
		switch v := s[0].(type) {
		case bool:
			return v
		case string:
			return v != ""
		case float64:
			return v != 0
		}
	}
	return true
}

func (e *Engine) evalCmp(x *xquery.Cmp, env *scope) (bool, error) {
	lv, err := e.eval(x.Left, env)
	if err != nil {
		return false, err
	}
	rv, err := e.eval(x.Right, env)
	if err != nil {
		return false, err
	}
	la, err := e.atomize(lv)
	if err != nil {
		return false, err
	}
	ra, err := e.atomize(rv)
	if err != nil {
		return false, err
	}
	for _, a := range la {
		for _, b := range ra {
			if compareAtoms(x.Op, a, b) {
				return true, nil
			}
		}
	}
	return false, nil
}

// compareAtoms compares numerically when both atoms parse as numbers, as
// strings otherwise. NaN is unordered: against it only != holds.
func compareAtoms(op, a, b string) bool {
	fa, ea := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, eb := strconv.ParseFloat(strings.TrimSpace(b), 64)
	var cmp int
	if ea == nil && eb == nil {
		switch {
		case fa != fa || fb != fb:
			return op == "!="
		case fa < fb:
			cmp = -1
		case fa > fb:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(a, b)
	}
	switch op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

func (e *Engine) evalNum(expr xquery.Expr, env *scope) (float64, error) {
	v, err := e.eval(expr, env)
	if err != nil {
		return 0, err
	}
	if len(v) != 1 {
		return 0, fmt.Errorf("galaxlike: arithmetic on %d items", len(v))
	}
	a, err := stringValue(v[0])
	if err != nil {
		return 0, err
	}
	f, err2 := strconv.ParseFloat(strings.TrimSpace(a), 64)
	if err2 != nil {
		return 0, fmt.Errorf("galaxlike: %q is not a number", a)
	}
	return f, nil
}

func stringValue(it Item) (string, error) {
	switch v := it.(type) {
	case *xmlparser.Node:
		if v.Kind == xmlparser.NodeAttr {
			return v.Text, nil
		}
		return v.TextContent(), nil
	case string:
		return v, nil
	case float64:
		return formatNum(v), nil
	case bool:
		return strconv.FormatBool(v), nil
	case *Fragment:
		var sb strings.Builder
		for _, c := range v.Content {
			s, err := stringValue(c)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		}
		return sb.String(), nil
	}
	return "", fmt.Errorf("galaxlike: cannot atomize %T", it)
}

func (e *Engine) atomize(s Seq) ([]string, error) {
	out := make([]string, 0, len(s))
	for _, it := range s {
		a, err := stringValue(it)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func (e *Engine) evalCtor(x *xquery.ElementCtor, env *scope) (Seq, error) {
	frag := &Fragment{Name: x.Name}
	for _, a := range x.Attrs {
		var sb strings.Builder
		for _, part := range a.Value {
			v, err := e.eval(part, env)
			if err != nil {
				return nil, err
			}
			atoms, err := e.atomize(v)
			if err != nil {
				return nil, err
			}
			sb.WriteString(strings.Join(atoms, " "))
		}
		frag.Attrs = append(frag.Attrs, FragAttr{Name: a.Name, Value: sb.String()})
	}
	for _, c := range x.Content {
		if lit, isLit := c.(*xquery.StringLit); isLit {
			if strings.TrimSpace(lit.Val) == "" {
				continue
			}
			frag.Content = append(frag.Content, lit.Val)
			continue
		}
		v, err := e.eval(c, env)
		if err != nil {
			return nil, err
		}
		frag.Content = append(frag.Content, v...)
	}
	return Seq{frag}, nil
}
