package xquery

import (
	"fmt"
	"strings"
)

// Parse parses a complete query.
func Parse(src string) (_ Expr, err error) {
	defer func() {
		if pe, ok := err.(*ParseError); ok {
			pe.locate(src)
		}
	}()
	p := &parser{lex: &lexer{src: []byte(src)}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after query", p.tok)
	}
	return e, nil
}

type parser struct {
	lex *lexer
	tok token
	// depth counts the nested parseExprSingle, unary-minus and
	// constructor calls in progress, so a deeply nested query is a
	// ParseError rather than a goroutine stack overflow.
	depth int
	// paths counts the paths built so far: the last one's Slot.
	paths int
	// binders counts the clauses built so far: the last one's Binder.
	// scope holds the clauses whose variables are in scope where the
	// parser stands, innermost last.
	binders int
	scope   []scoped
}

// scoped is a clause in scope: its variable and its Binder.
type scoped struct {
	name   string
	binder int
}

// resolve returns the Binder of the innermost clause in scope that binds
// name, 0 when none does.
func (p *parser) resolve(name string) int {
	for i := len(p.scope) - 1; i >= 0; i-- {
		if p.scope[i].name == name {
			return p.scope[i].binder
		}
	}
	return 0
}

// path numbers pe, a path just built, and returns it.
func (p *parser) path(pe *PathExpr) *PathExpr {
	p.paths++
	pe.Slot = p.paths
	return pe
}

// maxDepth bounds the nesting a query may use. Each level costs the
// recursive-descent chain a handful of stack frames, and the compiler and
// evaluator recurse on the tree the parser builds.
const maxDepth = 1000

// enter descends one nesting level, failing past maxDepth; the caller
// defers leave once enter succeeds.
func (p *parser) enter() error {
	if p.depth >= maxDepth {
		return p.errf("query nests deeper than %d levels", maxDepth)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// expectSymbol consumes the given symbol token.
func (p *parser) expectSymbol(s string) error {
	if p.tok.kind != tokSymbol || p.tok.text != s {
		return p.errf("expected %q, got %s", s, p.tok)
	}
	return p.advance()
}

func (p *parser) isSymbol(s string) bool {
	return p.tok.kind == tokSymbol && p.tok.text == s
}

func (p *parser) isKeyword(k string) bool {
	return p.tok.kind == tokName && strings.EqualFold(p.tok.text, k)
}

// parseExprSingle parses a FLWOR or an operator expression.
func (p *parser) parseExprSingle() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.isKeyword("for") || p.isKeyword("let") {
		return p.parseFLWOR()
	}
	if p.isKeyword("if") {
		return p.parseIf()
	}
	return p.parseOperators(bpOr)
}

// parseFLWOR parses a FLWOR, numbering each clause once its source is
// parsed — the source does not see the clause's own variable — and
// keeping the clauses in scope through the RETURN.
func (p *parser) parseFLWOR() (Expr, error) {
	f := &FLWOR{}
	outer := len(p.scope)
	for p.isKeyword("for") || p.isKeyword("let") {
		isLet := p.isKeyword("let")
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			if p.tok.kind != tokVar {
				return nil, p.errf("expected $variable, got %s", p.tok)
			}
			name := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if isLet {
				if err := p.expectSymbol(":="); err != nil {
					return nil, err
				}
			} else {
				if !p.isKeyword("in") {
					return nil, p.errf("expected 'in', got %s", p.tok)
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			seq, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			p.binders++
			f.Clauses = append(f.Clauses, Clause{Var: name, Seq: seq, Let: isLet, Binder: p.binders})
			p.scope = append(p.scope, scoped{name, p.binders})
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	if p.isKeyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isKeyword("by") {
			return nil, p.errf("expected 'by' after 'order'")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		ob, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		f.OrderBy = ob
		if p.isKeyword("descending") {
			f.OrderDesc = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else if p.isKeyword("ascending") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if !p.isKeyword("return") {
		return nil, p.errf("expected 'return', got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	f.Return = ret
	p.scope = p.scope[:outer]
	return f, nil
}

// parseIf desugars "if (c) then a else b" into a Call so evaluators
// handle it uniformly.
func (p *parser) parseIf() (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if !p.isKeyword("then") {
		return nil, p.errf("expected 'then'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	thenE, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if !p.isKeyword("else") {
		return nil, p.errf("expected 'else'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	elseE, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &Call{Name: "if", Args: []Expr{cond, thenE, elseE}}, nil
}

// Binding powers of the operators, loosest first.
const (
	bpOr = iota + 1
	bpAnd
	bpCmp
	bpAdd
	bpMul
	bpUnary
)

// infixOp is an infix operator: the Op of the node it builds, and how
// tightly it binds. Or and and build a Logic, comparisons a Cmp, the
// others an Arith.
type infixOp struct {
	op string
	bp int
}

// symbolOps and keywordOps are the infix operators by token; a keyword
// matches in any case (isKeyword).
var (
	symbolOps = map[string]infixOp{
		"=": {"=", bpCmp}, "!=": {"!=", bpCmp}, "<=": {"<=", bpCmp}, ">=": {">=", bpCmp}, "<": {"<", bpCmp}, ">": {">", bpCmp},
		"+": {"+", bpAdd}, "-": {"-", bpAdd}, "*": {"*", bpMul},
	}
	keywordOps = []struct {
		kw string
		infixOp
	}{
		{"or", infixOp{"or", bpOr}}, {"and", infixOp{"and", bpAnd}},
		{"eq", infixOp{"=", bpCmp}}, {"ne", infixOp{"!=", bpCmp}}, {"lt", infixOp{"<", bpCmp}},
		{"le", infixOp{"<=", bpCmp}}, {"gt", infixOp{">", bpCmp}}, {"ge", infixOp{">=", bpCmp}},
		{"div", infixOp{"div", bpMul}}, {"mod", infixOp{"mod", bpMul}},
	}
)

// parseOperators parses an operator expression whose infix operators
// bind at least as tightly as minBP: a prefix — a unary minus, which
// binds tighter than every infix operator, or a path — and then each
// infix operator with its right operand parsed one level tighter, so
// operators of a level associate to the left. A comparison does not
// chain: `a = b = c` is an error.
func (p *parser) parseOperators(minBP int) (Expr, error) {
	var left Expr
	if p.isSymbol("-") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOperators(bpUnary)
		if err != nil {
			return nil, err
		}
		p.leave()
		left = &Arith{Op: "-", Left: &NumberLit{Val: 0}, Right: e}
	} else {
		e, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		left = e
	}
	ceil := bpUnary
	for {
		var o infixOp
		var ok bool
		switch p.tok.kind {
		case tokSymbol:
			o, ok = symbolOps[p.tok.text]
		case tokName:
			for _, k := range keywordOps {
				if ok = p.isKeyword(k.kw); ok {
					o = k.infixOp
					break
				}
			}
		}
		if !ok || o.bp < minBP || o.bp >= ceil {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseOperators(o.bp + 1)
		if err != nil {
			return nil, err
		}
		switch o.bp {
		case bpOr, bpAnd:
			left = &Logic{Op: o.op, Left: left, Right: right}
		case bpCmp:
			left = &Cmp{Op: o.op, Left: left, Right: right}
		default:
			left = &Arith{Op: o.op, Left: left, Right: right}
		}
		// A tighter operator after right was one right could not take:
		// a second comparison, which left takes no more than right did.
		ceil = o.bp + 1
		if o.bp == bpCmp {
			ceil = bpCmp
		}
	}
}

// parsePostfix parses a primary expression followed by path steps.
func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.isSymbol("/") || p.isSymbol("//") {
		pe, ok := e.(*PathExpr)
		if !ok {
			// steps from a non-path origin: wrap variables only
			if v, isVar := e.(*VarRef); isVar {
				pe = p.path(&PathExpr{Var: v.Name, Binder: v.Binder})
			} else {
				return nil, p.errf("path steps are only supported from variables or document()")
			}
		}
		steps, err := p.parseSteps()
		if err != nil {
			return nil, err
		}
		pe.Steps = append(pe.Steps, steps...)
		return pe, nil
	}
	return e, nil
}

func (p *parser) parseSteps() ([]Step, error) {
	var steps []Step
	for p.isSymbol("/") || p.isSymbol("//") {
		axis := AxisChild
		if p.isSymbol("//") {
			axis = AxisDescendantOrSelf
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		st := Step{Axis: axis}
		switch {
		case p.isSymbol("@"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokName {
				return nil, p.errf("expected attribute name after @")
			}
			st.Test = TestAttr
			st.Name = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.isSymbol("*"):
			st.Test = TestName
			st.Name = "*"
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.kind == tokName:
			name := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if name == "text" && p.isSymbol("(") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				st.Test = TestText
			} else {
				st.Test = TestName
				st.Name = name
			}
		default:
			return nil, p.errf("expected step after /, got %s", p.tok)
		}
		for p.isSymbol("[") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			pred, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
			st.Preds = append(st.Preds, pred)
		}
		steps = append(steps, st)
	}
	return steps, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tokVar:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &VarRef{Name: name, Binder: p.resolve(name)}, nil
	case p.tok.kind == tokString:
		v := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &StringLit{Val: v}, nil
	case p.tok.kind == tokNumber:
		v := p.tok.num
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &NumberLit{Val: v}, nil
	case p.isSymbol("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isSymbol(")") { // empty sequence
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Sequence{}, nil
		}
		first, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		if p.isSymbol(",") {
			seq := &Sequence{Items: []Expr{first}}
			for p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				item, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				seq.Items = append(seq.Items, item)
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return seq, nil
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return first, nil
	case p.isSymbol("/") || p.isSymbol("//"):
		// absolute path on the (single) context document
		pe := p.path(&PathExpr{})
		steps, err := p.parseSteps()
		if err != nil {
			return nil, err
		}
		pe.Steps = steps
		return pe, nil
	case p.isSymbol("<"):
		return p.parseElementCtor()
	case p.isSymbol("@"):
		// context-relative attribute path (inside predicates)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokName {
			return nil, p.errf("expected attribute name after @")
		}
		pe := p.path(&PathExpr{Var: ".", Steps: []Step{{Test: TestAttr, Name: p.tok.text}}})
		return pe, p.advance()
	case p.isSymbol("."):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.path(&PathExpr{Var: "."}), nil
	case p.tok.kind == tokName:
		rawName := p.tok.text
		name := strings.ToLower(rawName)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isSymbol("(") {
			// context-relative child path step (inside predicates)
			pe := p.path(&PathExpr{Var: ".", Steps: []Step{{Test: TestName, Name: rawName}}})
			for p.isSymbol("[") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				pred, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol("]"); err != nil {
					return nil, err
				}
				pe.Steps[0].Preds = append(pe.Steps[0].Preds, pred)
			}
			return pe, nil
		}
		if name == "text" {
			// text() as a context-relative step
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return p.path(&PathExpr{Var: ".", Steps: []Step{{Test: TestText}}}), nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if name == "document" || name == "doc" {
			if p.tok.kind != tokString {
				return nil, p.errf("document() needs a string literal")
			}
			doc := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return p.path(&PathExpr{Doc: doc}), nil
		}
		call := &Call{Name: name}
		if !p.isSymbol(")") {
			for {
				arg, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.isSymbol(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	return nil, p.errf("unexpected token %s", p.tok)
}

// parseElementCtor parses a direct element constructor. The '<' has been
// seen (current token). Constructor bodies are scanned raw from the
// lexer source.
func (p *parser) parseElementCtor() (Expr, error) {
	// Reposition the raw cursor at '<': current token is '<', so the
	// lexer position is just past it.
	start := p.tok.pos
	p.lex.pos = start
	ctor, err := p.scanCtor()
	if err != nil {
		return nil, err
	}
	return ctor, p.advance()
}

// scanCtor consumes a constructor from the raw source, leaving the
// lexer position after its closing tag.
func (p *parser) scanCtor() (*ElementCtor, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l := p.lex
	if l.src[l.pos] != '<' {
		return nil, l.errf(l.pos, "expected '<'")
	}
	l.pos++
	name := l.name()
	if name == "" {
		return nil, l.errf(l.pos, "expected element name in constructor")
	}
	ctor := &ElementCtor{Name: name}
	for {
		l.skipSpaceRaw()
		if l.pos >= len(l.src) {
			return nil, l.errf(l.pos, "unterminated constructor <%s>", name)
		}
		switch l.src[l.pos] {
		case '/':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
				l.pos += 2
				return ctor, nil
			}
			return nil, l.errf(l.pos, "malformed constructor tag")
		case '>':
			l.pos++
			if err := p.scanCtorContent(ctor, name); err != nil {
				return nil, err
			}
			return ctor, nil
		default:
			aname := l.name()
			if aname == "" {
				return nil, l.errf(l.pos, "expected attribute name in <%s>", name)
			}
			l.skipSpaceRaw()
			if l.pos >= len(l.src) || l.src[l.pos] != '=' {
				return nil, l.errf(l.pos, "attribute %s missing '='", aname)
			}
			l.pos++
			l.skipSpaceRaw()
			attr := CtorAttr{Name: aname}
			if l.pos < len(l.src) && (l.src[l.pos] == '"' || l.src[l.pos] == '\'') {
				quote := l.src[l.pos]
				l.pos++
				parts, err := p.scanTemplate(func() bool { return l.src[l.pos] == quote })
				if err != nil {
					return nil, err
				}
				l.pos++ // closing quote
				attr.Value = parts
			} else if l.pos < len(l.src) && l.src[l.pos] == '{' {
				e, err := p.scanEmbedded()
				if err != nil {
					return nil, err
				}
				attr.Value = []Expr{e}
			} else {
				return nil, l.errf(l.pos, "attribute %s needs a quoted value or {expr}", aname)
			}
			ctor.Attrs = append(ctor.Attrs, attr)
		}
	}
}

// scanCtorContent scans constructor content up to </name>.
func (p *parser) scanCtorContent(ctor *ElementCtor, name string) error {
	l := p.lex
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			ctor.Content = append(ctor.Content, &StringLit{Val: text.String()})
			text.Reset()
		}
	}
	for {
		if l.pos >= len(l.src) {
			return l.errf(l.pos, "unterminated content of <%s>", name)
		}
		c := l.src[l.pos]
		switch c {
		case '<':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
				flush()
				l.pos += 2
				got := l.name()
				if got != name {
					return l.errf(l.pos, "mismatched constructor: </%s> closes <%s>", got, name)
				}
				l.skipSpaceRaw()
				if l.pos >= len(l.src) || l.src[l.pos] != '>' {
					return l.errf(l.pos, "malformed </%s>", got)
				}
				l.pos++
				return nil
			}
			flush()
			sub, err := p.scanCtor()
			if err != nil {
				return err
			}
			ctor.Content = append(ctor.Content, sub)
		case '{':
			flush()
			e, err := p.scanEmbedded()
			if err != nil {
				return err
			}
			ctor.Content = append(ctor.Content, e)
		default:
			text.WriteByte(c)
			l.pos++
		}
	}
}

// scanTemplate scans literal text with {expr} interpolations until the
// stop condition holds at the current position.
func (p *parser) scanTemplate(stop func() bool) ([]Expr, error) {
	l := p.lex
	var parts []Expr
	var text strings.Builder
	for {
		if l.pos >= len(l.src) {
			return nil, l.errf(l.pos, "unterminated template")
		}
		if stop() {
			if text.Len() > 0 {
				parts = append(parts, &StringLit{Val: text.String()})
			}
			return parts, nil
		}
		if l.src[l.pos] == '{' {
			if text.Len() > 0 {
				parts = append(parts, &StringLit{Val: text.String()})
				text.Reset()
			}
			e, err := p.scanEmbedded()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
			continue
		}
		text.WriteByte(l.src[l.pos])
		l.pos++
	}
}

// scanEmbedded parses a {expr} block starting at '{'.
func (p *parser) scanEmbedded() (Expr, error) {
	l := p.lex
	l.pos++ // consume '{'
	sub := &parser{lex: l, depth: p.depth, paths: p.paths, binders: p.binders, scope: p.scope}
	if err := sub.advance(); err != nil {
		return nil, err
	}
	e, err := sub.parseExprSingle()
	if err != nil {
		return nil, err
	}
	p.paths, p.binders = sub.paths, sub.binders
	if !sub.isSymbol("}") {
		return nil, l.errf(sub.tok.pos, "expected '}' after embedded expression")
	}
	// The sub-parser consumed tokens through '}'; its lexer (shared)
	// position is already correct.
	return e, nil
}

// skipSpaceRaw skips whitespace without comment handling (inside
// constructors).
func (l *lexer) skipSpaceRaw() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		return
	}
}
