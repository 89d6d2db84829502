package xquery

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%s): %v", src, err)
	}
	return e
}

func TestParseSimplePath(t *testing.T) {
	e := mustParse(t, `document("auction.xml")/site/people/person`)
	pe, ok := e.(*PathExpr)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if pe.Doc != "auction.xml" || len(pe.Steps) != 3 {
		t.Fatalf("path = %+v", pe)
	}
	if pe.Steps[2].Name != "person" || pe.Steps[2].Axis != AxisChild {
		t.Fatalf("step = %+v", pe.Steps[2])
	}
}

func TestParseDescendantAndAttr(t *testing.T) {
	e := mustParse(t, `document("a")/site//item/@id`)
	pe := e.(*PathExpr)
	if pe.Steps[1].Axis != AxisDescendantOrSelf || pe.Steps[1].Name != "item" {
		t.Fatalf("// step: %+v", pe.Steps[1])
	}
	last := pe.Steps[2]
	if last.Test != TestAttr || last.Name != "id" {
		t.Fatalf("attr step: %+v", last)
	}
}

func TestParseTextStep(t *testing.T) {
	e := mustParse(t, `$b/name/text()`)
	pe := e.(*PathExpr)
	if pe.Var != "b" || pe.Steps[1].Test != TestText {
		t.Fatalf("%+v", pe)
	}
}

func TestParsePredicates(t *testing.T) {
	e := mustParse(t, `document("a")/site/people/person[@id = "person0"]/name`)
	pe := e.(*PathExpr)
	preds := pe.Steps[2].Preds
	if len(preds) != 1 {
		t.Fatalf("preds = %v", preds)
	}
	cmp, ok := preds[0].(*Cmp)
	if !ok || cmp.Op != "=" {
		t.Fatalf("pred = %+v", preds[0])
	}
	// positional
	e2 := mustParse(t, `$a/bidder[1]/increase`)
	pe2 := e2.(*PathExpr)
	if _, ok := pe2.Steps[0].Preds[0].(*NumberLit); !ok {
		t.Fatal("positional predicate not numeric")
	}
	// last()
	e3 := mustParse(t, `$a/bidder[last()]`)
	pe3 := e3.(*PathExpr)
	if c, ok := pe3.Steps[0].Preds[0].(*Call); !ok || c.Name != "last" {
		t.Fatal("last() predicate")
	}
}

func TestParseFLWOR(t *testing.T) {
	src := `FOR $b IN document("auction.xml")/site/people/person
	        LET $n := $b/name
	        WHERE $b/age > 30 AND contains($n, "Smith")
	        RETURN $n/text()`
	e := mustParse(t, src)
	f, ok := e.(*FLWOR)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if len(f.Clauses) != 2 || f.Clauses[0].Let || !f.Clauses[1].Let {
		t.Fatalf("clauses = %+v", f.Clauses)
	}
	if f.Where == nil || f.Return == nil {
		t.Fatal("missing where/return")
	}
	logic, ok := f.Where.(*Logic)
	if !ok || logic.Op != "and" {
		t.Fatalf("where = %+v", f.Where)
	}
}

func TestParseNestedFLWOR(t *testing.T) {
	src := `for $p in document("a")/site/people/person
	        let $a := for $t in document("a")/site/closed_auctions/closed_auction
	                  where $t/buyer/@person = $p/@id
	                  return $t
	        return count($a)`
	e := mustParse(t, src)
	f := e.(*FLWOR)
	inner, ok := f.Clauses[1].Seq.(*FLWOR)
	if !ok {
		t.Fatalf("let is %T", f.Clauses[1].Seq)
	}
	if inner.Where == nil {
		t.Fatal("inner where missing")
	}
	if c, ok := f.Return.(*Call); !ok || c.Name != "count" {
		t.Fatalf("return = %+v", f.Return)
	}
}

func TestParseElementConstructor(t *testing.T) {
	src := `for $i in document("a")/site/people/person
	        return <person name="{$i/name/text()}" id="x{$i/@id}">
	                 <bold>hi</bold>{$i/age/text()}
	               </person>`
	e := mustParse(t, src)
	f := e.(*FLWOR)
	ctor, ok := f.Return.(*ElementCtor)
	if !ok {
		t.Fatalf("return = %T", f.Return)
	}
	if ctor.Name != "person" || len(ctor.Attrs) != 2 {
		t.Fatalf("ctor = %+v", ctor)
	}
	if len(ctor.Attrs[1].Value) != 2 {
		t.Fatalf("templated attr = %+v", ctor.Attrs[1].Value)
	}
	var kinds []string
	for _, c := range ctor.Content {
		switch c.(type) {
		case *StringLit:
			kinds = append(kinds, "text")
		case *ElementCtor:
			kinds = append(kinds, "elem")
		default:
			kinds = append(kinds, "expr")
		}
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "elem") || !strings.Contains(joined, "expr") {
		t.Fatalf("content kinds = %v", kinds)
	}
}

func TestParseSelfClosingCtor(t *testing.T) {
	e := mustParse(t, `<empty a="1"/>`)
	ctor := e.(*ElementCtor)
	if ctor.Name != "empty" || len(ctor.Content) != 0 || len(ctor.Attrs) != 1 {
		t.Fatalf("%+v", ctor)
	}
}

func TestParseFunctionsAndArith(t *testing.T) {
	e := mustParse(t, `count(document("a")/site/items) + sum($x) * 2 - avg($y)`)
	add, ok := e.(*Arith)
	if !ok || add.Op != "-" {
		t.Fatalf("top = %+v", e)
	}
	e2 := mustParse(t, `contains($i/description, "gold")`)
	c := e2.(*Call)
	if c.Name != "contains" || len(c.Args) != 2 {
		t.Fatalf("%+v", c)
	}
	e3 := mustParse(t, `5.5 div 2 mod 3`)
	if _, ok := e3.(*Arith); !ok {
		t.Fatalf("%T", e3)
	}
}

func TestParseIfExpr(t *testing.T) {
	e := mustParse(t, `if ($a > 1) then "big" else "small"`)
	c, ok := e.(*Call)
	if !ok || c.Name != "if" || len(c.Args) != 3 {
		t.Fatalf("%+v", e)
	}
}

func TestParseSequenceAndComments(t *testing.T) {
	e := mustParse(t, `(: a comment (: nested :) :) ("a", "b", 3)`)
	seq, ok := e.(*Sequence)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("%+v", e)
	}
	e2 := mustParse(t, `()`)
	if seq2 := e2.(*Sequence); len(seq2.Items) != 0 {
		t.Fatal("empty sequence")
	}
}

func TestParseKeywordComparisons(t *testing.T) {
	e := mustParse(t, `$a/price ge 40`)
	cmp := e.(*Cmp)
	if cmp.Op != ">=" {
		t.Fatalf("op = %s", cmp.Op)
	}
}

func TestParseOrderBy(t *testing.T) {
	e := mustParse(t, `for $p in document("a")/site/people/person order by $p/name return $p`)
	f := e.(*FLWOR)
	if f.OrderBy == nil {
		t.Fatal("order by lost")
	}
}

func TestParseWildcardStep(t *testing.T) {
	e := mustParse(t, `document("a")/site/*/item`)
	pe := e.(*PathExpr)
	if pe.Steps[1].Name != "*" {
		t.Fatalf("%+v", pe.Steps[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x return $x`,
		`for $x in document("a")/site`,
		`let $x = 5 return $x`,
		`$a/`,
		`count(`,
		`<a><b></a></b>`,
		`"unterminated`,
		`document(name)`,
		`if ($a) then 1`,
		`$x ++ 3`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("no error for %q", src)
		} else if _, ok := err.(*ParseError); !ok {
			t.Fatalf("error type %T for %q", err, src)
		}
	}
}

// TestParseErrorLineColumn: a parse error names the line and column its
// byte offset falls on, the column counted in characters.
func TestParseErrorLineColumn(t *testing.T) {
	for _, c := range []struct {
		src             string
		line, col, byte int
	}{
		{"for $p in /site/people/person\nwhere $p/age > 30\nreturn $p/name )", 3, 16, 63},
		{"for $p in /site/people/person\r\nwhere $p/name = \"e\"\r\nreturn \"é\" )", 3, 12, 64},
		{"count(/a)\n\n  ((", 3, 3, 13},
		{"$x ++ 3", 1, 5, 4},
	} {
		_, err := Parse(c.src)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%q: error %v is not a ParseError", c.src, err)
		}
		if pe.Line != c.line || pe.Col != c.col || pe.Pos != c.byte {
			t.Errorf("%q: at line %d, column %d, byte %d; want %d, %d, %d", c.src, pe.Line, pe.Col, pe.Pos, c.line, c.col, c.byte)
		}
		want := fmt.Sprintf("xquery: parse error at line %d, column %d (byte %d): ", c.line, c.col, c.byte)
		if !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%q: %q does not start %q", c.src, err, want)
		}
	}
}

func TestStringRoundTripish(t *testing.T) {
	// String() output should itself be parseable for plain expressions.
	srcs := []string{
		`for $b in document("a.xml")/site/people/person where $b/age > 30 return $b/name/text()`,
		`count(document("a")/site//item)`,
	}
	for _, src := range srcs {
		e := mustParse(t, src)
		if _, err := Parse(e.String()); err != nil {
			t.Fatalf("String() of %q not reparseable: %v\n%s", src, err, e.String())
		}
	}
}

func TestDocFunctionAlias(t *testing.T) {
	e := mustParse(t, `doc("x.xml")/root`)
	pe := e.(*PathExpr)
	if pe.Doc != "x.xml" {
		t.Fatalf("%+v", pe)
	}
}

func TestEscapedQuotes(t *testing.T) {
	e := mustParse(t, `"she said ""hi"""`)
	if s := e.(*StringLit); s.Val != `she said "hi"` {
		t.Fatalf("%q", s.Val)
	}
}

// TestParseDepthLimit: every way a query nests — parentheses, a unary
// minus chain, predicates, FLWORs, constructors and their enclosed
// expressions — is a ParseError past maxDepth levels, however deep the
// input, and parses below it.
func TestParseDepthLimit(t *testing.T) {
	nest := func(n int, open, mid, close string) string {
		return strings.Repeat(open, n) + mid + strings.Repeat(close, n)
	}
	shapes := map[string]func(n int) string{
		"parens":      func(n int) string { return nest(n, "(", "1", ")") },
		"unary minus": func(n int) string { return strings.Repeat("-", n) + "1" },
		"predicates":  func(n int) string { return "/a" + nest(n, "[b", "", "]") },
		"flwors":      func(n int) string { return strings.Repeat("for $x in /a return ", n) + "$x" },
		"ctors":       func(n int) string { return nest(n, "<e>", "", "</e>") },
		"enclosed":    func(n int) string { return nest(n, "<e>{", "1", "}</e>") },
	}
	for name, shape := range shapes {
		if _, err := Parse(shape(maxDepth / 4)); err != nil {
			t.Errorf("%s at depth %d: %v", name, maxDepth/4, err)
		}
		for _, n := range []int{maxDepth + 1, 400000} {
			_, err := Parse(shape(n))
			var pe *ParseError
			if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nests deeper") {
				t.Errorf("%s at depth %d: err = %v, want the nesting ParseError", name, n, err)
			}
		}
	}
}

// TestPathSlotsDistinct pins that Parse numbers every path of a query,
// those inside constructor braces and predicates too, each differently.
func TestPathSlotsDistinct(t *testing.T) {
	src := `for $i in document("a")/site/people/person[@id = "p1" and name]
	        where count($i/watches/watch) > 0
	        return <person name="{$i/name/text()}" id="x{$i/@id}">{$i/age/text()}{
	                 for $w in $i/watches/watch return <w a="{$w/@open_auction}"/>}</person>`
	seen := map[int]string{}
	var walk func(x Expr)
	walk = func(x Expr) {
		if p, ok := x.(*PathExpr); ok {
			if p.Slot <= 0 || seen[p.Slot] != "" {
				t.Errorf("%s has slot %d (already %q)", p, p.Slot, seen[p.Slot])
			}
			seen[p.Slot] = p.String()
		}
		for _, c := range Children(x) {
			walk(c)
		}
	}
	walk(mustParse(t, src))
	if len(seen) != 9 {
		t.Errorf("%d paths numbered, want 9: %v", len(seen), seen)
	}
}
