// Package xquery implements the front-end of the XQueC query processor
// (Fig. 1, module 3): a lexer, a recursive-descent parser and the AST
// for the XQuery fragment the paper's experiments exercise — FLWOR
// expressions (nested, with multiple FOR/LET bindings), absolute and
// relative path expressions with the child and descendant-or-self axes,
// attribute steps, positional and value predicates, general comparisons,
// arithmetic, the aggregate and string functions used by the XMark
// queries, and direct element constructors.
package xquery

import (
	"fmt"
	"strings"
)

// Expr is any AST node.
type Expr interface {
	exprNode()
	String() string
}

// FLWOR is a for/let/where/return expression.
type FLWOR struct {
	Clauses   []Clause // ForClause or LetClause, in source order
	Where     Expr     // nil if absent
	OrderBy   Expr     // nil if absent (single key)
	OrderDesc bool     // order by ... descending
	Return    Expr
}

// Clause is a FOR or LET binding.
type Clause struct {
	Var string // without the $
	Seq Expr
	Let bool // true for LET (bind whole sequence), false for FOR
	// Binder numbers the clause among its query's binders: Parse gives
	// each clause it builds its own, from 1, in the order it builds them.
	// A reference to the clause's variable records it (VarRef.Binder,
	// PathExpr.Binder), so an evaluator keeps the variable's value at
	// this slot and never searches for it by name.
	Binder int
}

// PathExpr is a path: an origin (variable, document root, or a
// parenthesized expression) followed by steps.
type PathExpr struct {
	// Var is the origin variable name (without $); empty for absolute
	// paths rooted at the document, "." for the context item.
	Var string
	// Binder is the slot of the clause binding Var where the path stands
	// (Clause.Binder): the innermost one of that name. It is 0 for an
	// absolute path, the context item and a name nothing binds.
	Binder int
	// Doc is the document("...") argument when the path is absolute.
	Doc   string
	Steps []Step
	// Slot numbers the path among its query's: Parse gives each path it
	// builds its own, from 1, and 0 is a path no parse numbered. An
	// evaluator keeps what it learns of a path at its slot.
	Slot int
}

// Axis is a path step axis.
type Axis int

// Supported axes.
const (
	AxisChild Axis = iota
	AxisDescendantOrSelf
)

// NodeTest is what a step selects.
type NodeTest int

// Step node tests.
const (
	TestName NodeTest = iota // element by name ("*" = any element)
	TestAttr                 // attribute by name
	TestText                 // text()
)

// Step is one path step with optional predicates.
type Step struct {
	Axis  Axis
	Test  NodeTest
	Name  string
	Preds []Expr // each either positional (numeric) or boolean
}

// Cmp is a general comparison.
type Cmp struct {
	Op          string // = != < <= > >=
	Left, Right Expr
}

// Logic is AND/OR.
type Logic struct {
	Op          string // and, or
	Left, Right Expr
}

// Arith is +, -, *, div, mod.
type Arith struct {
	Op          string
	Left, Right Expr
}

// Call is a function call.
type Call struct {
	Name string
	Args []Expr
}

// StringLit is a string literal.
type StringLit struct{ Val string }

// NumberLit is a numeric literal.
type NumberLit struct{ Val float64 }

// VarRef references a variable: Binder is the slot of the innermost
// clause binding Name where the reference stands (Clause.Binder), 0 when
// nothing binds it.
type VarRef struct {
	Name   string
	Binder int
}

// ElementCtor is a direct element constructor. Attribute and content
// values interleave literal text with embedded expressions.
type ElementCtor struct {
	Name    string
	Attrs   []CtorAttr
	Content []Expr // StringLit for literal text, others evaluated
}

// CtorAttr is one constructed attribute.
type CtorAttr struct {
	Name  string
	Value []Expr // concatenated
}

// Sequence is a comma expression (e1, e2, ...).
type Sequence struct{ Items []Expr }

func (*FLWOR) exprNode()       {}
func (*PathExpr) exprNode()    {}
func (*Cmp) exprNode()         {}
func (*Logic) exprNode()       {}
func (*Arith) exprNode()       {}
func (*Call) exprNode()        {}
func (*StringLit) exprNode()   {}
func (*NumberLit) exprNode()   {}
func (*VarRef) exprNode()      {}
func (*ElementCtor) exprNode() {}
func (*Sequence) exprNode()    {}

func (e *FLWOR) String() string {
	var sb strings.Builder
	for _, c := range e.Clauses {
		if c.Let {
			fmt.Fprintf(&sb, "let $%s := %s ", c.Var, c.Seq)
		} else {
			fmt.Fprintf(&sb, "for $%s in %s ", c.Var, c.Seq)
		}
	}
	if e.Where != nil {
		fmt.Fprintf(&sb, "where %s ", e.Where)
	}
	if e.OrderBy != nil {
		dir := ""
		if e.OrderDesc {
			dir = " descending"
		}
		fmt.Fprintf(&sb, "order by %s%s ", e.OrderBy, dir)
	}
	fmt.Fprintf(&sb, "return %s", e.Return)
	return sb.String()
}

func (e *PathExpr) String() string {
	var sb strings.Builder
	switch {
	case e.Var == "." && len(e.Steps) > 0:
		// context-relative: the steps alone read naturally
	case e.Var != "":
		fmt.Fprintf(&sb, "$%s", e.Var)
	case e.Doc != "":
		fmt.Fprintf(&sb, "document(%q)", e.Doc)
	}
	for _, s := range e.Steps {
		sb.WriteString(s.String())
	}
	return sb.String()
}

func (s Step) String() string {
	sep := "/"
	if s.Axis == AxisDescendantOrSelf {
		sep = "//"
	}
	name := s.Name
	switch s.Test {
	case TestAttr:
		name = "@" + s.Name
	case TestText:
		name = "text()"
	}
	var sb strings.Builder
	sb.WriteString(sep)
	sb.WriteString(name)
	for _, p := range s.Preds {
		fmt.Fprintf(&sb, "[%s]", p)
	}
	return sb.String()
}

func (e *Cmp) String() string   { return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right) }
func (e *Logic) String() string { return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right) }
func (e *Arith) String() string { return fmt.Sprintf("(%s %s %s)", e.Left, e.Op, e.Right) }
func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}
func (e *StringLit) String() string { return fmt.Sprintf("%q", e.Val) }
func (e *NumberLit) String() string { return fmt.Sprintf("%g", e.Val) }
func (e *VarRef) String() string    { return "$" + e.Name }
func (e *ElementCtor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<%s", e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(&sb, " %s={...}", a.Name)
	}
	sb.WriteString(">...</")
	sb.WriteString(e.Name)
	sb.WriteString(">")
	return sb.String()
}
func (e *Sequence) String() string {
	items := make([]string, len(e.Items))
	for i, it := range e.Items {
		items[i] = it.String()
	}
	return "(" + strings.Join(items, ", ") + ")"
}
