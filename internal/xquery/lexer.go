package xquery

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// tokenKind discriminates lexer tokens.
type tokenKind int

const (
	tokEOF    tokenKind = iota
	tokName             // bare name (also keywords; the parser decides)
	tokVar              // $name
	tokString           // quoted literal (decoded)
	tokNumber           // numeric literal
	tokSymbol           // punctuation / operator, in text
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokVar:
		return "$" + t.text
	case tokString:
		return fmt.Sprintf("%q", t.text)
	case tokNumber:
		return strconv.FormatFloat(t.num, 'g', -1, 64)
	}
	return t.text
}

// lexer tokenizes an XQuery string. Element constructors switch the
// parser into raw mode via rawUntil, so the lexer stays simple.
type lexer struct {
	src []byte
	pos int
}

// ParseError reports a parse failure at a byte offset of the query, and
// at the line and column (both from 1, the column in characters) that
// offset falls on.
type ParseError struct {
	Pos       int
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xquery: parse error at line %d, column %d (byte %d): %s", e.Line, e.Col, e.Pos, e.Msg)
}

// locate sets Line and Col from Pos: lineNum counts the newlines before
// Pos and lineStart is the offset just past the last of them.
func (e *ParseError) locate(src string) {
	pos := min(max(e.Pos, 0), len(src))
	lineNum, lineStart := 1, 0
	for i := 0; i < pos; i++ {
		if src[i] == '\n' {
			lineNum, lineStart = lineNum+1, i+1
		}
	}
	e.Line, e.Col = lineNum, utf8.RuneCountInString(src[lineStart:pos])+1
}

func (l *lexer) errf(pos int, format string, args ...interface{}) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// (: comment :)
		if c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			depth := 1
			i := l.pos + 2
			for i < len(l.src) && depth > 0 {
				if l.src[i] == '(' && i+1 < len(l.src) && l.src[i+1] == ':' {
					depth++
					i += 2
				} else if l.src[i] == ':' && i+1 < len(l.src) && l.src[i+1] == ')' {
					depth--
					i += 2
				} else {
					i++
				}
			}
			l.pos = i
			continue
		}
		return
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '$':
		l.pos++
		name := l.name()
		if name == "" {
			return token{}, l.errf(start, "expected variable name after $")
		}
		return token{kind: tokVar, text: name, pos: start}, nil
	case c == '"' || c == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			b := l.src[l.pos]
			if b == c {
				// doubled quote escapes itself
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == c {
					sb.WriteByte(c)
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(b)
			l.pos++
		}
		return token{}, l.errf(start, "unterminated string literal")
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		i := l.pos
		for i < len(l.src) && (l.src[i] >= '0' && l.src[i] <= '9' || l.src[i] == '.') {
			i++
		}
		f, err := strconv.ParseFloat(string(l.src[l.pos:i]), 64)
		if err != nil {
			return token{}, l.errf(start, "bad number %q", l.src[l.pos:i])
		}
		l.pos = i
		return token{kind: tokNumber, num: f, pos: start}, nil
	case isNameStart(c):
		name := l.name()
		return token{kind: tokName, text: name, pos: start}, nil
	}
	// multi-char symbols
	two := ""
	if l.pos+1 < len(l.src) {
		two = string(l.src[l.pos : l.pos+2])
	}
	switch two {
	case "//", "!=", "<=", ">=", ":=":
		l.pos += 2
		return token{kind: tokSymbol, text: two, pos: start}, nil
	}
	switch c {
	case '/', '(', ')', '[', ']', '{', '}', ',', '=', '<', '>', '@', '*', '+', '-', '.':
		l.pos++
		return token{kind: tokSymbol, text: string(c), pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}

func (l *lexer) name() string {
	i := l.pos
	for i < len(l.src) && isNamePart(l.src[i]) {
		i++
	}
	s := string(l.src[l.pos:i])
	l.pos = i
	return s
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isNamePart(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.' || c == ':'
}
