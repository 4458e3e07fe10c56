package dsl

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokInt
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokSemi
	tokEq    // ==
	tokNeq   // !=
	tokAnd   // &&
	tokOr    // ||
	tokPlus  // +
	tokMinus // -
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokInt:
		return "int"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokEq:
		return "'=='"
	case tokNeq:
		return "'!='"
	case tokAnd:
		return "'&&'"
	case tokOr:
		return "'||'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	default:
		return fmt.Sprintf("tok(%d)", int(k))
	}
}

type token struct {
	kind tokKind
	text string
	line int
}

// SyntaxError reports a lexing or parsing failure with its line number.
type SyntaxError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("dsl: line %d: %s", e.Line, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokInt, text: l.src[start:l.pos], line: l.line}, nil
	case c == '"':
		return l.scanString()
	}
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==":
		l.pos += 2
		return token{kind: tokEq, text: two, line: l.line}, nil
	case "!=":
		l.pos += 2
		return token{kind: tokNeq, text: two, line: l.line}, nil
	case "&&":
		l.pos += 2
		return token{kind: tokAnd, text: two, line: l.line}, nil
	case "||":
		l.pos += 2
		return token{kind: tokOr, text: two, line: l.line}, nil
	}
	l.pos++
	switch c {
	case '(':
		return token{kind: tokLParen, text: "(", line: l.line}, nil
	case ')':
		return token{kind: tokRParen, text: ")", line: l.line}, nil
	case '{':
		return token{kind: tokLBrace, text: "{", line: l.line}, nil
	case '}':
		return token{kind: tokRBrace, text: "}", line: l.line}, nil
	case ',':
		return token{kind: tokComma, text: ",", line: l.line}, nil
	case ';':
		return token{kind: tokSemi, text: ";", line: l.line}, nil
	case '+':
		return token{kind: tokPlus, text: "+", line: l.line}, nil
	case '-':
		return token{kind: tokMinus, text: "-", line: l.line}, nil
	default:
		return token{}, l.errf("unexpected character %q", string(c))
	}
}

func (l *lexer) scanString() (token, error) {
	startLine := l.line
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: b.String(), line: startLine}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			l.pos++
			switch e := l.src[l.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return token{}, l.errf("unknown escape \\%c", e)
			}
			l.pos++
		case '\n':
			return token{}, l.errf("unterminated string literal")
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated string literal")
}

// lexAll tokenizes the whole input, for the parser.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
