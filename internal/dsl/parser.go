package dsl

import (
	"fmt"
	"strconv"
)

// Parse parses DSL source into a validated RuleSet.
//
// Grammar:
//
//	ruleset  := rule*
//	rule     := "rule" STRING "{" "match" patterns [ "where" expr ]
//	            "{" "emit" templates ";" "}" "}"
//	patterns := pattern ("," pattern)*
//	pattern  := IDENT "(" [ IDENT ("," IDENT)* ] ")"
//	templates:= template ("," template)*
//	template := IDENT "(" [ expr ("," expr)* ] ")"
//	expr     := orExpr
//	orExpr   := andExpr ("||" andExpr)*
//	andExpr  := cmpExpr ("&&" cmpExpr)*
//	cmpExpr  := addExpr (("=="|"!=") addExpr)?
//	addExpr  := primary (("+"|"-") primary)*
//	primary  := STRING | INT | "-" INT | IDENT | IDENT "(" args ")" | "(" expr ")"
func Parse(src string) (*RuleSet, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	rs := &RuleSet{}
	for !p.at(tokEOF) {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rs.Rules = append(rs.Rules, r)
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return rs, nil
}

// MustParse parses src and panics on error; for tests and static rule
// tables compiled into the applications.
func MustParse(src string) *RuleSet {
	rs, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return rs
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %v, found %v %q", k, p.cur().kind, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.at(tokIdent) || p.cur().text != kw {
		return p.errf("expected %q, found %q", kw, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) parseRule() (*Rule, error) {
	if err := p.expectKeyword("rule"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("match"); err != nil {
		return nil, err
	}
	r := &Rule{Name: name.text}
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		r.Match = append(r.Match, pat)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if p.at(tokIdent) && p.cur().text == "where" {
		p.advance()
		r.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("emit"); err != nil {
		return nil, err
	}
	for {
		tpl, err := p.parseTemplate()
		if err != nil {
			return nil, err
		}
		r.Emit = append(r.Emit, tpl)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parsePattern() (Pattern, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return Pattern{}, err
	}
	op, ok := OpByName(name.text)
	if !ok {
		return Pattern{}, p.errf("unknown syscall %q in pattern", name.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return Pattern{}, err
	}
	var binds []string
	if !p.at(tokRParen) {
		for {
			id, err := p.expect(tokIdent)
			if err != nil {
				return Pattern{}, err
			}
			binds = append(binds, id.text)
			if !p.at(tokComma) {
				break
			}
			p.advance()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Pattern{}, err
	}
	return Pattern{Op: op, Binds: binds}, nil
}

func (p *parser) parseTemplate() (Template, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return Template{}, err
	}
	op, ok := OpByName(name.text)
	if !ok {
		return Template{}, p.errf("unknown syscall %q in emit", name.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return Template{}, err
	}
	var args []Expr
	if !p.at(tokRParen) {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return Template{}, err
			}
			args = append(args, e)
			if !p.at(tokComma) {
				break
			}
			p.advance()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Template{}, err
	}
	return Template{Op: op, Args: args}, nil
}

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tokOr) {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(tokAnd) {
		p.advance()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.cur().kind {
	case tokEq:
		op = "=="
	case tokNeq:
		op = "!="
	default:
		return l, nil
	}
	p.advance()
	r, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return &BinOp{Op: op, L: l, R: r}, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		op := "+"
		if p.at(tokMinus) {
			op = "-"
		}
		p.advance()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.cur().kind {
	case tokString:
		t := p.advance()
		return &StringLit{Value: t.text, bytes: append([]byte{}, t.text...)}, nil
	case tokInt:
		t := p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &IntLit{Value: v}, nil
	case tokMinus:
		p.advance()
		t, err := p.expect(tokInt)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &IntLit{Value: -v}, nil
	case tokIdent:
		t := p.advance()
		if p.at(tokLParen) {
			p.advance()
			var args []Expr
			if !p.at(tokRParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.at(tokComma) {
						break
					}
					p.advance()
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			if _, ok := builtins[t.text]; !ok {
				return nil, p.errf("unknown function %q", t.text)
			}
			return &CallFn{Name: t.text, Args: args}, nil
		}
		return &VarRef{Name: t.text}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("unexpected token %v %q in expression", p.cur().kind, p.cur().text)
	}
}
