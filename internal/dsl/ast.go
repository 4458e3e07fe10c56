// Package dsl implements the rewrite-rule domain-specific language MVEDSUA
// uses to reconcile expected divergences between program versions (§3.3 of
// the paper, Figures 4 and 5; the language follows Pina et al., USENIX
// ATC'17).
//
// A rule matches a short sequence of system-call events recorded by the
// leader and rewrites it into the sequence the follower is expected to
// issue. Example, the paper's Rule 1 (route a new-in-v2 command to an
// invalid command so the old and new versions stay in equivalent states):
//
//	rule "put-typed-to-bad" {
//	    match read(fd, s, n) where typ(cmd(s)) != "" {
//	        emit read(fd, "bad-cmd\r\n", 9);
//	    }
//	}
//
// and the paper's Figure 5 (Vsftpd: redirect any command the old version
// rejects to a command guaranteed invalid in the new version too):
//
//	rule "unknown-command" {
//	    match read(fd1, s, n), write(fd2, r, m) where prefix(r, "500") {
//	        emit read(fd1, "FOOBAR\r\n", 8), write(fd2, r, m);
//	    }
//	}
package dsl

import (
	"fmt"
	"strings"

	"mvedsua/internal/sysabi"
)

// RuleSet is an ordered collection of rules; earlier rules take precedence.
type RuleSet struct {
	Rules []*Rule
}

// Rule rewrites one matched leader-event sequence into the follower's
// expected sequence.
type Rule struct {
	Name  string
	Match []Pattern
	Where Expr // nil means always true
	Emit  []Template
}

// Pattern matches one recorded event and binds its fields to variables.
// The bound fields depend on the op — see Arity.
type Pattern struct {
	Op    sysabi.Op
	Binds []string // "_" entries bind nothing
}

// Template produces one expected event from expressions over bound
// variables.
type Template struct {
	Op   sysabi.Op
	Args []Expr
}

// Arity returns how many fields a pattern or template for op carries, and
// whether the op is supported by the DSL at all.
//
//	read/fread:   (fd, data, n)   data = bytes delivered, n = count
//	write/fwrite: (fd, data, n)   data = payload written, n = count
//	accept:       (fd, newfd)
//	open:         (path, flags, fd)
//	close:        (fd)
//	clock:        (t)
func Arity(op sysabi.Op) (int, bool) {
	switch op {
	case sysabi.OpRead, sysabi.OpFRead, sysabi.OpWrite, sysabi.OpFWrite, sysabi.OpOpen:
		return 3, true
	case sysabi.OpAccept:
		return 2, true
	case sysabi.OpClose, sysabi.OpClock:
		return 1, true
	default:
		return 0, false
	}
}

// OpByName maps DSL syscall names to ops.
func OpByName(name string) (sysabi.Op, bool) {
	switch name {
	case "read":
		return sysabi.OpRead, true
	case "fread":
		return sysabi.OpFRead, true
	case "write":
		return sysabi.OpWrite, true
	case "fwrite":
		return sysabi.OpFWrite, true
	case "accept":
		return sysabi.OpAccept, true
	case "open":
		return sysabi.OpOpen, true
	case "close":
		return sysabi.OpClose, true
	case "clock":
		return sysabi.OpClock, true
	default:
		return sysabi.OpInvalid, false
	}
}

func opName(op sysabi.Op) string {
	switch op {
	case sysabi.OpRead:
		return "read"
	case sysabi.OpFRead:
		return "fread"
	case sysabi.OpWrite:
		return "write"
	case sysabi.OpFWrite:
		return "fwrite"
	case sysabi.OpAccept:
		return "accept"
	case sysabi.OpOpen:
		return "open"
	case sysabi.OpClose:
		return "close"
	case sysabi.OpClock:
		return "clock"
	default:
		return op.String()
	}
}

// Expr is a DSL expression node.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// StringLit is a quoted string literal. The parser also stores the
// literal as bytes, once, so that evaluating it converts nothing; a
// literal built by hand is converted each time.
type StringLit struct {
	Value string
	bytes []byte
}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// VarRef references a variable bound by a pattern.
type VarRef struct{ Name string }

// BinOp is a binary operation: == != && || + -.
type BinOp struct {
	Op   string
	L, R Expr
}

// CallFn invokes a builtin function.
type CallFn struct {
	Name string
	Args []Expr
}

func (*StringLit) isExpr() {}
func (*IntLit) isExpr()    {}
func (*VarRef) isExpr()    {}
func (*BinOp) isExpr()     {}
func (*CallFn) isExpr()    {}

// String renders the literal with DSL escaping.
func (e *StringLit) String() string { return quote(e.Value) }

// String renders the integer literal.
func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Value) }

// String renders the variable reference.
func (e *VarRef) String() string { return e.Name }

// String renders the operation with explicit parentheses.
func (e *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// String renders the call.
func (e *CallFn) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ", "))
}

func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\r':
			b.WriteString(`\r`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// String renders the rule set in parseable form.
func (rs *RuleSet) String() string {
	var b strings.Builder
	for i, r := range rs.Rules {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// String renders the rule in parseable form.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s {\n    match ", quote(r.Name))
	for i, p := range r.Match {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if r.Where != nil {
		fmt.Fprintf(&b, " where %s", r.Where)
	}
	b.WriteString(" {\n        emit ")
	for i, t := range r.Emit {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(";\n    }\n}\n")
	return b.String()
}

// String renders the pattern.
func (p Pattern) String() string {
	return fmt.Sprintf("%s(%s)", opName(p.Op), strings.Join(p.Binds, ", "))
}

// String renders the template.
func (t Template) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", opName(t.Op), strings.Join(parts, ", "))
}

// Validate checks structural invariants: ops supported, arities correct,
// every variable used in Where/Emit bound by Match, no duplicate binds,
// every function known and called with the number of arguments it takes.
func (rs *RuleSet) Validate() error {
	for _, r := range rs.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks one rule; see RuleSet.Validate.
func (r *Rule) Validate() error {
	if len(r.Match) == 0 {
		return fmt.Errorf("rule %q: empty match", r.Name)
	}
	if len(r.Emit) == 0 {
		return fmt.Errorf("rule %q: empty emit", r.Name)
	}
	bound := map[string]bool{}
	for _, p := range r.Match {
		n, ok := Arity(p.Op)
		if !ok {
			return fmt.Errorf("rule %q: op %v not allowed in patterns", r.Name, p.Op)
		}
		if len(p.Binds) != n {
			return fmt.Errorf("rule %q: %s expects %d fields, got %d", r.Name, opName(p.Op), n, len(p.Binds))
		}
		for _, v := range p.Binds {
			if v == "_" {
				continue
			}
			if bound[v] {
				return fmt.Errorf("rule %q: variable %q bound twice", r.Name, v)
			}
			bound[v] = true
		}
	}
	check := func(e Expr) error { return checkExpr(r.Name, e, bound) }
	if r.Where != nil {
		if err := check(r.Where); err != nil {
			return err
		}
	}
	for _, t := range r.Emit {
		n, ok := Arity(t.Op)
		if !ok {
			return fmt.Errorf("rule %q: op %v not allowed in emit", r.Name, t.Op)
		}
		if len(t.Args) != n {
			return fmt.Errorf("rule %q: emit %s expects %d args, got %d", r.Name, opName(t.Op), n, len(t.Args))
		}
		for _, a := range t.Args {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkExpr(rule string, e Expr, bound map[string]bool) error {
	switch v := e.(type) {
	case *VarRef:
		if !bound[v.Name] {
			return fmt.Errorf("rule %q: unbound variable %q", rule, v.Name)
		}
	case *BinOp:
		if err := checkExpr(rule, v.L, bound); err != nil {
			return err
		}
		return checkExpr(rule, v.R, bound)
	case *CallFn:
		if _, bad := checkCall(v); bad != "" {
			return fmt.Errorf("rule %q: %s", rule, bad)
		}
		for _, a := range v.Args {
			if err := checkExpr(rule, a, bound); err != nil {
				return err
			}
		}
	}
	return nil
}
