package dsl

import (
	"strings"
	"testing"

	"mvedsua/internal/sysabi"
)

const rule1Src = `
// The paper's Rule 1 (Figure 4a): typed PUTs become an invalid command.
rule "put-typed-to-bad" {
    match read(fd, s, n) where cmd(s) == "PUT" || typ(cmd(s)) != "" {
        emit read(fd, "bad-cmd\r\n", 9);
    }
}
`

func TestParseSingleRule(t *testing.T) {
	rs, err := Parse(rule1Src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(rs.Rules) != 1 {
		t.Fatalf("rules = %d", len(rs.Rules))
	}
	r := rs.Rules[0]
	if r.Name != "put-typed-to-bad" {
		t.Errorf("name = %q", r.Name)
	}
	if len(r.Match) != 1 || r.Match[0].Op != sysabi.OpRead {
		t.Errorf("match = %+v", r.Match)
	}
	if r.Where == nil {
		t.Error("where missing")
	}
	if len(r.Emit) != 1 || r.Emit[0].Op != sysabi.OpRead {
		t.Errorf("emit = %+v", r.Emit)
	}
}

func TestParseMultiEventRule(t *testing.T) {
	src := `
rule "unknown-command" {
    match read(fd1, s, n), write(fd2, r, m) where prefix(r, "500") {
        emit read(fd1, "FOOBAR\r\n", 8), write(fd2, r, m);
    }
}
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	r := rs.Rules[0]
	if len(r.Match) != 2 || len(r.Emit) != 2 {
		t.Fatalf("match/emit lengths = %d/%d", len(r.Match), len(r.Emit))
	}
	if r.Match[1].Op != sysabi.OpWrite {
		t.Errorf("second pattern op = %v", r.Match[1].Op)
	}
}

func TestParseMultipleRulesOrderPreserved(t *testing.T) {
	src := `
rule "a" { match clock(x) { emit clock(x); } }
rule "b" { match close(fd) { emit close(fd); } }
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(rs.Rules) != 2 || rs.Rules[0].Name != "a" || rs.Rules[1].Name != "b" {
		t.Fatalf("rules = %+v", rs.Rules)
	}
}

func TestParseNoWhere(t *testing.T) {
	rs, err := Parse(`rule "r" { match read(a, b, c) { emit read(a, b, c); } }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if rs.Rules[0].Where != nil {
		t.Fatal("expected nil where")
	}
}

func TestParseWildcardBinds(t *testing.T) {
	rs, err := Parse(`rule "r" { match read(_, s, _) { emit read(3, s, len(s)); } }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if rs.Rules[0].Match[0].Binds[0] != "_" {
		t.Fatal("wildcard not preserved")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	rs, err := Parse(`rule "r" { match clock(x) where x + 1 == 2 || x != 5 && x - 1 != 9 { emit clock(x); } }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	or, ok := rs.Rules[0].Where.(*BinOp)
	if !ok || or.Op != "||" {
		t.Fatalf("top = %v", rs.Rules[0].Where)
	}
	and, ok := or.R.(*BinOp)
	if !ok || and.Op != "&&" {
		t.Fatalf("rhs = %v", or.R)
	}
	eq, ok := or.L.(*BinOp)
	if !ok || eq.Op != "==" {
		t.Fatalf("lhs = %v", or.L)
	}
	plus, ok := eq.L.(*BinOp)
	if !ok || plus.Op != "+" {
		t.Fatalf("eq.L = %v", eq.L)
	}
}

func TestParseNegativeInt(t *testing.T) {
	rs, err := Parse(`rule "r" { match clock(x) where x - -5 == 3 { emit clock(x); } }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	eq, ok := rs.Rules[0].Where.(*BinOp)
	if !ok || eq.Op != "==" {
		t.Fatalf("where = %v", rs.Rules[0].Where)
	}
	minus := eq.L.(*BinOp)
	if minus.Op != "-" || minus.R.(*IntLit).Value != -5 {
		t.Fatalf("lhs = %v", eq.L)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`rule x { match read(a,b,c) { emit read(a,b,c); } }`, "expected string"},
		{`rule "r" { match bogus(a) { emit close(a); } }`, "unknown syscall"},
		{`rule "r" { match read(a,b,c) { emit nope(a); } }`, "unknown syscall"},
		{`rule "r" { match read(a,b) { emit read(a,b,0); } }`, "expects 3 fields"},
		{`rule "r" { match read(a,b,c) { emit read(a,b); } }`, "expects 3 args"},
		{`rule "r" { match read(a,b,c) { emit read(a,d,c); } }`, "unbound variable"},
		{`rule "r" { match read(a,b,c) where mystery(b) { emit read(a,b,c); } }`, "unknown function"},
		{`rule "r" { match read(a,b,a) { emit read(a,b,0); } }`, "bound twice"},
		{`rule "r" { match read(a,b,c) { emit read(a,b,c) } }`, "expected ';'"},
		{`rule "r" { }`, `expected "match"`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error = %q, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestMustParsePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic")
		}
	}()
	MustParse("rule")
}

func TestRoundTripThroughString(t *testing.T) {
	srcs := []string{
		rule1Src,
		`rule "two" { match read(f, s, n), write(g, r, m) where len(s) != 3 { emit write(g, concat("X", r), m + 1), read(f, s, n); } }`,
		`rule "wild" { match fread(_, s, _) { emit fread(0, base(s), len(s)); } }`,
		`rule "acc" { match accept(l, c) { emit accept(l, c); } }`,
	}
	for _, src := range srcs {
		rs1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := rs1.String()
		rs2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", printed, err)
		}
		if rs2.String() != printed {
			t.Errorf("round trip not stable:\n%s\nvs\n%s", printed, rs2.String())
		}
	}
}

func TestValidateDetectsLongEmitArity(t *testing.T) {
	r := &Rule{
		Name:  "bad",
		Match: []Pattern{{Op: sysabi.OpClock, Binds: []string{"t"}}},
		Emit:  []Template{{Op: sysabi.OpClock, Args: []Expr{&VarRef{Name: "t"}, &IntLit{Value: 1}}}},
	}
	rs := &RuleSet{Rules: []*Rule{r}}
	if err := rs.Validate(); err == nil {
		t.Fatal("Validate accepted wrong emit arity")
	}
}
