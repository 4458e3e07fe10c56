package dsl

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// evalStr parses and evaluates a standalone expression by wrapping it in a
// throwaway rule's where clause.
func evalExpr(t *testing.T, expr string, env *Env) (Value, error) {
	t.Helper()
	toks, err := lexAll(expr)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	if env == nil {
		env = &Env{}
	}
	return Eval(e, env)
}

// bind makes a frame of the given names and values: bind("x", Int(3)).
func bind(pairs ...interface{}) *Env {
	env := &Env{}
	for i := 0; i < len(pairs); i += 2 {
		env.names = append(env.names, pairs[i].(string))
		env.vals = append(env.vals, pairs[i+1].(Value))
	}
	return env
}

// same reports whether two values are the same kind and content; a Value
// holds a byte slice and so is not comparable with ==.
func same(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && bytes.Equal(a.s, b.s)
}

func mustEval(t *testing.T, expr string, env *Env) Value {
	t.Helper()
	v, err := evalExpr(t, expr, env)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestEvalLiterals(t *testing.T) {
	if v := mustEval(t, `"abc"`, nil); !v.IsString() || string(v.s) != "abc" {
		t.Errorf("string literal = %v", v)
	}
	if v := mustEval(t, `42`, nil); !v.IsInt() || v.i != 42 {
		t.Errorf("int literal = %v", v)
	}
	if v := mustEval(t, `-7`, nil); v.i != -7 {
		t.Errorf("negative literal = %v", v)
	}
}

func TestEvalVariables(t *testing.T) {
	env := bind("x", Int(3), "s", Str("hi"))
	if v := mustEval(t, "x + 1", env); v.i != 4 {
		t.Errorf("x+1 = %v", v)
	}
	if v := mustEval(t, `s == "hi"`, env); !v.AsBool() {
		t.Errorf("s==hi = %v", v)
	}
	if _, err := evalExpr(t, "missing", nil); err == nil {
		t.Error("unbound variable did not error")
	}
}

func TestEvalArithmeticAndComparison(t *testing.T) {
	cases := map[string]Value{
		"1 + 2":      Int(3),
		"5 - 2":      Int(3),
		"1 + 2 - 4":  Int(-1),
		"1 == 1":     Bool(true),
		"1 != 1":     Bool(false),
		`"a" + "b"`:  Str("ab"),
		`"a" == "a"`: Bool(true),
		`"a" != "b"`: Bool(true),
	}
	for expr, want := range cases {
		got := mustEval(t, expr, nil)
		if !same(got, want) {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestEvalLogicShortCircuit(t *testing.T) {
	// The right operand references an unbound variable; short-circuit
	// evaluation must not touch it.
	if v := mustEval(t, `1 == 2 && boom == 1`, nil); v.AsBool() {
		t.Error("false && ... should be false")
	}
	if v := mustEval(t, `1 == 1 || boom == 1`, nil); !v.AsBool() {
		t.Error("true || ... should be true")
	}
	if _, err := evalExpr(t, `1 == 1 && boom == 1`, nil); err == nil {
		t.Error("true && unbound should error")
	}
}

func TestEvalTypeErrors(t *testing.T) {
	bad := []string{
		`"a" + 1`,
		`"a" - "b"`,
		`"a" != 1`,
		`1 == "a"`,
		`1 && 2`,
	}
	for _, expr := range bad {
		if _, err := evalExpr(t, expr, nil); err == nil {
			t.Errorf("%s evaluated without error", expr)
		}
	}
}

func TestBuiltinStringFunctions(t *testing.T) {
	cases := map[string]Value{
		`prefix("hello", "he")`:                   Bool(true),
		`prefix("hello", "lo")`:                   Bool(false),
		`suffix("hello", "lo")`:                   Bool(true),
		`cmd("PUT balance 100\r\n")`:              Str("PUT"),
		`cmd("")`:                                 Str(""),
		`arg("PUT balance 100", 1)`:               Str("balance"),
		`arg("PUT balance 100", 2)`:               Str("100"),
		`arg("PUT balance 100", 9)`:               Str(""),
		`typ("PUT-number")`:                       Str("number"),
		`typ("PUT")`:                              Str(""),
		`base("PUT-number")`:                      Str("PUT"),
		`base("PUT")`:                             Str("PUT"),
		`replace("PUT k v", "PUT", "PUT-string")`: Str("PUT-string k v"),
		`concat("a", "b", "c")`:                   Str("abc"),
		`len("abcd")`:                             Int(4),
		`sub("abcdef", 1, 4)`:                     Str("bcd"),
	}
	for expr, want := range cases {
		got := mustEval(t, expr, nil)
		if !same(got, want) {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestBuiltinArityAndTypeErrors(t *testing.T) {
	bad := []string{
		`prefix("a")`,
		`prefix(1, "a")`,
		`len(5)`,
		`sub("abc", 2, 1)`,
		`sub("abc", 0, 99)`,
		`arg("a b", "x")`,
		`concat()`,
		`concat("a", 1)`,
	}
	for _, expr := range bad {
		if _, err := evalExpr(t, expr, nil); err == nil {
			t.Errorf("%s evaluated without error", expr)
		}
	}
}

func TestEvalErrorMessage(t *testing.T) {
	_, err := evalExpr(t, `len(5)`, nil)
	if err == nil || !strings.Contains(err.Error(), "dsl eval") {
		t.Fatalf("err = %v", err)
	}
}

func TestValueString(t *testing.T) {
	if Str("x").String() != `"x"` || Int(3).String() != "3" || Bool(true).String() != "true" {
		t.Fatal("Value.String mismatch")
	}
}

// The paper's Rule 2 expression logic: rewrite "PUT k v" to
// "PUT-string k v" and extend the length by 7.
func TestPaperRule2Expressions(t *testing.T) {
	env := bind("s", Str("PUT balance 100\r\n"), "n", Int(17))
	s2 := mustEval(t, `replace(s, "PUT", "PUT-string")`, env)
	if string(s2.s) != "PUT-string balance 100\r\n" {
		t.Fatalf("rewritten = %q", s2.s)
	}
	n2 := mustEval(t, "n + 7", env)
	if n2.i != 24 {
		t.Fatalf("n+7 = %d", n2.i)
	}
	if int(n2.i) != len(s2.s) {
		t.Fatal("length bookkeeping does not line up")
	}
}

// TestFieldMatchesStringsFields: field, which cmd and arg scan with, is
// strings.Fields(strings.TrimRight(s, "\r\n"))[i] — what they were
// written as — on ASCII lines, which it scans in place, and on lines with
// Unicode white space, invalid UTF-8 and whatever else lies outside ASCII.
func TestFieldMatchesStringsFields(t *testing.T) {
	alphabets := [][]string{
		{"a", "b", " ", "\t", "\r", "\n", "\v", "\f", "-"},
		{"a", " ", "\r", "\n", " ", "", " ", "é", "\xff", "\xc2"},
	}
	r := rand.New(rand.NewSource(5))
	for n := 0; n < 20000; n++ {
		alphabet := alphabets[n%2]
		var line []byte
		for i := r.Intn(12); i > 0; i-- {
			line = append(line, alphabet[r.Intn(len(alphabet))]...)
		}
		want := strings.Fields(strings.TrimRight(string(line), "\r\n"))
		for i := 0; i <= len(want)+1; i++ {
			got := field(line, int64(i))
			switch {
			case i < len(want) && string(got) != want[i]:
				t.Fatalf("field(%q, %d) = %q, want %q", line, i, got, want[i])
			case i >= len(want) && got != nil:
				t.Fatalf("field(%q, %d) = %q, want none of %d", line, i, got, len(want))
			}
		}
	}
}
