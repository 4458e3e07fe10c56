package dsl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mvedsua/internal/sysabi"
)

// genExpr builds a random well-typed expression over the given bound
// string and int variables, returning the expression and its type
// ("string", "int" or "bool").
func genExpr(r *rand.Rand, depth int, strVars, intVars []string, want string) Expr {
	if depth <= 0 {
		switch want {
		case "string":
			if len(strVars) > 0 && r.Intn(2) == 0 {
				return &VarRef{Name: strVars[r.Intn(len(strVars))]}
			}
			return &StringLit{Value: randText(r)}
		case "int":
			if len(intVars) > 0 && r.Intn(2) == 0 {
				return &VarRef{Name: intVars[r.Intn(len(intVars))]}
			}
			return &IntLit{Value: int64(r.Intn(2000) - 1000)}
		default: // bool
			return &BinOp{Op: "==", L: &IntLit{Value: 1}, R: &IntLit{Value: int64(r.Intn(2) + 1)}}
		}
	}
	sub := func(w string) Expr { return genExpr(r, depth-1, strVars, intVars, w) }
	switch want {
	case "string":
		switch r.Intn(4) {
		case 0:
			return &CallFn{Name: "concat", Args: []Expr{sub("string"), sub("string")}}
		case 1:
			return &CallFn{Name: "base", Args: []Expr{sub("string")}}
		case 2:
			return &CallFn{Name: "replace", Args: []Expr{sub("string"), sub("string"), sub("string")}}
		default:
			return &CallFn{Name: "cmd", Args: []Expr{sub("string")}}
		}
	case "int":
		switch r.Intn(3) {
		case 0:
			return &CallFn{Name: "len", Args: []Expr{sub("string")}}
		case 1:
			return &BinOp{Op: "+", L: sub("int"), R: sub("int")}
		default:
			return &BinOp{Op: "-", L: sub("int"), R: sub("int")}
		}
	default: // bool
		switch r.Intn(5) {
		case 0:
			return &BinOp{Op: "&&", L: sub("bool"), R: sub("bool")}
		case 1:
			return &BinOp{Op: "||", L: sub("bool"), R: sub("bool")}
		case 2:
			return &BinOp{Op: []string{"==", "!="}[r.Intn(2)], L: sub("string"), R: sub("string")}
		case 3:
			return &CallFn{Name: "prefix", Args: []Expr{sub("string"), sub("string")}}
		default:
			return &BinOp{Op: []string{"==", "!="}[r.Intn(2)], L: sub("int"), R: sub("int")}
		}
	}
}

func randText(r *rand.Rand) string {
	alphabet := "abcXYZ 01\\\"\r\n\t-_'"
	n := r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

// genRule builds a random valid rule.
func genRule(r *rand.Rand, name string) *Rule {
	ops := []sysabi.Op{sysabi.OpRead, sysabi.OpWrite, sysabi.OpFRead, sysabi.OpFWrite,
		sysabi.OpOpen, sysabi.OpAccept, sysabi.OpClose, sysabi.OpClock}
	nMatch := r.Intn(3) + 1
	rule := &Rule{Name: name}
	var strVars, intVars []string
	vid := 0
	for i := 0; i < nMatch; i++ {
		op := ops[r.Intn(len(ops))]
		arity, _ := Arity(op)
		var binds []string
		for j := 0; j < arity; j++ {
			if r.Intn(4) == 0 {
				binds = append(binds, "_")
				continue
			}
			v := fmt.Sprintf("v%d", vid)
			vid++
			binds = append(binds, v)
			// Field type by op/position: data fields are strings
			// (read/write arg 1, open arg 0), the rest ints.
			isStr := (op == sysabi.OpRead || op == sysabi.OpWrite ||
				op == sysabi.OpFRead || op == sysabi.OpFWrite) && j == 1 ||
				op == sysabi.OpOpen && j == 0
			if isStr {
				strVars = append(strVars, v)
			} else {
				intVars = append(intVars, v)
			}
		}
		rule.Match = append(rule.Match, Pattern{Op: op, Binds: binds})
	}
	if r.Intn(2) == 0 {
		rule.Where = genExpr(r, 2, strVars, intVars, "bool")
	}
	nEmit := r.Intn(2) + 1
	for i := 0; i < nEmit; i++ {
		op := ops[r.Intn(len(ops))]
		arity, _ := Arity(op)
		var args []Expr
		for j := 0; j < arity; j++ {
			isStr := (op == sysabi.OpRead || op == sysabi.OpWrite ||
				op == sysabi.OpFRead || op == sysabi.OpFWrite) && j == 1 ||
				op == sysabi.OpOpen && j == 0
			if isStr {
				// Depth 0 is a literal or a bare variable: the payload a
				// template forwards whole, which the engine moves.
				args = append(args, genExpr(r, r.Intn(2), strVars, intVars, "string"))
			} else {
				args = append(args, genExpr(r, 1, strVars, intVars, "int"))
			}
		}
		rule.Emit = append(rule.Emit, Template{Op: op, Args: args})
	}
	return rule
}

// TestGeneratedRulesRoundTrip: for hundreds of randomly generated valid
// rules, print → parse → print is a fixed point and validation passes.
func TestGeneratedRulesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		rs := &RuleSet{Rules: []*Rule{genRule(r, fmt.Sprintf("gen-%d", i))}}
		if err := rs.Validate(); err != nil {
			t.Fatalf("generated rule invalid: %v\n%s", err, rs)
		}
		printed := rs.String()
		parsed, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, printed)
		}
		if parsed.String() != printed {
			t.Fatalf("round trip not stable:\n--- printed ---\n%s\n--- reparsed ---\n%s", printed, parsed.String())
		}
	}
}

// TestGeneratedRulesEngineSafety: feeding random events through engines
// built from generated rules never panics and obeys the count contract.
func TestGeneratedRulesEngineSafety(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mkEvent := func() sysabi.Event {
		ops := []sysabi.Op{sysabi.OpRead, sysabi.OpWrite, sysabi.OpOpen, sysabi.OpClose, sysabi.OpClock, sysabi.OpAccept}
		op := ops[r.Intn(len(ops))]
		ev := sysabi.Event{Call: sysabi.Call{Op: op, FD: r.Intn(8), Path: randText(r)}}
		ev.Call.Buf = []byte(randText(r))
		ev.Result.Ret = int64(r.Intn(100))
		ev.Result.Data = []byte(randText(r))
		return ev
	}
	for i := 0; i < 150; i++ {
		rs := &RuleSet{Rules: []*Rule{genRule(r, "g1"), genRule(r, "g2")}}
		if rs.Validate() != nil {
			continue
		}
		e := NewEngine(rs)
		window := make([]sysabi.Event, r.Intn(4)+1)
		for j := range window {
			window[j] = mkEvent()
		}
		out, consumed, fired := e.Transform(window)
		if consumed < 1 || consumed > len(window) {
			t.Fatalf("consumed = %d of %d", consumed, len(window))
		}
		if fired == nil && (consumed != 1 || len(out) != 1) {
			t.Fatalf("identity contract broken: consumed=%d out=%d", consumed, len(out))
		}
		if fired != nil && len(out) != len(fired.Emit) {
			t.Fatalf("emit contract broken: out=%d emit=%d", len(out), len(fired.Emit))
		}
	}
}
