package dsl_test

import (
	"fmt"
	"strings"

	"mvedsua/internal/dsl"
	"mvedsua/internal/sysabi"
)

// The reference interpreter: the engine and evaluator as they were before
// rule hits stopped allocating — string-backed values, a map-backed Env
// built per attempt, events rebuilt from copies — moved here unchanged
// (only the AST types gained their package name). It never touches the
// window, shares nothing between calls, and is what the tests in
// oracle_test.go hold dsl.Engine.Transform to.

// refTransform is the old Engine.Transform over a bare rule set.
func refTransform(rs *dsl.RuleSet, window []sysabi.Event) (expected []sysabi.Event, consumed int, fired *dsl.Rule) {
	if len(window) == 0 {
		return nil, 0, nil
	}
	head := window[0].Call.Op
	for _, r := range rs.Rules {
		if n := len(r.Match); n == 0 || n > len(window) || r.Match[0].Op != head {
			continue
		}
		env, ok := matchSeq(r.Match, window[:len(r.Match)])
		if !ok {
			continue
		}
		if r.Where != nil {
			v, err := Eval(r.Where, env)
			if err != nil || !v.IsBool() || !v.AsBool() {
				continue
			}
		}
		out, err := emitSeq(r.Emit, env)
		if err != nil {
			continue
		}
		return out, len(r.Match), r
	}
	return window[:1:1], 1, nil
}

// matchSeq binds the pattern sequence against the events.
func matchSeq(pats []dsl.Pattern, evs []sysabi.Event) (Env, bool) {
	env := Env{}
	for i, p := range pats {
		if !bindPattern(p, evs[i], env) {
			return nil, false
		}
	}
	return env, true
}

// fieldValues extracts the DSL-visible fields of an event, in the order
// declared by Arity.
func fieldValues(ev sysabi.Event) []Value {
	switch ev.Call.Op {
	case sysabi.OpRead, sysabi.OpFRead:
		return []Value{
			Int(int64(ev.Call.FD)),
			Str(string(ev.Result.Data)),
			Int(ev.Result.Ret),
		}
	case sysabi.OpWrite, sysabi.OpFWrite:
		return []Value{
			Int(int64(ev.Call.FD)),
			Str(string(ev.Call.Buf)),
			Int(int64(len(ev.Call.Buf))),
		}
	case sysabi.OpAccept:
		return []Value{Int(int64(ev.Call.FD)), Int(ev.Result.Ret)}
	case sysabi.OpOpen:
		return []Value{Str(ev.Call.Path), Int(ev.Call.Args[0]), Int(ev.Result.Ret)}
	case sysabi.OpClose:
		return []Value{Int(int64(ev.Call.FD))}
	case sysabi.OpClock:
		return []Value{Int(ev.Result.Ret)}
	default:
		return nil
	}
}

func bindPattern(p dsl.Pattern, ev sysabi.Event, env Env) bool {
	if p.Op != ev.Call.Op {
		return false
	}
	vals := fieldValues(ev)
	if vals == nil || len(vals) != len(p.Binds) {
		return false
	}
	for i, name := range p.Binds {
		if name == "_" {
			continue
		}
		env[name] = vals[i]
	}
	return true
}

// emitSeq builds the expected events from the templates.
func emitSeq(tpls []dsl.Template, env Env) ([]sysabi.Event, error) {
	out := make([]sysabi.Event, 0, len(tpls))
	for _, t := range tpls {
		ev, err := emitOne(t, env)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func emitOne(t dsl.Template, env Env) (sysabi.Event, error) {
	vals := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := Eval(a, env)
		if err != nil {
			return sysabi.Event{}, err
		}
		vals[i] = v
	}
	bad := func(i int, want string) error {
		return evalErrf("emit %s arg %d: want %s, got %s", t.Op.String(), i, want, vals[i])
	}
	switch t.Op {
	case sysabi.OpRead, sysabi.OpFRead:
		if !vals[0].IsInt() {
			return sysabi.Event{}, bad(0, "int fd")
		}
		if !vals[1].IsString() {
			return sysabi.Event{}, bad(1, "string data")
		}
		if !vals[2].IsInt() {
			return sysabi.Event{}, bad(2, "int count")
		}
		return sysabi.Event{
			Call:   sysabi.Call{Op: t.Op, FD: int(vals[0].AsInt())},
			Result: sysabi.Result{Ret: vals[2].AsInt(), Data: []byte(vals[1].AsString())},
		}, nil
	case sysabi.OpWrite, sysabi.OpFWrite:
		if !vals[0].IsInt() {
			return sysabi.Event{}, bad(0, "int fd")
		}
		if !vals[1].IsString() {
			return sysabi.Event{}, bad(1, "string data")
		}
		if !vals[2].IsInt() {
			return sysabi.Event{}, bad(2, "int count")
		}
		return sysabi.Event{
			Call:   sysabi.Call{Op: t.Op, FD: int(vals[0].AsInt()), Buf: []byte(vals[1].AsString())},
			Result: sysabi.Result{Ret: vals[2].AsInt()},
		}, nil
	case sysabi.OpAccept:
		if !vals[0].IsInt() || !vals[1].IsInt() {
			return sysabi.Event{}, evalErrf("emit accept wants (int, int)")
		}
		return sysabi.Event{
			Call:   sysabi.Call{Op: t.Op, FD: int(vals[0].AsInt())},
			Result: sysabi.Result{Ret: vals[1].AsInt()},
		}, nil
	case sysabi.OpOpen:
		if !vals[0].IsString() || !vals[1].IsInt() || !vals[2].IsInt() {
			return sysabi.Event{}, evalErrf("emit open wants (string, int, int)")
		}
		return sysabi.Event{
			Call:   sysabi.Call{Op: t.Op, Path: vals[0].AsString(), Args: [2]int64{vals[1].AsInt(), 0}},
			Result: sysabi.Result{Ret: vals[2].AsInt()},
		}, nil
	case sysabi.OpClose:
		if !vals[0].IsInt() {
			return sysabi.Event{}, bad(0, "int fd")
		}
		return sysabi.Event{Call: sysabi.Call{Op: t.Op, FD: int(vals[0].AsInt())}}, nil
	case sysabi.OpClock:
		if !vals[0].IsInt() {
			return sysabi.Event{}, bad(0, "int time")
		}
		return sysabi.Event{Call: sysabi.Call{Op: t.Op}, Result: sysabi.Result{Ret: vals[0].AsInt()}}, nil
	default:
		return sysabi.Event{}, evalErrf("emit: unsupported op %v", t.Op)
	}
}

// Value is a DSL runtime value: string, int64, or bool.
type Value struct {
	kind valueKind
	s    string
	i    int64
	b    bool
}

type valueKind int

const (
	valString valueKind = iota
	valInt
	valBool
)

// Str makes a string value.
func Str(s string) Value { return Value{kind: valString, s: s} }

// Int makes an integer value.
func Int(i int64) Value { return Value{kind: valInt, i: i} }

// Bool makes a boolean value.
func Bool(b bool) Value { return Value{kind: valBool, b: b} }

// IsString reports whether the value is a string.
func (v Value) IsString() bool { return v.kind == valString }

// IsInt reports whether the value is an integer.
func (v Value) IsInt() bool { return v.kind == valInt }

// IsBool reports whether the value is a boolean.
func (v Value) IsBool() bool { return v.kind == valBool }

// AsString returns the string payload (zero if not a string).
func (v Value) AsString() string { return v.s }

// AsInt returns the integer payload (zero if not an int).
func (v Value) AsInt() int64 { return v.i }

// AsBool returns the boolean payload (false if not a bool).
func (v Value) AsBool() bool { return v.b }

// String formats the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case valString:
		return fmt.Sprintf("%q", v.s)
	case valInt:
		return fmt.Sprintf("%d", v.i)
	default:
		return fmt.Sprintf("%t", v.b)
	}
}

// EvalError reports a runtime type or argument failure during rule
// evaluation. The engine treats an EvalError as "rule does not match".
type EvalError struct{ Msg string }

// Error implements the error interface.
func (e *EvalError) Error() string { return "dsl eval: " + e.Msg }

func evalErrf(format string, args ...interface{}) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Env binds pattern variables to values.
type Env map[string]Value

// Eval evaluates an expression under the environment.
func Eval(e dsl.Expr, env Env) (Value, error) {
	switch v := e.(type) {
	case *dsl.StringLit:
		return Str(v.Value), nil
	case *dsl.IntLit:
		return Int(v.Value), nil
	case *dsl.VarRef:
		val, ok := env[v.Name]
		if !ok {
			return Value{}, evalErrf("unbound variable %q", v.Name)
		}
		return val, nil
	case *dsl.BinOp:
		return evalBinOp(v, env)
	case *dsl.CallFn:
		return evalCall(v, env)
	default:
		return Value{}, evalErrf("unknown expression %T", e)
	}
}

func evalBinOp(v *dsl.BinOp, env Env) (Value, error) {
	// Short-circuit logical operators.
	if v.Op == "&&" || v.Op == "||" {
		l, err := Eval(v.L, env)
		if err != nil {
			return Value{}, err
		}
		if !l.IsBool() {
			return Value{}, evalErrf("%s on non-bool %s", v.Op, l)
		}
		if v.Op == "&&" && !l.AsBool() {
			return Bool(false), nil
		}
		if v.Op == "||" && l.AsBool() {
			return Bool(true), nil
		}
		r, err := Eval(v.R, env)
		if err != nil {
			return Value{}, err
		}
		if !r.IsBool() {
			return Value{}, evalErrf("%s on non-bool %s", v.Op, r)
		}
		return r, nil
	}
	l, err := Eval(v.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := Eval(v.R, env)
	if err != nil {
		return Value{}, err
	}
	switch v.Op {
	case "==", "!=":
		var eq bool
		switch {
		case l.IsString() && r.IsString():
			eq = l.AsString() == r.AsString()
		case l.IsInt() && r.IsInt():
			eq = l.AsInt() == r.AsInt()
		case l.IsBool() && r.IsBool():
			eq = l.AsBool() == r.AsBool()
		default:
			return Value{}, evalErrf("cannot compare %s and %s", l, r)
		}
		if v.Op == "!=" {
			eq = !eq
		}
		return Bool(eq), nil
	case "+":
		switch {
		case l.IsInt() && r.IsInt():
			return Int(l.AsInt() + r.AsInt()), nil
		case l.IsString() && r.IsString():
			return Str(l.AsString() + r.AsString()), nil
		default:
			return Value{}, evalErrf("cannot add %s and %s", l, r)
		}
	case "-":
		if l.IsInt() && r.IsInt() {
			return Int(l.AsInt() - r.AsInt()), nil
		}
		return Value{}, evalErrf("cannot subtract %s and %s", l, r)
	default:
		return Value{}, evalErrf("unknown operator %q", v.Op)
	}
}

// builtin implements one DSL function.
type builtin struct {
	arity int // -1 means variadic (>= 1)
	fn    func(args []Value) (Value, error)
}

// builtins is the DSL's function library. Text-processing helpers mirror
// the paper's examples: parse-like accessors (cmd, arg, typ) plus general
// string surgery.
var builtins = map[string]builtin{
	"prefix": {2, func(a []Value) (Value, error) {
		if err := wantStrings(a, "prefix"); err != nil {
			return Value{}, err
		}
		return Bool(strings.HasPrefix(a[0].AsString(), a[1].AsString())), nil
	}},
	"suffix": {2, func(a []Value) (Value, error) {
		if err := wantStrings(a, "suffix"); err != nil {
			return Value{}, err
		}
		return Bool(strings.HasSuffix(a[0].AsString(), a[1].AsString())), nil
	}},
	// cmd returns the first whitespace-delimited token with trailing
	// CR/LF stripped: cmd("PUT k v\r\n") == "PUT".
	"cmd": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "cmd"); err != nil {
			return Value{}, err
		}
		fields := strings.Fields(strings.TrimRight(a[0].AsString(), "\r\n"))
		if len(fields) == 0 {
			return Str(""), nil
		}
		return Str(fields[0]), nil
	}},
	// arg returns the i-th (1-based) token after the command:
	// arg("PUT k v", 1) == "k".
	"arg": {2, func(a []Value) (Value, error) {
		if !a[0].IsString() || !a[1].IsInt() {
			return Value{}, evalErrf("arg wants (string, int)")
		}
		fields := strings.Fields(strings.TrimRight(a[0].AsString(), "\r\n"))
		i := int(a[1].AsInt())
		if i < 1 || i >= len(fields) {
			return Str(""), nil
		}
		return Str(fields[i]), nil
	}},
	// typ extracts the paper's "-type" suffix from a command token:
	// typ("PUT-number") == "number", typ("PUT") == "".
	"typ": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "typ"); err != nil {
			return Value{}, err
		}
		tok := a[0].AsString()
		if i := strings.IndexByte(tok, '-'); i >= 0 {
			return Str(tok[i+1:]), nil
		}
		return Str(""), nil
	}},
	// base strips a "-type" suffix: base("PUT-number") == "PUT".
	"base": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "base"); err != nil {
			return Value{}, err
		}
		tok := a[0].AsString()
		if i := strings.IndexByte(tok, '-'); i >= 0 {
			return Str(tok[:i]), nil
		}
		return Str(tok), nil
	}},
	"replace": {3, func(a []Value) (Value, error) {
		if err := wantStrings(a, "replace"); err != nil {
			return Value{}, err
		}
		return Str(strings.Replace(a[0].AsString(), a[1].AsString(), a[2].AsString(), 1)), nil
	}},
	"concat": {-1, func(a []Value) (Value, error) {
		var b strings.Builder
		for _, v := range a {
			if !v.IsString() {
				return Value{}, evalErrf("concat wants strings, got %s", v)
			}
			b.WriteString(v.AsString())
		}
		return Str(b.String()), nil
	}},
	"len": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "len"); err != nil {
			return Value{}, err
		}
		return Int(int64(len(a[0].AsString()))), nil
	}},
	"sub": {3, func(a []Value) (Value, error) {
		if !a[0].IsString() || !a[1].IsInt() || !a[2].IsInt() {
			return Value{}, evalErrf("sub wants (string, int, int)")
		}
		s := a[0].AsString()
		i, j := int(a[1].AsInt()), int(a[2].AsInt())
		if i < 0 || j > len(s) || i > j {
			return Value{}, evalErrf("sub bounds [%d:%d] out of range for %d bytes", i, j, len(s))
		}
		return Str(s[i:j]), nil
	}},
}

func wantStrings(a []Value, fn string) error {
	for _, v := range a {
		if !v.IsString() {
			return evalErrf("%s wants string arguments, got %s", fn, v)
		}
	}
	return nil
}

func evalCall(v *dsl.CallFn, env Env) (Value, error) {
	b, ok := builtins[v.Name]
	if !ok {
		return Value{}, evalErrf("unknown function %q", v.Name)
	}
	if b.arity >= 0 && len(v.Args) != b.arity {
		return Value{}, evalErrf("%s wants %d args, got %d", v.Name, b.arity, len(v.Args))
	}
	if b.arity < 0 && len(v.Args) == 0 {
		return Value{}, evalErrf("%s wants at least one arg", v.Name)
	}
	args := make([]Value, len(v.Args))
	for i, a := range v.Args {
		val, err := Eval(a, env)
		if err != nil {
			return Value{}, err
		}
		args[i] = val
	}
	return b.fn(args)
}
