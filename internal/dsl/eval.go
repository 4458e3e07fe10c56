package dsl

import (
	"bytes"
	"fmt"
)

// Value is a DSL runtime value: string, int64, or bool. A string is a
// byte view — of the event payload a pattern bound, of a literal's bytes,
// or of a buffer a builtin built — and nothing in the evaluator writes
// through one, so taking a substring, or binding a payload, copies nothing.
type Value struct {
	kind valueKind
	s    []byte
	i    int64 // the integer; a bool is 0 or 1
}

type valueKind int

const (
	valString valueKind = iota
	valInt
	valBool
)

// Str makes a string value (a copy of s).
func Str(s string) Value { return Value{kind: valString, s: []byte(s)} }

// view makes a string value that aliases b.
func view(b []byte) Value { return Value{kind: valString, s: b} }

// Int makes an integer value.
func Int(i int64) Value { return Value{kind: valInt, i: i} }

// Bool makes a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: valBool, i: 1}
	}
	return Value{kind: valBool}
}

// IsString reports whether the value is a string.
func (v Value) IsString() bool { return v.kind == valString }

// IsInt reports whether the value is an integer.
func (v Value) IsInt() bool { return v.kind == valInt }

// IsBool reports whether the value is a boolean.
func (v Value) IsBool() bool { return v.kind == valBool }

// AsBool returns the boolean payload (false if not a bool).
func (v Value) AsBool() bool { return v.kind == valBool && v.i != 0 }

// String formats the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case valString:
		return fmt.Sprintf("%q", v.s)
	case valInt:
		return fmt.Sprintf("%d", v.i)
	default:
		return fmt.Sprintf("%t", v.i != 0)
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

// Env binds pattern variables to values: a frame of one slot per name,
// which its owner refills for every evaluation instead of building a new
// one. A rule binds at most a handful of names, so a variable is found by
// scanning them.
type Env struct {
	names []string
	vals  []Value // vals[i] is bound to names[i]
	args  []Value // the arguments of the builtin calls being evaluated, innermost last
}

// Eval evaluates an expression under the environment.
func Eval(e Expr, env *Env) (Value, error) {
	switch v := e.(type) {
	case *StringLit:
		if v.bytes == nil { // not built by the parser
			return Str(v.Value), nil
		}
		return view(v.bytes), nil
	case *IntLit:
		return Int(v.Value), nil
	case *VarRef:
		for i, name := range env.names {
			if name == v.Name {
				return env.vals[i], nil
			}
		}
		return Value{}, evalErrf("unbound variable %q", v.Name)
	case *BinOp:
		return evalBinOp(v, env)
	case *CallFn:
		return evalCall(v, env)
	default:
		return Value{}, evalErrf("unknown expression %T", e)
	}
}

func evalBinOp(v *BinOp, env *Env) (Value, error) {
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
			eq = bytes.Equal(l.s, r.s)
		case l.kind == r.kind:
			eq = l.i == r.i
		default:
			return Value{}, evalErrf("cannot compare %s and %s", l, r)
		}
		return Bool(eq == (v.Op == "==")), nil
	case "+":
		switch {
		case l.IsInt() && r.IsInt():
			return Int(l.i + r.i), nil
		case l.IsString() && r.IsString():
			return view(append(append(make([]byte, 0, len(l.s)+len(r.s)), l.s...), r.s...)), nil
		default:
			return Value{}, evalErrf("cannot add %s and %s", l, r)
		}
	case "-":
		if l.IsInt() && r.IsInt() {
			return Int(l.i - r.i), nil
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
// string surgery. The accessors and predicates return views of their
// arguments; only what builds new text (replace, concat) allocates.
var builtins = map[string]builtin{
	"prefix": {2, func(a []Value) (Value, error) {
		if err := wantStrings(a, "prefix"); err != nil {
			return Value{}, err
		}
		return Bool(bytes.HasPrefix(a[0].s, a[1].s)), nil
	}},
	"suffix": {2, func(a []Value) (Value, error) {
		if err := wantStrings(a, "suffix"); err != nil {
			return Value{}, err
		}
		return Bool(bytes.HasSuffix(a[0].s, a[1].s)), nil
	}},
	// cmd returns the first whitespace-delimited token with trailing
	// CR/LF stripped: cmd("PUT k v\r\n") == "PUT".
	"cmd": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "cmd"); err != nil {
			return Value{}, err
		}
		return view(field(a[0].s, 0)), nil
	}},
	// arg returns the i-th (1-based) token after the command:
	// arg("PUT k v", 1) == "k".
	"arg": {2, func(a []Value) (Value, error) {
		if !a[0].IsString() || !a[1].IsInt() {
			return Value{}, evalErrf("arg wants (string, int)")
		}
		if a[1].i < 1 {
			return view(nil), nil
		}
		return view(field(a[0].s, a[1].i)), nil
	}},
	// typ extracts the paper's "-type" suffix from a command token:
	// typ("PUT-number") == "number", typ("PUT") == "".
	"typ": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "typ"); err != nil {
			return Value{}, err
		}
		tok := a[0].s
		if i := bytes.IndexByte(tok, '-'); i >= 0 {
			return view(tok[i+1:]), nil
		}
		return view(nil), nil
	}},
	// base strips a "-type" suffix: base("PUT-number") == "PUT".
	"base": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "base"); err != nil {
			return Value{}, err
		}
		tok := a[0].s
		if i := bytes.IndexByte(tok, '-'); i >= 0 {
			return view(tok[:i]), nil
		}
		return view(tok), nil
	}},
	"replace": {3, func(a []Value) (Value, error) {
		if err := wantStrings(a, "replace"); err != nil {
			return Value{}, err
		}
		return view(bytes.Replace(a[0].s, a[1].s, a[2].s, 1)), nil
	}},
	"concat": {-1, func(a []Value) (Value, error) {
		var b []byte
		for _, v := range a {
			if !v.IsString() {
				return Value{}, evalErrf("concat wants strings, got %s", v)
			}
			b = append(b, v.s...)
		}
		return view(b), nil
	}},
	"len": {1, func(a []Value) (Value, error) {
		if err := wantStrings(a, "len"); err != nil {
			return Value{}, err
		}
		return Int(int64(len(a[0].s))), nil
	}},
	"sub": {3, func(a []Value) (Value, error) {
		if !a[0].IsString() || !a[1].IsInt() || !a[2].IsInt() {
			return Value{}, evalErrf("sub wants (string, int, int)")
		}
		s := a[0].s
		i, j := int(a[1].i), int(a[2].i)
		if i < 0 || j > len(s) || i > j {
			return Value{}, evalErrf("sub bounds [%d:%d] out of range for %d bytes", i, j, len(s))
		}
		return view(s[i:j]), nil
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

// field returns the i-th (0-based) whitespace-separated token of s, nil
// when there are fewer — strings.Fields(s)[i] as a view of s, found by
// scanning in place. (A trailing CR/LF is white space, so the stripping
// cmd and arg promise needs no step of its own.) A line with a byte
// outside ASCII goes through bytes.Fields, so Unicode white space splits
// as it does there; proto.AppendFields draws the same line.
func field(s []byte, i int64) []byte {
	start, left := -1, i
	for j, c := range s {
		switch {
		case c >= 0x80:
			if f := bytes.Fields(s); i < int64(len(f)) {
				return f[i]
			}
			return nil
		case c == ' ' || '\t' <= c && c <= '\r':
			if start >= 0 {
				if left == 0 {
					return s[start:j]
				}
				left--
				start = -1
			}
		case start < 0:
			start = j
		}
	}
	if start >= 0 && left == 0 {
		return s[start:]
	}
	return nil
}

// checkCall reports what is wrong with a call's shape — an unknown
// function or the wrong number of arguments — as text, "" for nothing.
// Rule.Validate and the evaluator share it.
func checkCall(v *CallFn) (builtin, string) {
	b, ok := builtins[v.Name]
	switch {
	case !ok:
		return b, fmt.Sprintf("unknown function %q", v.Name)
	case b.arity >= 0 && len(v.Args) != b.arity:
		return b, fmt.Sprintf("%s wants %d args, got %d", v.Name, b.arity, len(v.Args))
	case b.arity < 0 && len(v.Args) == 0:
		return b, fmt.Sprintf("%s wants at least one arg", v.Name)
	}
	return b, ""
}

// evalCall evaluates the arguments onto env's argument stack — above
// those of the calls it is nested in — and pops them when the builtin
// returns, so a call allocates no argument slice of its own.
func evalCall(v *CallFn, env *Env) (Value, error) {
	b, bad := checkCall(v)
	if bad != "" {
		return Value{}, &EvalError{Msg: bad}
	}
	base := len(env.args)
	for _, a := range v.Args {
		val, err := Eval(a, env)
		if err != nil {
			env.args = env.args[:base]
			return Value{}, err
		}
		env.args = append(env.args, val)
	}
	res, err := b.fn(env.args[base:])
	env.args = env.args[:base]
	return res, err
}
