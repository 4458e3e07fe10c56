package dsl

import (
	"fmt"

	"mvedsua/internal/sysabi"
)

// Engine applies a RuleSet to the stream of events recorded by the leader,
// producing the sequence of events the follower is expected to exhibit.
//
// The MVE monitor feeds the engine pending leader events; the engine
// rewrites the front of that window whenever a rule matches. Rules are
// attempted in order; the first match wins; emitted events are not
// re-matched (no rule cascading, which also rules out rewrite loops).
type Engine struct {
	rules *RuleSet

	// Applied counts rule firings by rule name, for reporting.
	Applied map[string]int
}

// NewEngine returns an engine over the given rules. A nil rule set behaves
// as an empty one (identity transformation).
func NewEngine(rules *RuleSet) *Engine {
	if rules == nil {
		rules = &RuleSet{}
	}
	return &Engine{rules: rules, Applied: make(map[string]int)}
}

// Rules returns the engine's rule set.
func (e *Engine) Rules() *RuleSet { return e.rules }

// MaxLookahead returns how many leader events the engine may need to see
// at once to decide whether a rule fires.
func (e *Engine) MaxLookahead() int {
	n := e.rules.MaxMatchLen()
	if n < 1 {
		n = 1
	}
	return n
}

// NeedsLookahead reports how many pending leader events the monitor
// should try to buffer before transforming a window that starts with a
// call of the given op: the longest match sequence of any rule that could
// begin there. This keeps the follower from blocking on a quiescent
// leader when no multi-event rule could possibly apply.
func (e *Engine) NeedsLookahead(op sysabi.Op) int {
	need := 1
	for _, r := range e.rules.Rules {
		if len(r.Match) > need && r.Match[0].Op == op {
			need = len(r.Match)
		}
	}
	return need
}

// Transform examines the front of the pending leader-event window. If a
// rule matches, it returns the emitted expected events, the number of
// leader events consumed, and the rule that fired. Otherwise it returns
// the first event unchanged with consumed = 1 — as window[:1], so the
// common no-rule outcome allocates nothing.
func (e *Engine) Transform(window []sysabi.Event) (expected []sysabi.Event, consumed int, fired *Rule) {
	if len(window) == 0 {
		return nil, 0, nil
	}
	head := window[0].Call.Op
	for _, r := range e.rules.Rules {
		// A rule that cannot start at this op is skipped before any
		// binding environment is built for it.
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
			// A failing emit is a rule-authoring bug; treat the rule
			// as non-matching rather than corrupting the stream.
			continue
		}
		e.Applied[r.Name]++
		return out, len(r.Match), r
	}
	return window[:1:1], 1, nil
}

// matchSeq binds the pattern sequence against the events.
func matchSeq(pats []Pattern, evs []sysabi.Event) (Env, bool) {
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

func bindPattern(p Pattern, ev sysabi.Event, env Env) bool {
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
func emitSeq(tpls []Template, env Env) ([]sysabi.Event, error) {
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

func emitOne(t Template, env Env) (sysabi.Event, error) {
	vals := make([]Value, len(t.Args))
	for i, a := range t.Args {
		v, err := Eval(a, env)
		if err != nil {
			return sysabi.Event{}, err
		}
		vals[i] = v
	}
	bad := func(i int, want string) error {
		return evalErrf("emit %s arg %d: want %s, got %s", opName(t.Op), i, want, vals[i])
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

// TotalApplied returns the total number of rule firings.
func (e *Engine) TotalApplied() int {
	n := 0
	for _, c := range e.Applied {
		n += c
	}
	return n
}

// DescribeApplied formats rule-firing counts for reports.
func (e *Engine) DescribeApplied() string {
	if len(e.Applied) == 0 {
		return "no rules fired"
	}
	s := ""
	for _, r := range e.rules.Rules {
		if c := e.Applied[r.Name]; c > 0 {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s×%d", r.Name, c)
		}
	}
	return s
}
