package dsl

import (
	"slices"

	"mvedsua/internal/sysabi"
)

// Engine applies a RuleSet to the stream of events recorded by the leader,
// producing the sequence of events the follower is expected to exhibit.
//
// The MVE monitor feeds the engine pending leader events; the engine
// rewrites the front of that window whenever a rule matches. Rules are
// attempted in order; the first match wins; emitted events are not
// re-matched (no rule cascading, which also rules out rewrite loops).
//
// A rule hit allocates nothing unless a template builds or quotes text: a
// pattern binds an event's payload as a view of it, into a frame the
// engine owns; a template that forwards such a variable as it is moves
// the payload into the emitted event; the emitted events live in storage
// the engine reuses. An engine therefore serves one stream at a time.
type Engine struct {
	rules *RuleSet
	// plans[i] is what the engine worked out about rules.Rules[i]. It
	// stays out of the RuleSet, which engines on different shards share.
	plans []plan
	look  [sysabi.OpExit + 1]int // NeedsLookahead, by op; 0 reads as 1

	env   Env            // the binding frame, refilled per attempt
	out   []sysabi.Event // the events of the last hit
	moved []int          // slots whose payload the templates so far have taken
}

// plan lays a rule's variables out in the frame.
type plan struct {
	names []string // slot -> variable
	binds [][]int  // pattern -> field -> slot, -1 for "_"
	from  []int    // slot -> the matched event whose payload it views, -1 for none
	fwd   []int    // template -> the slot its payload argument names bare, -1 for none
}

// NewEngine returns an engine over the given rules. A nil rule set behaves
// as an empty one (identity transformation).
func NewEngine(rules *RuleSet) *Engine {
	if rules == nil {
		rules = &RuleSet{}
	}
	e := &Engine{rules: rules, plans: make([]plan, len(rules.Rules))}
	frame := 0
	for i, r := range rules.Rules {
		e.plans[i] = planRule(r)
		frame = max(frame, len(e.plans[i].names))
		if len(r.Match) > 0 {
			if op := r.Match[0].Op; op >= 0 && int(op) < len(e.look) {
				e.look[op] = max(e.look[op], len(r.Match))
			}
		}
	}
	e.env.vals = make([]Value, frame)
	return e
}

func planRule(r *Rule) plan {
	var p plan
	slot := func(name string) int {
		for i, n := range p.names {
			if n == name {
				return i
			}
		}
		p.names = append(p.names, name)
		p.from = append(p.from, -1)
		return len(p.names) - 1
	}
	for i, pat := range r.Match {
		slots := make([]int, len(pat.Binds))
		for j, name := range pat.Binds {
			slots[j] = -1
			if name != "_" {
				s := slot(name)
				slots[j], p.from[s] = s, -1
				if j == 1 && hasData(pat.Op) {
					p.from[s] = i
				}
			}
		}
		p.binds = append(p.binds, slots)
	}
	for _, t := range r.Emit {
		fwd := -1
		if hasData(t.Op) && len(t.Args) > 1 {
			if v, ok := t.Args[1].(*VarRef); ok {
				for s, name := range p.names {
					if name == v.Name && p.from[s] >= 0 {
						fwd = s
					}
				}
			}
		}
		p.fwd = append(p.fwd, fwd)
	}
	return p
}

// hasData reports whether events of op carry the bytes the DSL calls
// their data — what a read delivered, what a write wrote — as field 1.
func hasData(op sysabi.Op) bool {
	switch op {
	case sysabi.OpRead, sysabi.OpFRead, sysabi.OpWrite, sysabi.OpFWrite:
		return true
	}
	return false
}

// dataOf returns the field of ev, an event with data, that holds it.
func dataOf(ev *sysabi.Event) *[]byte {
	if ev.Call.Op == sysabi.OpRead || ev.Call.Op == sysabi.OpFRead {
		return &ev.Result.Data
	}
	return &ev.Call.Buf
}

// NeedsLookahead reports how many pending leader events the monitor
// should try to buffer before transforming a window that starts with a
// call of the given op: the longest match sequence of any rule that could
// begin there. This keeps the follower from blocking on a quiescent
// leader when no multi-event rule could possibly apply.
func (e *Engine) NeedsLookahead(op sysabi.Op) int {
	if op < 0 || int(op) >= len(e.look) {
		return 1
	}
	return max(1, e.look[op])
}

// Transform examines the front of the pending leader-event window. If a
// rule matches, it returns the emitted expected events, the number of
// leader events consumed, and the rule that fired. Otherwise it returns
// the first event unchanged with consumed = 1, as window[:1].
//
// Two contracts. The returned events are valid until the next Transform:
// a hit's live in storage the engine reuses. And a hit consumes
// window[:consumed]: a payload a template forwarded as the bare variable
// a pattern bound it to now belongs to the emitted event and is nil in
// the window, every other payload of an emitted event is a copy of its
// own, and what the window still holds is the caller's to dispose of. A
// miss leaves the window as it was.
func (e *Engine) Transform(window []sysabi.Event) (expected []sysabi.Event, consumed int, fired *Rule) {
	if len(window) == 0 {
		return nil, 0, nil
	}
	head := window[0].Call.Op
	for i, r := range e.rules.Rules {
		// A rule that cannot start at this op is skipped before anything
		// is bound for it.
		if n := len(r.Match); n == 0 || n > len(window) || r.Match[0].Op != head {
			continue
		}
		p := &e.plans[i]
		e.env.names, e.env.args = p.names, e.env.args[:0]
		if !e.match(r, p, window) {
			continue
		}
		if r.Where != nil {
			v, err := Eval(r.Where, &e.env)
			if err != nil || !v.AsBool() {
				continue
			}
		}
		// A failing emit is a rule-authoring bug; treat the rule as
		// non-matching rather than corrupting the stream. Nothing has
		// left the window until every template evaluated.
		if !e.emit(r, p) {
			continue
		}
		for _, s := range e.moved {
			*dataOf(&window[p.from[s]]) = nil
		}
		return e.out, len(r.Match), r
	}
	return window[:1:1], 1, nil
}

// match binds the pattern sequence against the front of the window: each
// event's DSL-visible fields, in the order declared by Arity, into the
// slots the plan gave them.
func (e *Engine) match(r *Rule, p *plan, window []sysabi.Event) bool {
	for i, pat := range r.Match {
		ev := &window[i]
		if pat.Op != ev.Call.Op {
			return false
		}
		var f [3]Value
		n := 0
		switch pat.Op {
		case sysabi.OpRead, sysabi.OpFRead:
			f, n = [3]Value{Int(int64(ev.Call.FD)), view(ev.Result.Data), Int(ev.Result.Ret)}, 3
		case sysabi.OpWrite, sysabi.OpFWrite:
			f, n = [3]Value{Int(int64(ev.Call.FD)), view(ev.Call.Buf), Int(int64(len(ev.Call.Buf)))}, 3
		case sysabi.OpAccept:
			f, n = [3]Value{Int(int64(ev.Call.FD)), Int(ev.Result.Ret)}, 2
		case sysabi.OpOpen:
			f, n = [3]Value{Str(ev.Call.Path), Int(ev.Call.Args[0]), Int(ev.Result.Ret)}, 3
		case sysabi.OpClose:
			f, n = [3]Value{Int(int64(ev.Call.FD))}, 1
		case sysabi.OpClock:
			f, n = [3]Value{Int(ev.Result.Ret)}, 1
		}
		if n == 0 || n != len(pat.Binds) {
			return false
		}
		for j, s := range p.binds[i] {
			if s >= 0 {
				e.env.vals[s] = f[j]
			}
		}
	}
	return true
}

// emit builds the expected events from the templates into e.out, and
// lists in e.moved the slots whose payloads they took.
func (e *Engine) emit(r *Rule, p *plan) bool {
	e.out, e.moved = e.out[:0], e.moved[:0]
	for i := range r.Emit {
		if err := e.emitOne(&r.Emit[i], p.fwd[i]); err != nil {
			return false
		}
	}
	return true
}

// emitOne appends one expected event to e.out. Its payload, if it has
// one, is the matched event's own buffer when the template forwards the
// variable bound to it (slot >= 0) and no earlier template took it, and
// otherwise a copy: every payload of an emitted event belongs to that
// event alone. An emitted payload is never nil, as a quoted "" never was.
func (e *Engine) emitOne(t *Template, slot int) error {
	if n, ok := Arity(t.Op); !ok || len(t.Args) != n {
		return evalErrf("emit %s: unsupported op or wrong argument count %d", opName(t.Op), len(t.Args))
	}
	var vals [3]Value
	for i, a := range t.Args {
		v, err := Eval(a, &e.env)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	bad := func(i int, want string) error {
		return evalErrf("emit %s arg %d: want %s, got %s", opName(t.Op), i, want, vals[i])
	}
	ev := sysabi.Event{Call: sysabi.Call{Op: t.Op}}
	switch t.Op {
	case sysabi.OpRead, sysabi.OpFRead, sysabi.OpWrite, sysabi.OpFWrite:
		if !vals[0].IsInt() {
			return bad(0, "int fd")
		}
		if !vals[1].IsString() {
			return bad(1, "string data")
		}
		if !vals[2].IsInt() {
			return bad(2, "int count")
		}
		ev.Call.FD, ev.Result.Ret = int(vals[0].i), vals[2].i
		data := vals[1].s
		if slot >= 0 && !slices.Contains(e.moved, slot) {
			e.moved = append(e.moved, slot)
			if data == nil {
				data = []byte{}
			}
		} else {
			data = append([]byte{}, data...)
		}
		*dataOf(&ev) = data
	case sysabi.OpAccept:
		if !vals[0].IsInt() || !vals[1].IsInt() {
			return evalErrf("emit accept wants (int, int)")
		}
		ev.Call.FD, ev.Result.Ret = int(vals[0].i), vals[1].i
	case sysabi.OpOpen:
		if !vals[0].IsString() || !vals[1].IsInt() || !vals[2].IsInt() {
			return evalErrf("emit open wants (string, int, int)")
		}
		ev.Call.Path, ev.Call.Args[0], ev.Result.Ret = string(vals[0].s), vals[1].i, vals[2].i
	case sysabi.OpClose:
		if !vals[0].IsInt() {
			return bad(0, "int fd")
		}
		ev.Call.FD = int(vals[0].i)
	case sysabi.OpClock:
		if !vals[0].IsInt() {
			return bad(0, "int time")
		}
		ev.Result.Ret = vals[0].i
	}
	e.out = append(e.out, ev)
	return nil
}
