package dsl_test

import (
	"strings"
	"testing"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/dsl"
	"mvedsua/internal/sysabi"
)

// A stream is the window a follower's monitor hands the engine, rebuilt
// before every Transform from the same few buffers — a hit moves payloads
// out of the window, and the monitor's next window holds new ones. Filling
// it allocates nothing, so AllocsPerRun and the benchmarks see the engine
// alone.
type stream struct {
	window []sysabi.Event
	fill   func(window []sysabi.Event)
}

func (s *stream) next() []sysabi.Event {
	s.fill(s.window)
	return s.window
}

func read(data []byte) sysabi.Event {
	return sysabi.Event{
		Call:   sysabi.Call{Op: sysabi.OpRead, FD: 5, Args: [2]int64{4096, 0}},
		Result: sysabi.Result{Ret: int64(len(data)), Data: data},
	}
}

func write(data []byte) sysabi.Event {
	return sysabi.Event{
		Call:   sysabi.Call{Op: sysabi.OpWrite, FD: 5, Buf: data},
		Result: sysabi.Result{Ret: int64(len(data))},
	}
}

func clock(ns int64) sysabi.Event {
	return sysabi.Event{Call: sysabi.Call{Op: sysabi.OpClock}, Result: sysabi.Result{Ret: ns}}
}

// reorderStream is what kvstore 2.0.0 records per command, which the
// 2.0.0 -> 2.0.1 rule reorders: every payload forwarded, none copied.
func reorderStream() (*dsl.Engine, *stream) {
	rules, _ := kvstore.RulesFor("2.0.0", "2.0.1")
	reply := []byte("$11\r\nhello world\r\n")
	return dsl.NewEngine(rules), &stream{make([]sysabi.Event, 2), func(w []sysabi.Event) {
		w[0], w[1] = clock(42), write(reply)
	}}
}

// expireStream is one whole command of kvstore 2.0.3 as the 2.0.3 ->
// 2.1.0 rules see it: "expire-redirect" binds all three events and
// evaluates its where clause on every command; on GET it misses, on
// EXPIRE it hits and emits two literals.
func expireStream(cmd, reply string) (*dsl.Engine, *stream) {
	rules, _ := kvstore.RulesFor("2.0.3", "2.1.0")
	c, r := []byte(cmd), []byte(reply)
	return dsl.NewEngine(rules), &stream{make([]sysabi.Event, 3), func(w []sysabi.Event) {
		w[0], w[1], w[2] = read(c), write(r), clock(42)
	}}
}

// TestTransformAllocations pins the rule path's allocation budget without
// timing anything: a hit that forwards its payloads allocates nothing,
// nor does a rule that binds a window, evaluates its where clause and
// misses; a hit that emits literals allocates exactly the copies the
// emitted events own.
func TestTransformAllocations(t *testing.T) {
	type build func() (*dsl.Engine, *stream)
	for _, tc := range []struct {
		name  string
		build build
		fired string
		want  float64
	}{
		{"reorder-hit", reorderStream, "stats-clock-order", 0},
		{"bind-then-where-miss", func() (*dsl.Engine, *stream) {
			return expireStream("GET key:000017\r\n", "$-1\r\n")
		}, "", 0},
		// "bad-cmd\r\n" and "-ERR unknown command 'bad-cmd'\r\n".
		{"literal-hit", func() (*dsl.Engine, *stream) {
			return expireStream("EXPIRE key:000017 100\r\n", "-ERR unknown command 'EXPIRE'\r\n")
		}, "expire-redirect", 2},
		{"no-rules", func() (*dsl.Engine, *stream) {
			_, s := reorderStream()
			return dsl.NewEngine(nil), s
		}, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, s := tc.build()
			fired := ""
			got := testing.AllocsPerRun(100, func() {
				fired = ""
				if _, _, r := eng.Transform(s.next()); r != nil {
					fired = r.Name
				}
			})
			if got != tc.want || fired != tc.fired {
				t.Errorf("%v allocations per Transform, rule %q fired; want %v and %q", got, fired, tc.want, tc.fired)
			}
		})
	}
}

// TestForwardedPayloadMoves: the reorder rule's emitted write is the
// recorded write's own buffer, the window gives it up, and so a monitor
// that recycles what the window still holds recycles nothing an emitted
// event kept.
func TestForwardedPayloadMoves(t *testing.T) {
	eng, s := reorderStream()
	window := s.next()
	reply := window[1].Call.Buf
	out, n, fired := eng.Transform(window)
	if fired == nil || n != 2 || len(out) != 2 {
		t.Fatalf("fired %v, consumed %d, emitted %d", fired, n, len(out))
	}
	if &out[0].Call.Buf[0] != &reply[0] || len(out[0].Call.Buf) != len(reply) || cap(out[0].Call.Buf) != cap(reply) {
		t.Errorf("the emitted write does not carry the recorded buffer itself")
	}
	if window[1].Call.Buf != nil {
		t.Errorf("the window still holds the payload it forwarded: %q", window[1].Call.Buf)
	}
	if out[1].Call.Op != sysabi.OpClock || out[1].Result.Ret != 42 {
		t.Errorf("emitted %v after the write", out[1])
	}
}

// TestFailingEmitLeavesTheWindow: the first rule forwards the write, then
// fails on its second template; that means "does not match", so the
// window must be byte for byte what it was, and the next rule must still
// find the payload there to forward.
func TestFailingEmitLeavesTheWindow(t *testing.T) {
	eng := dsl.NewEngine(dsl.MustParse(`
rule "fails-late" {
    match read(fd, s, n), write(fd2, r, m) {
        emit write(fd2, r, m), read(fd, sub(s, 0, 9999), n);
    }
}
rule "swap" {
    match read(fd, s, n), write(fd2, r, m) {
        emit write(fd2, r, m), read(fd, s, n);
    }
}
`))
	cmd, reply := []byte("GET k\r\n"), []byte("+OK\r\n")
	window := []sysabi.Event{read(cmd), write(reply)}
	out, n, fired := eng.Transform(window)
	if fired == nil || fired.Name != "swap" || n != 2 {
		t.Fatalf("fired %v, consumed %d", fired, n)
	}
	if string(out[0].Call.Buf) != "+OK\r\n" || &out[0].Call.Buf[0] != &reply[0] ||
		string(out[1].Result.Data) != "GET k\r\n" || &out[1].Result.Data[0] != &cmd[0] {
		t.Errorf("emitted %q and %q, or copies of them", out[0].Call.Buf, out[1].Result.Data)
	}

	// And with no second rule to catch it, the window stays whole.
	eng = dsl.NewEngine(dsl.MustParse(`
rule "fails-late" {
    match read(fd, s, n), write(fd2, r, m) {
        emit write(fd2, r, m), read(fd, sub(s, 0, 9999), n);
    }
}
`))
	window = []sysabi.Event{read(cmd), write(reply)}
	out, n, fired = eng.Transform(window)
	if fired != nil || n != 1 || &out[0] != &window[0] {
		t.Fatalf("fired %v, consumed %d", fired, n)
	}
	if string(window[0].Result.Data) != "GET k\r\n" || string(window[1].Call.Buf) != "+OK\r\n" || &window[1].Call.Buf[0] != &reply[0] {
		t.Errorf("a failing emit changed the window: %q, %q", window[0].Result.Data, window[1].Call.Buf)
	}
}

// TestPayloadForwardedTwiceIsCopiedOnce: two templates forward the same
// variable; the first takes the buffer, the second gets bytes of its own
// — an emitted event's payload belongs to that event alone, because each
// is given back to the ring separately when its event retires.
func TestPayloadForwardedTwiceIsCopiedOnce(t *testing.T) {
	eng := dsl.NewEngine(dsl.MustParse(`
rule "twice" { match write(fd, s, n) { emit write(fd, s, n), write(fd, s, n); } }
`))
	reply := []byte("+OK\r\n")
	window := []sysabi.Event{write(reply)}
	out, _, fired := eng.Transform(window)
	if fired == nil || len(out) != 2 {
		t.Fatalf("fired %v, emitted %d", fired, len(out))
	}
	if &out[0].Call.Buf[0] != &reply[0] || window[0].Call.Buf != nil {
		t.Errorf("the first template did not take the recorded buffer")
	}
	out[0].Call.Buf[0] = '!'
	if got := string(out[1].Call.Buf); got != "+OK\r\n" {
		t.Errorf("the second event shares bytes with the first: %q after the first was overwritten", got)
	}
}

// TestMovedEOFArrivesEmpty: an EOF read carries no data at all (nil); an
// emitted payload has never been nil — a quoted "" is empty — and trace
// text and reflect.DeepEqual tell the two apart.
func TestMovedEOFArrivesEmpty(t *testing.T) {
	eng := dsl.NewEngine(dsl.MustParse(`
rule "pass" { match read(fd, s, n) { emit read(fd, s, n); } }
`))
	out, _, fired := eng.Transform([]sysabi.Event{read(nil)})
	if fired == nil {
		t.Fatal("rule did not fire")
	}
	if d := out[0].Result.Data; d == nil || len(d) != 0 {
		t.Errorf("emitted data = %#v, want empty and not nil", d)
	}
}

// TestLiteralHitLeavesWhatItDropped: "expire-redirect" reads the command
// and the reply, forwards neither and emits literals; the window keeps
// both payloads for the monitor to give back to the ring, and the emitted
// events hold copies of the literals — overwriting one must not reach the
// rule set, which every engine on every shard shares.
func TestLiteralHitLeavesWhatItDropped(t *testing.T) {
	for round := 0; round < 2; round++ {
		eng, s := expireStream("TTL key:000017\r\n", "-ERR unknown command 'TTL'\r\n")
		window := s.next()
		cmd, reply := window[0].Result.Data, window[1].Call.Buf
		out, n, fired := eng.Transform(window)
		if fired == nil || fired.Name != "expire-redirect" || n != 3 || len(out) != 3 {
			t.Fatalf("fired %v, consumed %d, emitted %d", fired, n, len(out))
		}
		if &window[0].Result.Data[0] != &cmd[0] || &window[1].Call.Buf[0] != &reply[0] {
			t.Errorf("the window lost a payload the rule only read")
		}
		if got := string(out[0].Result.Data) + "|" + string(out[2].Call.Buf); got != "bad-cmd\r\n|-ERR unknown command 'bad-cmd'\r\n" {
			t.Fatalf("round %d emitted %q", round, got)
		}
		for i := range out[0].Result.Data {
			out[0].Result.Data[i] = '!'
		}
		for i := range out[2].Call.Buf {
			out[2].Call.Buf[i] = '?'
		}
	}
}

// TestTransformResultIsReusedStorage pins the first of Transform's two
// contracts from the caller's side: a hit's events are good until the
// next Transform and no longer.
func TestTransformResultIsReusedStorage(t *testing.T) {
	eng, s := reorderStream()
	first, _, _ := eng.Transform(s.next())
	second, _, _ := eng.Transform(s.next())
	if &first[0] != &second[0] {
		t.Errorf("two hits returned different storage: the engine allocates per hit")
	}
}

// Bugfix regression: a builtin called with the wrong number of arguments
// used to parse — and then never fire, because the evaluator's own check
// reads as "rule does not match". Validate now rejects it, and names the
// rule.
func TestValidateRejectsWrongBuiltinArity(t *testing.T) {
	for _, where := range []string{`prefix(s)`, `len(s, s) == 1`, `concat() == ""`, `sub(s, 1) == "x"`} {
		_, err := dsl.Parse(`rule "one-arg" { match read(fd, s, n) where ` + where + ` { emit read(fd, s, n); } }`)
		if err == nil {
			t.Errorf("where %s: parsed", where)
		} else if !strings.Contains(err.Error(), `"one-arg"`) {
			t.Errorf("where %s: error does not name the rule: %v", where, err)
		}
	}
	// In a template too, and for a hand-built AST that never met the
	// parser's own unknown-function check.
	if _, err := dsl.Parse(`rule "t" { match read(fd, s, n) { emit read(fd, base(s, s), n); } }`); err == nil {
		t.Error("wrong arity in a template parsed")
	}
	r := &dsl.Rule{
		Name:  "hand-built",
		Match: []dsl.Pattern{{Op: sysabi.OpClock, Binds: []string{"t"}}},
		Where: &dsl.CallFn{Name: "nosuch", Args: []dsl.Expr{&dsl.VarRef{Name: "t"}}},
		Emit:  []dsl.Template{{Op: sysabi.OpClock, Args: []dsl.Expr{&dsl.VarRef{Name: "t"}}}},
	}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), `"hand-built"`) || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown function: Validate = %v", err)
	}
}

// Bugfix regression: a template with the wrong number of arguments —
// which only a hand-built rule set that skipped Validate can hold — used
// to index past the evaluated arguments and panic inside the follower's
// task. It is an evaluation error now: the rule does not match.
func TestTemplateArityCannotPanic(t *testing.T) {
	t1 := &dsl.VarRef{Name: "t"}
	for _, args := range [][]dsl.Expr{nil, {t1}, {t1, t1}, {t1, t1, t1, t1}} {
		rs := &dsl.RuleSet{Rules: []*dsl.Rule{{
			Name:  "short",
			Match: []dsl.Pattern{{Op: sysabi.OpClock, Binds: []string{"t"}}},
			Emit:  []dsl.Template{{Op: sysabi.OpWrite, Args: args}},
		}}}
		window := []sysabi.Event{clock(7)}
		out, n, fired := dsl.NewEngine(rs).Transform(window)
		if fired != nil || n != 1 || &out[0] != &window[0] {
			t.Errorf("%d arguments: fired %v, consumed %d", len(args), fired, n)
		}
	}
}
