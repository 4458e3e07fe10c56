package dsl

import (
	"testing"
	"testing/quick"

	"mvedsua/internal/sysabi"
)

func readEv(fd int, data string) sysabi.Event {
	return sysabi.Event{
		Call:   sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{4096, 0}},
		Result: sysabi.Result{Ret: int64(len(data)), Data: []byte(data)},
	}
}

func writeEv(fd int, data string) sysabi.Event {
	return sysabi.Event{
		Call:   sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(data)},
		Result: sysabi.Result{Ret: int64(len(data))},
	}
}

func clockEv(ns int64) sysabi.Event {
	return sysabi.Event{Call: sysabi.Call{Op: sysabi.OpClock}, Result: sysabi.Result{Ret: ns}}
}

func TestEngineIdentityWithoutRules(t *testing.T) {
	e := NewEngine(nil)
	in := readEv(4, "GET k\r\n")
	out, n, fired := e.Transform([]sysabi.Event{in})
	if n != 1 || fired != nil || len(out) != 1 {
		t.Fatalf("Transform = %v, %d, %v", out, n, fired)
	}
	if !out[0].Call.Equal(in.Call) {
		t.Fatal("identity transform changed the call")
	}
}

func TestEngineEmptyWindow(t *testing.T) {
	e := NewEngine(nil)
	out, n, _ := e.Transform(nil)
	if out != nil || n != 0 {
		t.Fatalf("Transform(nil) = %v, %d", out, n)
	}
}

// The paper's Rule 1: reads containing a typed PUT deliver "bad-cmd" to
// the follower instead.
func TestEnginePaperRule1(t *testing.T) {
	rs := MustParse(`
rule "rule1" {
    match read(fd, s, n) where typ(cmd(s)) != "" {
        emit read(fd, "bad-cmd\r\n", 9);
    }
}
`)
	e := NewEngine(rs)
	out, n, fired := e.Transform([]sysabi.Event{readEv(7, "PUT-number balance 1001\r\n")})
	if fired == nil || fired.Name != "rule1" {
		t.Fatalf("fired = %v", fired)
	}
	if n != 1 || len(out) != 1 {
		t.Fatalf("n = %d, out = %d", n, len(out))
	}
	if string(out[0].Result.Data) != "bad-cmd\r\n" || out[0].Result.Ret != 9 {
		t.Fatalf("delivered = %q ret=%d", out[0].Result.Data, out[0].Result.Ret)
	}
	if out[0].Call.FD != 7 {
		t.Fatalf("fd = %d", out[0].Call.FD)
	}
	// An untyped PUT passes through unchanged.
	out, _, fired = e.Transform([]sysabi.Event{readEv(7, "PUT balance 1001\r\n")})
	if fired != nil {
		t.Fatal("rule fired on untyped PUT")
	}
	if string(out[0].Result.Data) != "PUT balance 1001\r\n" {
		t.Fatalf("pass-through = %q", out[0].Result.Data)
	}
}

// The paper's Rule 2: if v2 dropped plain PUT, rewrite it to PUT-string.
func TestEnginePaperRule2(t *testing.T) {
	rs := MustParse(`
rule "rule2" {
    match read(fd, s, n) where cmd(s) == "PUT" && typ(cmd(s)) == "" {
        emit read(fd, replace(s, "PUT", "PUT-string"), n + 7);
    }
}
`)
	e := NewEngine(rs)
	out, _, fired := e.Transform([]sysabi.Event{readEv(3, "PUT k v\r\n")})
	if fired == nil {
		t.Fatal("rule2 did not fire")
	}
	if string(out[0].Result.Data) != "PUT-string k v\r\n" {
		t.Fatalf("rewritten = %q", out[0].Result.Data)
	}
	if out[0].Result.Ret != int64(len("PUT-string k v\r\n")) {
		t.Fatalf("ret = %d", out[0].Result.Ret)
	}
}

// The paper's Figure 5: a two-call sequence (read + "500 Unknown command"
// response) redirects the unknown command to FOOBAR on the follower.
func TestEngineVsftpdUnknownCommandRule(t *testing.T) {
	rs := MustParse(`
rule "unknown-cmd" {
    match read(fd, s, n), write(fd2, r, m) where prefix(r, "500") {
        emit read(fd, "FOOBAR\r\n", 8), write(fd2, r, m);
    }
}
`)
	e := NewEngine(rs)
	window := []sysabi.Event{
		readEv(9, "STOU file.txt\r\n"),
		writeEv(9, "500 Unknown command\r\n"),
	}
	out, n, fired := e.Transform(window)
	if fired == nil || n != 2 || len(out) != 2 {
		t.Fatalf("fired=%v n=%d out=%d", fired, n, len(out))
	}
	if string(out[0].Result.Data) != "FOOBAR\r\n" {
		t.Fatalf("read delivered %q", out[0].Result.Data)
	}
	if string(out[1].Call.Buf) != "500 Unknown command\r\n" {
		t.Fatalf("write expected %q", out[1].Call.Buf)
	}
	// The same sequence with a 2xx response does not fire.
	window[1] = writeEv(9, "250 OK\r\n")
	_, n, fired = e.Transform(window)
	if fired != nil || n != 1 {
		t.Fatalf("unexpected firing: %v n=%d", fired, n)
	}
}

// Redis 2.0.1 reverses the order of two syscalls; a swap rule reconciles.
func TestEngineSwapRule(t *testing.T) {
	rs := MustParse(`
rule "swap" {
    match clock(ts), write(fd, s, n) {
        emit write(fd, s, n), clock(ts);
    }
}
`)
	e := NewEngine(rs)
	out, n, fired := e.Transform([]sysabi.Event{clockEv(111), writeEv(5, "+OK\r\n")})
	if fired == nil || n != 2 {
		t.Fatalf("fired=%v n=%d", fired, n)
	}
	if out[0].Call.Op != sysabi.OpWrite || out[1].Call.Op != sysabi.OpClock {
		t.Fatalf("order = %v, %v", out[0].Call.Op, out[1].Call.Op)
	}
	if out[1].Result.Ret != 111 {
		t.Fatalf("clock value lost: %d", out[1].Result.Ret)
	}
}

func TestEngineFirstMatchWins(t *testing.T) {
	rs := MustParse(`
rule "first" { match clock(x) { emit clock(x + 1); } }
rule "second" { match clock(x) { emit clock(x + 100); } }
`)
	e := NewEngine(rs)
	out, _, fired := e.Transform([]sysabi.Event{clockEv(1)})
	if fired.Name != "first" || out[0].Result.Ret != 2 {
		t.Fatalf("fired=%v ret=%d", fired, out[0].Result.Ret)
	}
}

func TestEngineRuleTooLongForWindow(t *testing.T) {
	rs := MustParse(`
rule "pair" { match clock(x), clock(y) { emit clock(x + y); } }
`)
	e := NewEngine(rs)
	// Only one event available: the rule cannot fire.
	out, n, fired := e.Transform([]sysabi.Event{clockEv(5)})
	if fired != nil || n != 1 || out[0].Result.Ret != 5 {
		t.Fatalf("fired=%v n=%d", fired, n)
	}
}

func TestEngineWildcardPattern(t *testing.T) {
	rs := MustParse(`
rule "wild" { match read(_, s, _) where prefix(s, "X") { emit read(0, s, len(s)); } }
`)
	e := NewEngine(rs)
	out, _, fired := e.Transform([]sysabi.Event{readEv(42, "Xyz")})
	if fired == nil {
		t.Fatal("wildcard rule did not fire")
	}
	if out[0].Call.FD != 0 {
		t.Fatalf("fd = %d, want 0 (from emit)", out[0].Call.FD)
	}
}

func TestEngineEvalErrorMeansNoMatch(t *testing.T) {
	// sub() with out-of-range bounds errors at eval time; the engine must
	// fall back to the identity transform rather than fail.
	rs := MustParse(`
rule "explodes" { match read(fd, s, n) { emit read(fd, sub(s, 0, 9999), n); } }
`)
	e := NewEngine(rs)
	out, n, fired := e.Transform([]sysabi.Event{readEv(1, "short")})
	if fired != nil || n != 1 {
		t.Fatalf("fired=%v n=%d", fired, n)
	}
	if string(out[0].Result.Data) != "short" {
		t.Fatalf("data = %q", out[0].Result.Data)
	}
}

func TestEngineNeedsLookahead(t *testing.T) {
	rs := MustParse(`
rule "pair" { match read(a, b, c), write(d, e, f) { emit read(a, b, c); } }
`)
	e := NewEngine(rs)
	if n := e.NeedsLookahead(sysabi.OpRead); n != 2 {
		t.Fatalf("NeedsLookahead(read) = %d, want 2", n)
	}
	if n := e.NeedsLookahead(sysabi.OpWrite); n != 1 {
		t.Fatalf("NeedsLookahead(write) = %d, want 1", n)
	}
}

// Property: an engine without rules is the identity on any single event.
func TestEngineIdentityProperty(t *testing.T) {
	e := NewEngine(nil)
	f := func(fd uint8, data []byte) bool {
		in := sysabi.Event{
			Call:   sysabi.Call{Op: sysabi.OpWrite, FD: int(fd), Buf: data},
			Result: sysabi.Result{Ret: int64(len(data))},
		}
		out, n, fired := e.Transform([]sysabi.Event{in})
		return n == 1 && fired == nil && len(out) == 1 && out[0].Call.Equal(in.Call)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a fire-always rewrite rule preserves the event count contract
// (consumed == len(match), produced == len(emit)).
func TestEngineCountContractProperty(t *testing.T) {
	rs := MustParse(`rule "r" { match read(fd, s, n) { emit read(fd, s, n), clock(0); } }`)
	e := NewEngine(rs)
	f := func(fd uint8, data string) bool {
		out, n, fired := e.Transform([]sysabi.Event{readEv(int(fd), data)})
		return fired != nil && n == 1 && len(out) == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
