package dsl

import (
	"testing"

	"mvedsua/internal/sysabi"
)

func openEv(path string, flags int64, fd int64) sysabi.Event {
	return sysabi.Event{
		Call:   sysabi.Call{Op: sysabi.OpOpen, Path: path, Args: [2]int64{flags, 0}},
		Result: sysabi.Result{Ret: fd},
	}
}

func TestOpenPatternBindsFields(t *testing.T) {
	rs := MustParse(`
rule "rename" {
    match open(p, fl, fd) where prefix(p, "/old/") {
        emit open(concat("/new/", sub(p, 5, len(p))), fl, fd);
    }
}
`)
	e := NewEngine(rs)
	out, n, fired := e.Transform([]sysabi.Event{openEv("/old/data.txt", 1, 7)})
	if fired == nil || n != 1 {
		t.Fatalf("fired=%v n=%d", fired, n)
	}
	if out[0].Call.Path != "/new/data.txt" {
		t.Fatalf("path = %q", out[0].Call.Path)
	}
	if out[0].Call.Args[0] != 1 || out[0].Result.Ret != 7 {
		t.Fatalf("flags/fd = %d/%d", out[0].Call.Args[0], out[0].Result.Ret)
	}
	// Non-matching path passes through.
	out, _, fired = e.Transform([]sysabi.Event{openEv("/srv/x", 0, 3)})
	if fired != nil || out[0].Call.Path != "/srv/x" {
		t.Fatalf("unexpected rewrite: %v", out[0].Call)
	}
}

// The ftpd STOU-tolerate shape: a five-event window with an open in the
// middle matches and collapses to two expected events.
func TestOpenInLongSequenceRule(t *testing.T) {
	rs := MustParse(`
rule "stou-like" {
    match read(f, s, n), open(p, fl, nf), fwrite(wf, d, m), close(cf), write(f2, r, k)
        where cmd(s) == "STOU" {
        emit read(f, "FOOBAR\r\n", 8), write(f2, "500 Unknown command\r\n", 21);
    }
}
`)
	e := NewEngine(rs)
	window := []sysabi.Event{
		readEv(4, "STOU payload\r\n"),
		openEv("/srv/ftp/stou.0001", 1, 9),
		{Call: sysabi.Call{Op: sysabi.OpFWrite, FD: 9, Buf: []byte("payload")}, Result: sysabi.Result{Ret: 7}},
		{Call: sysabi.Call{Op: sysabi.OpClose, FD: 9}},
		writeEv(4, "226 Transfer complete. Unique file: stou.0001\r\n"),
	}
	out, n, fired := e.Transform(window)
	if fired == nil || n != 5 || len(out) != 2 {
		t.Fatalf("fired=%v n=%d out=%d", fired, n, len(out))
	}
	if string(out[0].Result.Data) != "FOOBAR\r\n" {
		t.Fatalf("read delivery = %q", out[0].Result.Data)
	}
	if string(out[1].Call.Buf) != "500 Unknown command\r\n" {
		t.Fatalf("write expectation = %q", out[1].Call.Buf)
	}
	// With a non-STOU read at the head the rule must not fire, and the
	// window is consumed one event at a time.
	window[0] = readEv(4, "STOR f x\r\n")
	_, n, fired = e.Transform(window)
	if fired != nil || n != 1 {
		t.Fatalf("non-STOU: fired=%v n=%d", fired, n)
	}
}

func TestOpenLookahead(t *testing.T) {
	rs := MustParse(`
rule "pair" { match open(p, fl, fd), close(c) { emit close(c); } }
`)
	e := NewEngine(rs)
	if got := e.NeedsLookahead(sysabi.OpOpen); got != 2 {
		t.Fatalf("NeedsLookahead(open) = %d", got)
	}
	// Suppression: open+close collapses to just the close.
	out, n, fired := e.Transform([]sysabi.Event{
		openEv("/x", 0, 3),
		{Call: sysabi.Call{Op: sysabi.OpClose, FD: 3}},
	})
	if fired == nil || n != 2 || len(out) != 1 || out[0].Call.Op != sysabi.OpClose {
		t.Fatalf("fired=%v n=%d out=%v", fired, n, out)
	}
}

func TestOpenRoundTripThroughPrinter(t *testing.T) {
	src := `rule "o" { match open(p, fl, fd) where fl == 1 { emit open(p, 0, fd); } }`
	rs1 := MustParse(src)
	rs2 := MustParse(rs1.String())
	if rs1.String() != rs2.String() {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", rs1.String(), rs2.String())
	}
}

func TestOpenEmitTypeErrors(t *testing.T) {
	// Emitting open with a non-string path is an eval error -> no match.
	rs := MustParse(`rule "bad" { match open(p, fl, fd) { emit open(fl, fl, fd); } }`)
	e := NewEngine(rs)
	_, n, fired := e.Transform([]sysabi.Event{openEv("/x", 1, 3)})
	if fired != nil || n != 1 {
		t.Fatalf("bad emit should fall back to identity: fired=%v n=%d", fired, n)
	}
}
