package dsl_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mvedsua/internal/apps/ftpd"
	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apps/tkv"
	"mvedsua/internal/dsl"
	"mvedsua/internal/sysabi"
)

// moveRules forwards payloads every way a template can: whole and in
// order, across ops (a read's data becomes a write's), twice, once whole
// and once computed, and past a template that fails.
const moveRules = `
rule "fails-late" {
    match read(fd, s, n), write(fd2, r, m) where prefix(r, "$") {
        emit write(fd2, r, m), read(fd, sub(s, 0, 9999), n);
    }
}
rule "swap" {
    match read(fd, s, n), write(fd2, r, m) {
        emit write(fd2, r, m), read(fd, s, n);
    }
}
rule "twice" {
    match write(fd, s, n) where prefix(s, "+") || s == "" {
        emit write(fd, s, n), write(fd, s, n), write(fd, concat(s, "!"), n);
    }
}
rule "echo" {
    match read(fd, s, n) {
        emit write(fd, s, n), read(fd, cmd(s), len(cmd(s)));
    }
}
`

// shippedRuleSets is every rule set an application carries — kvstore's
// two rule-bearing pairs in both directions, ftpd's thirteen pairs in
// both directions, tkv's three — and moveRules.
func shippedRuleSets() map[string]*dsl.RuleSet {
	sets := map[string]*dsl.RuleSet{
		"tkv/rules1":   dsl.MustParse(tkv.Rules1),
		"tkv/rules1+2": dsl.MustParse(tkv.Rules1 + tkv.Rules2),
		"tkv/rules3":   dsl.MustParse(tkv.Rules3),
		"moves":        dsl.MustParse(moveRules),
	}
	add := func(name string, fwd, rev *dsl.RuleSet) {
		if fwd != nil {
			sets[name] = fwd
		}
		if rev != nil {
			sets[name+"/rev"] = rev
		}
	}
	for i := 0; i+1 < len(kvstore.Versions); i++ {
		from, to := kvstore.Versions[i], kvstore.Versions[i+1]
		fwd, rev := kvstore.RulesFor(from, to)
		add("kvstore/"+from+"-"+to, fwd, rev)
	}
	for i := 0; i+1 < len(ftpd.Versions); i++ {
		from, to := ftpd.Versions[i], ftpd.Versions[i+1]
		fwd, rev := ftpd.RulesFor(from, to)
		add("ftpd/"+from+"-"+to, fwd, rev)
	}
	return sets
}

// vocabulary is what the applications really read and write — commands,
// replies in every version's wording, an EOF, a line outside ASCII — as
// events of op. Ops without a payload get a value or two.
func vocabulary(op sysabi.Op) []sysabi.Event {
	reads := []string{
		"GET k\r\n", "SET k v\r\n", "INCR n\r\n", "EXPIRE k 10\r\n", "TTL k\r\n", "PERSIST k\r\n",
		"PUT k v\r\n", "PUT-string k v\r\n", "PUT-number n 5\r\n", "TYPE k\r\n",
		"USER anonymous\r\n", "SYST\r\n", "PWD\r\n", "TYPE I\r\n", "NOOP\r\n", "QUIT\r\n",
		"STOU payload\r\n", "FEAT\r\n", "MDTM f\r\n", "  \r\n", "", "PUT\u00a0k v\r\n",
	}
	writes := []string{
		"+OK\r\n", "$3\r\nabc\r\n", ":1\r\n", "$-1\r\n", "-ERR unknown command 'EXPIRE'\r\n",
		"-ERR unknown command 'bad-cmd'\r\n", "257 \"/\"\r\n", "257 \"/\" is the current directory\r\n",
		"200 Switching to Binary mode.\r\n", "200 Mode set to I.\r\n", "200 Mode set to \r\n",
		"500 Unknown command\r\n", "226 Transfer complete. Unique file: stou.0001\r\n", "",
	}
	seen := map[string]bool{}
	for _, v := range ftpd.Versions {
		s := ftpd.SpecFor(v)
		for _, reply := range []string{s.Banner, s.SystReply, s.QuitReply, s.ListHeader, s.NoopReply} {
			if !seen[reply] {
				seen[reply] = true
				writes = append(writes, reply+"\r\n")
			}
		}
	}
	var evs []sysabi.Event
	switch op {
	case sysabi.OpRead, sysabi.OpFRead:
		for _, s := range reads {
			evs = append(evs, sysabi.Event{
				Call:   sysabi.Call{Op: op, FD: 5, Args: [2]int64{4096, 0}},
				Result: sysabi.Result{Ret: int64(len(s)), Data: []byte(s)},
			})
		}
		// End of file: no data at all, not empty data.
		evs = append(evs, sysabi.Event{Call: sysabi.Call{Op: op, FD: 5, Args: [2]int64{4096, 0}}})
	case sysabi.OpWrite:
		for _, s := range writes {
			evs = append(evs, sysabi.Event{
				Call:   sysabi.Call{Op: op, FD: 5, Buf: []byte(s)},
				Result: sysabi.Result{Ret: int64(len(s))},
			})
		}
	case sysabi.OpFWrite:
		for _, s := range []string{"payload", ""} {
			evs = append(evs, sysabi.Event{
				Call:   sysabi.Call{Op: op, FD: 9, Buf: []byte(s)},
				Result: sysabi.Result{Ret: int64(len(s))},
			})
		}
	case sysabi.OpOpen:
		for _, p := range []string{"/srv/ftp/stou.0001", ""} {
			evs = append(evs, sysabi.Event{
				Call:   sysabi.Call{Op: op, Path: p, Args: [2]int64{sysabi.OpenWrite, 0}},
				Result: sysabi.Result{Ret: 9},
			})
		}
	case sysabi.OpAccept:
		evs = append(evs, sysabi.Event{Call: sysabi.Call{Op: op, FD: 3}, Result: sysabi.Result{Ret: 5}})
	case sysabi.OpClose:
		evs = append(evs, sysabi.Event{Call: sysabi.Call{Op: op, FD: 9}})
	case sysabi.OpClock:
		for _, ns := range []int64{0, 1234567} {
			evs = append(evs, sysabi.Event{Call: sysabi.Call{Op: op}, Result: sysabi.Result{Ret: ns}})
		}
	case sysabi.OpEpollWait: // no rule can name it
		evs = append(evs, sysabi.Event{Call: sysabi.Call{Op: op, FD: 4}, Result: sysabi.Result{Ret: 1, Ready: []int{5}}})
	}
	return evs
}

// windowsMatching calls visit with every window that lines the vocabulary
// up with r's patterns, one event per pattern. visit must not keep the
// window.
func windowsMatching(r *dsl.Rule, visit func([]sysabi.Event)) {
	window := make([]sysabi.Event, len(r.Match))
	choices := make([][]sysabi.Event, len(r.Match))
	for i, pat := range r.Match {
		choices[i] = vocabulary(pat.Op)
	}
	var fill func(i int)
	fill = func(i int) {
		if i == len(window) {
			visit(window)
			return
		}
		for _, ev := range choices[i] {
			window[i] = ev
			fill(i + 1)
		}
	}
	fill(0)
}

// cloneWindow deep-copies the window, keeping nil payloads nil and empty
// ones empty (sysabi's Clone does not tell them apart).
func cloneWindow(window []sysabi.Event) []sysabi.Event {
	clone := func(b []byte) []byte {
		if b == nil {
			return nil
		}
		return append([]byte{}, b...)
	}
	out := append([]sysabi.Event(nil), window...)
	for i := range out {
		out[i].Call.Buf, out[i].Result.Data = clone(out[i].Call.Buf), clone(out[i].Result.Data)
		out[i].Result.Ready = append([]int(nil), out[i].Result.Ready...)
	}
	return out
}

// show renders events with what DeepEqual looks at and %v hides: which
// payloads are nil.
func show(evs []sysabi.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "\n\t%v fd=%d buf=%s path=%q args=%v -> ret=%d data=%s",
			ev.Call.Op, ev.Call.FD, showBytes(ev.Call.Buf), ev.Call.Path, ev.Call.Args, ev.Result.Ret, showBytes(ev.Result.Data))
	}
	return b.String()
}

func showBytes(b []byte) string {
	if b == nil {
		return "nil"
	}
	return fmt.Sprintf("%q", b)
}

// payloads lists the byte payloads of evs that have any storage.
func payloads(evs []sysabi.Event) [][]byte {
	var out [][]byte
	for i := range evs {
		for _, b := range [][]byte{evs[i].Call.Buf, evs[i].Result.Data} {
			if cap(b) > 0 {
				out = append(out, b)
			}
		}
	}
	return out
}

// shared reports whether two payloads' storage overlaps.
func shared(a, b []byte) bool {
	pa, pb := reflect.ValueOf(a).Pointer(), reflect.ValueOf(b).Pointer()
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// checkAgainstReference runs eng, an engine over rs, and the reference
// interpreter on copies of one window and compares everything Transform
// promises: the same rule fired, the same events consumed, the emitted
// events equal field for field (nil and empty payloads told apart); after
// a miss the window is untouched; after a hit no two payloads among the
// emitted events and what the window still holds share storage, and
// exactly the bytes the window held are either still there or in an
// emitted event.
func checkAgainstReference(tb testing.TB, rs *dsl.RuleSet, eng *dsl.Engine, window []sysabi.Event) {
	tb.Helper()
	want, wantN, wantFired := refTransform(rs, cloneWindow(window))
	work := cloneWindow(window)
	got, gotN, gotFired := eng.Transform(work)
	if gotFired != wantFired || gotN != wantN {
		tb.Fatalf("window %s\nfired %v, consumed %d; reference fired %v, consumed %d", show(window), name(gotFired), gotN, name(wantFired), wantN)
	}
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("window %s\nrule %v emitted %s\nreference %s", show(window), name(gotFired), show(got), show(want))
	}
	if gotFired == nil {
		if !reflect.DeepEqual(work, window) {
			tb.Fatalf("a miss changed the window: before %s\nafter %s", show(window), show(work))
		}
		if len(window) > 0 && &got[0] != &work[0] {
			tb.Fatalf("a miss did not return the head of the window itself")
		}
		return
	}
	held := append(payloads(got), payloads(work)...)
	for i := range held {
		for j := i + 1; j < len(held); j++ {
			if shared(held[i], held[j]) {
				tb.Fatalf("window %s\nrule %s: two payloads share storage (%q, %q)", show(window), gotFired.Name, held[i], held[j])
			}
		}
	}
	// A payload the window lost must be one an emitted event took whole.
	before := payloads(cloneWindow(window)[:gotN])
	after := payloads(work[:gotN])
	for _, b := range before {
		kept := false
		for _, a := range append(after, payloads(got)...) {
			kept = kept || string(a) == string(b)
		}
		if !kept {
			tb.Fatalf("window %s\nrule %s: payload %q is neither in the window nor in an emitted event", show(window), gotFired.Name, b)
		}
	}
	if !reflect.DeepEqual(work[gotN:], window[gotN:]) {
		tb.Fatalf("rule %s changed the window beyond the %d events it consumed", gotFired.Name, gotN)
	}
}

func name(r *dsl.Rule) string {
	if r == nil {
		return "<none>"
	}
	return fmt.Sprintf("%q", r.Name)
}

// TestTransformMatchesReference holds the engine to the reference
// interpreter over every shipped rule set: each rule's patterns lined up
// with the whole vocabulary, then random windows drawn from it — too
// short, too long, out of order. One engine serves all the windows of a
// rule set, as it does a stream, so state left over from one call would
// show in the next.
func TestTransformMatchesReference(t *testing.T) {
	var all []sysabi.Event
	for _, op := range []sysabi.Op{sysabi.OpRead, sysabi.OpWrite, sysabi.OpFWrite, sysabi.OpOpen,
		sysabi.OpAccept, sysabi.OpClose, sysabi.OpClock, sysabi.OpEpollWait} {
		all = append(all, vocabulary(op)...)
	}
	sets := shippedRuleSets()
	if len(sets) < 4+3+13 {
		t.Fatalf("only %d shipped rule sets found", len(sets))
	}
	for setName, rs := range sets {
		t.Run(setName, func(t *testing.T) {
			eng := dsl.NewEngine(rs)
			windows, hits := 0, 0
			check := func(window []sysabi.Event) {
				checkAgainstReference(t, rs, eng, window)
				windows++
				if _, _, fired := refTransform(rs, window); fired != nil {
					hits++
				}
			}
			for _, r := range rs.Rules {
				windowsMatching(r, check)
			}
			rng := rand.New(rand.NewSource(int64(len(setName))))
			for i := 0; i < 2000; i++ {
				window := make([]sysabi.Event, 1+rng.Intn(6))
				for j := range window {
					window[j] = all[rng.Intn(len(all))]
				}
				check(window)
			}
			if hits == 0 || hits == windows {
				t.Errorf("%d of %d windows fired a rule: the vocabulary exercises one outcome only", hits, windows)
			}
		})
	}
}

// TestGeneratedRulesMatchReference does the same for random rules over
// random events: every builtin the generator knows, every op, wildcards,
// templates that forward a variable twice or not at all.
func TestGeneratedRulesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ops := []sysabi.Op{sysabi.OpRead, sysabi.OpWrite, sysabi.OpFRead, sysabi.OpFWrite,
		sysabi.OpOpen, sysabi.OpClose, sysabi.OpClock, sysabi.OpAccept}
	hits := 0
	for i := 0; i < 2000; i++ {
		rs := &dsl.RuleSet{Rules: []*dsl.Rule{dsl.GenRule(r, "g1"), dsl.GenRule(r, "g2")}}
		if rs.Validate() != nil {
			continue
		}
		// Through the printer and the parser, as shipped rules come: the
		// generator's hand-built literals would be converted per use.
		rs = dsl.MustParse(rs.String())
		eng := dsl.NewEngine(rs)
		for k := 0; k < 8; k++ {
			window := make([]sysabi.Event, 1+r.Intn(4))
			for j := range window {
				ev := sysabi.Event{Call: sysabi.Call{Op: ops[r.Intn(len(ops))], FD: r.Intn(8), Path: dsl.RandText(r)}}
				if k%2 == 0 && j < len(rs.Rules[0].Match) {
					ev.Call.Op = rs.Rules[0].Match[j].Op // give the first rule a chance
				}
				ev.Call.Buf = []byte(dsl.RandText(r))
				ev.Result.Ret = int64(r.Intn(100))
				if r.Intn(8) > 0 {
					ev.Result.Data = []byte(dsl.RandText(r))
				}
				window[j] = ev
			}
			checkAgainstReference(t, rs, eng, window)
			if _, _, fired := refTransform(rs, window); fired != nil {
				hits++
			}
		}
	}
	if hits < 1000 {
		t.Errorf("only %d generated windows fired a rule", hits)
	}
}

// decodeWindow reads a window of up to six events from fuzz input: per
// event an op selector, an fd and a payload length (0xff: no payload at
// all, as an EOF read has), then the payload.
func decodeWindow(b []byte) []sysabi.Event {
	ops := []sysabi.Op{sysabi.OpRead, sysabi.OpWrite, sysabi.OpFRead, sysabi.OpFWrite,
		sysabi.OpOpen, sysabi.OpAccept, sysabi.OpClose, sysabi.OpClock}
	var window []sysabi.Event
	for len(b) >= 3 && len(window) < 6 {
		op, fd, n := ops[b[0]%8], int(b[1]), int(b[2])
		b = b[3:]
		var data []byte
		if n != 0xff {
			n = min(n, len(b))
			data, b = append([]byte{}, b[:n]...), b[n:]
		}
		ev := sysabi.Event{Call: sysabi.Call{Op: op, FD: fd}, Result: sysabi.Result{Ret: int64(len(data))}}
		switch op {
		case sysabi.OpRead, sysabi.OpFRead:
			ev.Result.Data = data
		case sysabi.OpWrite, sysabi.OpFWrite:
			ev.Call.Buf = data
		case sysabi.OpOpen:
			ev.Call.Path, ev.Call.Args[0] = string(data), int64(fd%3)
		default:
			ev.Result.Ret = int64(fd)<<8 | int64(n)
		}
		window = append(window, ev)
	}
	return window
}

// FuzzTransformMatchesReference: rule source and an encoded window ->
// the engine against the reference interpreter, twice over, so that what
// the first call left in the engine's frame meets the second. The seed
// corpus is testdata/fuzz/FuzzTransformMatchesReference, replayed by
// plain `go test`.
func FuzzTransformMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, stream []byte) {
		if len(src) > 4096 {
			t.Skip()
		}
		rs, err := dsl.Parse(src)
		if err != nil {
			t.Skip()
		}
		window := decodeWindow(stream)
		eng := dsl.NewEngine(rs)
		checkAgainstReference(t, rs, eng, window)
		checkAgainstReference(t, rs, eng, window)
	})
}

// FuzzParse: the lexer, parser and validator never panic, and what they
// accept survives the printer — Parse(rs.String()) reproduces rs. The
// seed corpus is testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip() // deep nesting is recursion, and recursion is stack
		}
		rs, err := dsl.Parse(src)
		if err != nil {
			return
		}
		printed := rs.String()
		again, err := dsl.Parse(printed)
		if err != nil {
			t.Fatalf("the printed form does not parse: %v\n%s", err, printed)
		}
		if !reflect.DeepEqual(again, rs) {
			t.Fatalf("Parse(rs.String()) differs from rs:\n%s\nvs\n%s", again, printed)
		}
	})
}
