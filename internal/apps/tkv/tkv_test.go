package tkv

import (
	"testing"
	"testing/quick"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/sim"
)

func serve(t *testing.T, version string, strict bool, driver func(w *apptest.World, tk *sim.Task, c *apptest.Client)) *apptest.World {
	t.Helper()
	w := apptest.NewWorld(core.Config{})
	w.C.Start(New(version, strict))
	w.S.Go("client", func(tk *sim.Task) {
		c := apptest.Connect(w.K, tk, Port)
		driver(w, tk, c)
		c.Close(tk)
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

func TestV1Protocol(t *testing.T) {
	serve(t, "v1", false, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		cases := []struct{ cmd, want string }{
			{"PUT balance 1000", "OK\r\n"},
			{"GET balance", "VAL 1000\r\n"},
			{"GET missing", "NOT-FOUND\r\n"},
			{"PUT-number balance 1001", "ERR bad command\r\n"},
			{"TYPE balance", "ERR bad command\r\n"},
			{"bad-cmd", "ERR bad command\r\n"},
			{"PUT too few", "OK\r\n"}, // PUT too few == PUT key "few"
			{"PUT x", "ERR bad command\r\n"},
		}
		for _, tc := range cases {
			if got := c.Do(tk, tc.cmd); got != tc.want {
				t.Errorf("%s = %q, want %q", tc.cmd, got, tc.want)
			}
		}
	})
}

func TestV2Protocol(t *testing.T) {
	serve(t, "v2", false, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		cases := []struct{ cmd, want string }{
			{"PUT k v", "OK\r\n"},
			{"TYPE k", "TYPE string\r\n"},
			{"PUT-number n 42", "OK\r\n"},
			{"TYPE n", "TYPE number\r\n"},
			{"PUT-date d 2026-07-05", "OK\r\n"},
			{"TYPE d", "TYPE date\r\n"},
			{"PUT-bogus b x", "ERR bad command\r\n"},
			{"GET n", "VAL 42\r\n"},
			{"TYPE missing", "NOT-FOUND\r\n"},
		}
		for _, tc := range cases {
			if got := c.Do(tk, tc.cmd); got != tc.want {
				t.Errorf("%s = %q, want %q", tc.cmd, got, tc.want)
			}
		}
	})
}

func TestV2StrictDropsPlainPut(t *testing.T) {
	serve(t, "v2", true, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		if got := c.Do(tk, "PUT k v"); got != "ERR bad command\r\n" {
			t.Errorf("strict PUT = %q", got)
		}
		if got := c.Do(tk, "PUT-string k v"); got != "OK\r\n" {
			t.Errorf("PUT-string = %q", got)
		}
	})
}

// The paper's full §2/§3 story: update v1→v2 with Rule 1; typed commands
// are rejected while v1 leads (routed to bad-cmd on the follower, states
// stay related); after promotion the new interface is live, old data
// carries the default "string" type, and PUT-string maps back via Rule 3.
func TestRunningExampleLifecycle(t *testing.T) {
	serve(t, "v1", false, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "PUT balance 1000")
		if !w.C.Update(Update(UpdateOpts{PerEntryXform: time.Microsecond})) {
			t.Fatal("Update rejected")
		}
		// Keep traffic flowing; the update installs on the follower.
		for i := 0; i < 4; i++ {
			c.Do(tk, "GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// New commands are rejected under the old semantics; Rule 1
		// keeps the follower in sync rather than diverging.
		if got := c.Do(tk, "PUT-number balance 1001"); got != "ERR bad command\r\n" {
			t.Errorf("PUT-number while v1 leads = %q", got)
		}
		if got := c.Do(tk, "TYPE balance"); got != "ERR bad command\r\n" {
			t.Errorf("TYPE while v1 leads = %q", got)
		}
		tk.Sleep(20 * time.Millisecond)
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("Rule 1 failed: %v", w.C.Monitor().Divergences())
		}
		// Plain PUT/GET work identically in both (no rules fire).
		if got := c.Do(tk, "PUT fruit apple"); got != "OK\r\n" {
			t.Errorf("PUT = %q", got)
		}
		tk.Sleep(20 * time.Millisecond)
		w.C.Promote()
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage after promote = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// Rule 3: PUT-string maps back to the old follower's PUT.
		if got := c.Do(tk, "PUT-string note hello"); got != "OK\r\n" {
			t.Errorf("PUT-string after promote = %q", got)
		}
		tk.Sleep(20 * time.Millisecond)
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("Rule 3 failed: %v", w.C.Monitor().Divergences())
		}
		// The migrated entry has the default type; the state relation of
		// Figure 3 held all along.
		if got := c.Do(tk, "TYPE fruit"); got != "TYPE string\r\n" {
			t.Errorf("TYPE fruit = %q", got)
		}
		// TYPE has no reverse mapping: the outdated follower diverged
		// and was terminated, committing the update (§3.3.2).
		tk.Sleep(30 * time.Millisecond)
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want committed", w.C.Stage())
		}
		if got := c.Do(tk, "PUT-number n 5"); got != "OK\r\n" {
			t.Errorf("PUT-number after commit = %q", got)
		}
	})
}

// Rule 2's scenario: v2-strict drops plain PUT; outdated PUTs are
// rewritten to PUT-string so the follower stays in sync.
func TestRule2StrictUpdate(t *testing.T) {
	serve(t, "v1", false, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "PUT a 1")
		w.C.Update(Update(UpdateOpts{Strict: true, PerEntryXform: time.Microsecond}))
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET a")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// Plain PUTs keep working while v1 leads — Rule 2 translates
		// them for the strict follower, which would otherwise reject
		// them and diverge.
		for i := 0; i < 3; i++ {
			if got := c.Do(tk, "PUT b 2"); got != "OK\r\n" {
				t.Errorf("PUT = %q", got)
			}
			tk.Sleep(10 * time.Millisecond)
		}
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("Rule 2 failed: %v", w.C.Monitor().Divergences())
		}
		// And the follower really did store it (promote and read back).
		w.C.Promote()
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET a")
			tk.Sleep(10 * time.Millisecond)
		}
		if got := c.Do(tk, "GET b"); got != "VAL 2\r\n" {
			t.Errorf("GET b after promote = %q (state relation broken)", got)
		}
	})
}

// Without Rule 1, the typed-PUT divergence the paper warns about (§3.3.1)
// appears: accepting the new command on the follower breaks the state
// relation and a later GET diverges spuriously.
func TestWithoutRule1LaterDivergence(t *testing.T) {
	serve(t, "v1", false, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		v := Update(UpdateOpts{PerEntryXform: time.Microsecond})
		v.Rules = nil // drop Figure 4's rules
		w.C.Update(v)
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET warmup")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v", w.C.Stage())
		}
		// The typed PUT: leader replies ERR, follower replies OK ->
		// immediate output divergence (the visible half of the broken
		// state relation).
		c.Do(tk, "PUT-number balance 1001")
		tk.Sleep(30 * time.Millisecond)
		if len(w.C.Monitor().Divergences()) == 0 {
			t.Fatal("expected divergence without Rule 1")
		}
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want rollback", w.C.Stage())
		}
	})
}

func TestXformSetsDefaultType(t *testing.T) {
	old := New("v1", false)
	old.table["k"] = entry{Val: "v"}
	v := Update(UpdateOpts{})
	newApp, err := v.Xform(old)
	if err != nil {
		t.Fatalf("Xform: %v", err)
	}
	n := newApp.(*Server)
	if e := n.table["k"]; e.Val != "v" || e.Type != "string" {
		t.Fatalf("migrated entry = %+v", e)
	}
}

func TestXformUninitializedTypeBug(t *testing.T) {
	old := New("v1", false)
	old.table["k"] = entry{Val: "v"}
	v := Update(UpdateOpts{UninitializedType: true})
	newApp, _ := v.Xform(old)
	if typ := newApp.(*Server).table["k"].Type; typ != "" {
		t.Fatalf("bug injection failed: type = %q", typ)
	}
}

func TestForkIsDeep(t *testing.T) {
	s := New("v1", false)
	s.table["k"] = entry{Val: "v"}
	f := s.Fork().(*Server)
	f.table["k"] = entry{Val: "changed"}
	if s.table["k"].Val != "v" {
		t.Fatal("fork shares table")
	}
}

func TestReconnectAfterClose(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	w.C.Start(New("v1", false))
	w.S.Go("clients", func(tk *sim.Task) {
		c1 := apptest.Connect(w.K, tk, Port)
		if got := c1.Do(tk, "PUT k 1"); got != "OK\r\n" {
			t.Errorf("first client PUT = %q", got)
		}
		c1.Close(tk)
		tk.Sleep(time.Millisecond)
		c2 := apptest.Connect(w.K, tk, Port)
		if got := c2.Do(tk, "GET k"); got != "VAL 1\r\n" {
			t.Errorf("second client GET = %q (state lost across sessions)", got)
		}
		c2.Close(tk)
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Figure 3's commuting square, checked with testing/quick on the running
// example: for any sequence of PUT commands, transforming the old state
// then applying the (typed) commands equals applying the (untyped)
// commands then transforming — the invariant the rewrite rules exist to
// protect.
func TestStateRelationCommutesProperty(t *testing.T) {
	type op struct {
		Key byte
		Val byte
	}
	f := func(ops []op) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		v := Update(UpdateOpts{})
		// Path A: apply commands to v1, then transform.
		a := New("v1", false)
		for _, o := range ops {
			a.execute([]byte(cmdFor(o.Key, o.Val)))
		}
		xa, err := v.Xform(a)
		if err != nil {
			return false
		}
		// Path B: transform first (empty v2 store via xform of empty
		// v1), then apply the same commands as the old-version-mapped
		// equivalents (plain PUT gets the default "string" type).
		empty := New("v1", false)
		xbApp, err := v.Xform(empty)
		if err != nil {
			return false
		}
		b := xbApp.(*Server)
		for _, o := range ops {
			b.execute([]byte(cmdFor(o.Key, o.Val)))
		}
		// The two states must be identical.
		ta, tb := xa.(*Server).table, b.table
		if len(ta) != len(tb) {
			return false
		}
		for k, ea := range ta {
			eb, ok := tb[k]
			if !ok || ea != eb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func cmdFor(k, v byte) string {
	key := string(rune('a' + k%8))
	val := string(rune('0' + v%10))
	return "PUT " + key + " " + val
}

// The §2.4 uninitialized-type bug demonstrates a fundamental limit the
// paper implies: MVEDSUA validates the new version against the *old*
// semantics, so a bug that is only observable through genuinely new
// behaviour (here, TYPE output of entries whose type field the
// transformer forgot to set) escapes detection — no divergence fires,
// the update commits, and clients of the new interface see the wrong
// answer. The companion defence is Figure 3's commuting-square property
// test, which catches exactly this transformer bug statically.
func TestUninitializedTypeBugEscapesMVE(t *testing.T) {
	serve(t, "v1", false, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "PUT balance 1000")
		w.C.Update(Update(UpdateOpts{UninitializedType: true, PerEntryXform: time.Microsecond}))
		for i := 0; i < 4; i++ {
			c.Do(tk, "GET balance") // old-semantics traffic: identical in both
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// Nothing the old semantics can express exposes the bug: GETs
		// return the value regardless of the broken type field.
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("unexpected divergence: %v", w.C.Monitor().Divergences())
		}
		w.C.Promote()
		for i := 0; i < 4; i++ {
			c.Do(tk, "GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		w.C.Commit()
		// The buggy update sailed through; the new interface now shows
		// the damage (empty type instead of the "string" default).
		if got := c.Do(tk, "TYPE balance"); got != "TYPE \r\n" {
			t.Fatalf("TYPE = %q — expected the escaped bug to be visible", got)
		}
	})
}

// And the defence: the commuting-square property test fails loudly for
// the buggy transformer, where MVE cannot.
func TestCommutingSquareCatchesUninitializedType(t *testing.T) {
	v := Update(UpdateOpts{UninitializedType: true})
	old := New("v1", false)
	old.execute([]byte("PUT k 1"))
	xa, err := v.Xform(old)
	if err != nil {
		t.Fatalf("Xform: %v", err)
	}
	// Path B: transform empty, then apply the command under the new
	// version (old-mapped plain PUT gets the "string" default).
	emptyX, _ := v.Xform(New("v1", false))
	b := emptyX.(*Server)
	b.execute([]byte("PUT k 1"))
	typA, typB := xa.(*Server).table["k"].Type, b.table["k"].Type
	if typA == typB {
		t.Fatalf("square commutes (%q == %q): bug injection broken", typA, typB)
	}
}
