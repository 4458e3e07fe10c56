package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/sim"
)

// serve starts a world with the server under MVEDSUA and runs driver as
// a client task.
func serve(t *testing.T, spec Spec, cfg core.Config, driver func(w *apptest.World, tk *sim.Task, c *apptest.Client)) *apptest.World {
	t.Helper()
	w := apptest.NewWorld(cfg)
	w.C.Start(New(spec))
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

func TestBasicCommands(t *testing.T) {
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		cases := []struct{ cmd, want string }{
			{"PING", "+PONG\r\n"},
			{"SET k1 hello", "+OK\r\n"},
			{"GET k1", "$5\r\nhello\r\n"},
			{"GET missing", "$-1\r\n"},
			{"EXISTS k1", ":1\r\n"},
			{"EXISTS nope", ":0\r\n"},
			{"DEL k1", ":1\r\n"},
			{"DEL k1", ":0\r\n"},
			{"INCR ctr", ":1\r\n"},
			{"INCR ctr", ":2\r\n"},
			{"SET s abc", "+OK\r\n"},
			{"INCR s", "-ERR value is not an integer or out of range\r\n"},
			{"TYPE s", "+string\r\n"},
			{"TYPE nope", "+none\r\n"},
			{"HSET h f1 v1", ":1\r\n"},
			{"HSET h f1 v2", ":0\r\n"},
			{"HGET h f1", "$2\r\nv2\r\n"},
			{"HGET h nope", "$-1\r\n"},
			{"TYPE h", "+hash\r\n"},
			{"HMGET h f1 f9", "*2\r\n$2\r\nv2\r\n$-1\r\n"},
			{"HMGET s f1", "-WRONGTYPE Operation against a key holding the wrong kind of value\r\n"},
			{"GET h", "-WRONGTYPE Operation against a key holding the wrong kind of value\r\n"},
			{"DBSIZE", ":3\r\n"},
			{"BOGUS", "-ERR unknown command 'BOGUS'\r\n"},
			{"APPEND s xyz", "-ERR unknown command 'APPEND'\r\n"},
			{"GETSET s q", "-ERR unknown command 'GETSET'\r\n"},
		}
		for _, tc := range cases {
			if got := c.Do(tk, tc.cmd); got != tc.want {
				t.Errorf("%s = %q, want %q", tc.cmd, got, tc.want)
			}
		}
	})
}

func TestVersionFeatures(t *testing.T) {
	serve(t, SpecFor("2.0.3", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		if got := c.Do(tk, "APPEND a xy"); got != ":2\r\n" {
			t.Errorf("APPEND = %q", got)
		}
		if got := c.Do(tk, "APPEND a z"); got != ":3\r\n" {
			t.Errorf("APPEND 2 = %q", got)
		}
		if got := c.Do(tk, "GETSET a new"); got != "$3\r\nxyz\r\n" {
			t.Errorf("GETSET = %q", got)
		}
		if got := c.Do(tk, "GET a"); got != "$3\r\nnew\r\n" {
			t.Errorf("GET = %q", got)
		}
		if got := c.Do(tk, "GETSET fresh v"); got != "$-1\r\n" {
			t.Errorf("GETSET fresh = %q", got)
		}
	})
}

func TestKeysSorted(t *testing.T) {
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET b 1")
		c.Do(tk, "SET a 2")
		c.Do(tk, "SET c 3")
		got := c.Do(tk, "KEYS")
		want := "*3\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n"
		if got != want {
			t.Errorf("KEYS = %q, want %q", got, want)
		}
	})
}

func TestPipelinedCommands(t *testing.T) {
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "SET a 1\r\nSET b 2\r\nGET a\r\n")
		got := c.RecvUntil(tk, "$1\r\n1\r\n")
		if !strings.Contains(got, "+OK\r\n+OK\r\n") {
			t.Errorf("pipelined replies = %q", got)
		}
	})
}

func TestMultipleClients(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	w.C.Start(New(SpecFor("2.0.0", false)))
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		w.S.Go("client", func(tk *sim.Task) {
			c := apptest.Connect(w.K, tk, Port)
			key := []string{"x", "y"}[i]
			c.Do(tk, "SET "+key+" v"+key)
			results[i] = c.Do(tk, "GET "+key)
			c.Close(tk)
			if i == 1 {
				w.Finish()
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if results[0] != "$2\r\nvx\r\n" || results[1] != "$2\r\nvy\r\n" {
		t.Fatalf("results = %q", results)
	}
}

func TestForkIsDeep(t *testing.T) {
	s := New(SpecFor("2.0.0", false))
	s.Preload(10)
	s.db.put("h", entry{typ: typeHash, hash: map[string]string{"f": "v"}})
	f := s.Fork().(*Server)
	f.db.mut("key:00000001").str = "mutated"
	f.db.mut("h").hash["f"] = "mutated"
	if s.db.get("key:00000001").str != "val:00000001" {
		t.Fatal("fork shares string entries")
	}
	if s.db.get("h").hash["f"] != "v" {
		t.Fatal("fork shares hash maps")
	}
}

func TestPreloadAndDBSize(t *testing.T) {
	s := New(SpecFor("2.0.0", false))
	s.Preload(1000)
	if s.DBSize() != 1000 {
		t.Fatalf("DBSize = %d", s.DBSize())
	}
	if e := s.db.get("key:00000500"); e == nil || e.typ != typeString || e.str != "val:00000500" {
		t.Fatalf("preload entry = %+v", e)
	}
}

func TestSpecFor(t *testing.T) {
	if !SpecFor("2.0.0", false).ClockBeforeWrite {
		t.Error("2.0.0 should clock before write")
	}
	if SpecFor("2.0.1", false).ClockBeforeWrite {
		t.Error("2.0.1 should write before clock")
	}
	if !SpecFor("2.0.2", false).HasAppend || SpecFor("2.0.2", false).HasGetSet {
		t.Error("2.0.2 features wrong")
	}
	if !SpecFor("2.0.3", true).BugHMGET {
		t.Error("bug flag lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown version should panic")
		}
	}()
	SpecFor("9.9.9", false)
}

// The paper's §5.2 scenario: update 2.0.0 → 2.0.1 under MVEDSUA with the
// one DSL rule; traffic flows across the whole lifecycle with no
// divergence and no lost state.
func TestUpdate200To201UnderMVEDSUA(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{PerEntryXform: time.Microsecond})
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET persisted before-update")
		c.Do(tk, "INCR ctr")
		if !w.C.Update(v) {
			t.Fatal("Update rejected")
		}
		// Keep traffic flowing through fork, catch-up and validation.
		for i := 0; i < 5; i++ {
			if got := c.Do(tk, "INCR ctr"); got == "" {
				t.Fatal("no reply during update")
			}
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; divergences: %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		w.C.Promote()
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR ctr")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage after promote = %v; divergences: %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		w.C.Commit()
		// State survived: 11 INCRs total, the SET still there.
		if got := c.Do(tk, "GET persisted"); got != "$13\r\nbefore-update\r\n" {
			t.Errorf("GET persisted = %q", got)
		}
		if got := c.Do(tk, "INCR ctr"); got != ":12\r\n" {
			t.Errorf("final INCR = %q", got)
		}
	})
}

// Without the rule, the reordered syscalls of 2.0.1 are flagged as a
// divergence and the update rolls back — demonstrating why the rule is
// needed.
func TestUpdate200To201WithoutRuleDiverges(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{PerEntryXform: time.Microsecond})
	v.Rules = nil
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		w.C.Update(v)
		for i := 0; i < 6; i++ {
			c.Do(tk, "INCR ctr")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want rollback to single leader", w.C.Stage())
		}
		if len(w.C.Monitor().Divergences()) == 0 {
			t.Fatal("expected a divergence without the rule")
		}
		// Clients were never disturbed.
		if got := c.Do(tk, "INCR ctr"); got != ":7\r\n" {
			t.Errorf("INCR after rollback = %q", got)
		}
	})
}

// §6.2 "error in the new code": 2.0.0 runs without the HMGET bug; the
// update to 2.0.1 introduces it. Under MVEDSUA the follower crashes on
// the bad HMGET and the update rolls back; clients proceed.
func TestNewCodeErrorHMGET(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{BugHMGET: true, PerEntryXform: time.Microsecond})
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET plain stringvalue")
		w.C.Update(v)
		for i := 0; i < 3; i++ {
			c.Do(tk, "INCR warm")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; divergences: %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// The bad HMGET: old version replies -WRONGTYPE; the buggy new
		// version crashes while validating.
		got := c.Do(tk, "HMGET plain f1")
		if !strings.HasPrefix(got, "-WRONGTYPE") {
			t.Errorf("HMGET reply = %q", got)
		}
		tk.Sleep(50 * time.Millisecond)
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want rollback after follower crash", w.C.Stage())
		}
		if w.C.LeaderRuntime().App().Version() != "2.0.0" {
			t.Fatalf("leader = %s", w.C.LeaderRuntime().App().Version())
		}
		// Service uninterrupted.
		if got := c.Do(tk, "GET plain"); got != "$11\r\nstringvalue\r\n" {
			t.Errorf("GET after rollback = %q", got)
		}
	})
}

// §6.2 "error in the state transformation": the xform fails outright;
// the follower process dies; the leader rolls back invisibly.
func TestStateTransformationError(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{BreakXform: true})
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET k v")
		w.C.Update(v)
		for i := 0; i < 4; i++ {
			c.Do(tk, "INCR n")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want rollback", w.C.Stage())
		}
		if got := c.Do(tk, "GET k"); got != "$1\r\nv\r\n" {
			t.Errorf("GET = %q", got)
		}
	})
}

// The §2.4 "forgot to copy the table" bug: the update itself succeeds,
// but the first GET against the follower's empty store diverges and the
// update rolls back — no data is ever lost client-side.
func TestForgottenTableCopyDiverges(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{ForgetTable: true, PerEntryXform: time.Microsecond})
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET balance 1000")
		w.C.Update(v)
		for i := 0; i < 3; i++ {
			c.Do(tk, "PING")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v (PINGs alone should not diverge)", w.C.Stage())
		}
		// The GET exposes the missing table: leader replies the value,
		// follower replies null -> divergence -> rollback.
		if got := c.Do(tk, "GET balance"); got != "$4\r\n1000\r\n" {
			t.Errorf("GET balance = %q", got)
		}
		tk.Sleep(50 * time.Millisecond)
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want rollback", w.C.Stage())
		}
		if len(w.C.Monitor().Divergences()) == 0 {
			t.Fatal("expected divergence from the empty store")
		}
	})
}

// Updates through the whole lineage 2.0.0 -> 2.0.3, committing each.
func TestFullLineageUpdates(t *testing.T) {
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET keep forever")
		for i := 0; i+1 < len(Versions); i++ {
			v := Update(Versions[i], Versions[i+1], UpdateOpts{PerEntryXform: time.Microsecond})
			if !w.C.Update(v) {
				t.Fatalf("Update to %s rejected", Versions[i+1])
			}
			for j := 0; j < 4; j++ {
				c.Do(tk, "INCR ctr")
				tk.Sleep(10 * time.Millisecond)
			}
			if w.C.Stage() != core.StageOutdatedLeader {
				t.Fatalf("update to %s: stage = %v; %v", Versions[i+1], w.C.Stage(), w.C.Monitor().Divergences())
			}
			w.C.Promote()
			for j := 0; j < 4; j++ {
				c.Do(tk, "INCR ctr")
				tk.Sleep(10 * time.Millisecond)
			}
			w.C.Commit()
		}
		if got := w.C.LeaderRuntime().App().Version(); got != Versions[len(Versions)-1] {
			t.Fatalf("final version = %s", got)
		}
		if got := c.Do(tk, "GET keep"); got != "$7\r\nforever\r\n" {
			t.Errorf("GET keep = %q", got)
		}
		// 2.0.3 features now live.
		if got := c.Do(tk, "APPEND keep !"); got != ":8\r\n" {
			t.Errorf("APPEND = %q", got)
		}
	})
}

func TestUpdateRejectsNonAdjacent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-adjacent update should panic")
		}
	}()
	Update("2.0.0", "2.0.2", UpdateOpts{})
}

// Property: the state transformation preserves every entry (Figure 3's
// commuting square, data half): for any set of keys, xform(old).db ==
// old.db.
func TestXformPreservesStateProperty(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{})
	f := func(keys []string, vals []string) bool {
		old := New(SpecFor("2.0.0", false))
		for i, k := range keys {
			if k == "" {
				continue
			}
			val := "v"
			if i < len(vals) {
				val = vals[i]
			}
			old.db.put(k, entry{typ: typeString, str: val})
		}
		newApp, err := v.Xform(old)
		if err != nil {
			return false
		}
		n := newApp.(*Server)
		if n.db.len() != old.db.len() {
			return false
		}
		same := true
		old.db.each(func(k string, e *entry) {
			ne := n.db.get(k)
			if ne == nil || ne.str != e.str || ne.typ != e.typ {
				same = false
			}
		})
		return same && n.spec.Version == "2.0.1"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A lazy update installs in O(1) and migrates entries on first touch or
// via the background sweep, never both.
func TestLazyUpdateMigratesOnTouchAndSweep(t *testing.T) {
	old := New(SpecFor("2.0.1", false))
	old.Preload(6)
	v := Update("2.0.1", "2.0.2", UpdateOpts{Lazy: true, PerEntryXform: time.Microsecond})
	if got := v.XformCost(old); got != LazyInstallCost {
		t.Fatalf("lazy install cost = %v, want %v regardless of store size", got, LazyInstallCost)
	}
	if !v.LazyXform {
		t.Fatal("LazyXform flag not set")
	}
	na, err := v.Xform(old)
	if err != nil {
		t.Fatal(err)
	}
	n := na.(*Server)
	if n.PendingLazy() != 6 {
		t.Fatalf("PendingLazy = %d, want 6", n.PendingLazy())
	}
	// First touch migrates the entry and accrues the charge for the
	// requesting command.
	if got := string(n.executeAt(0, []byte("GET key:00000001"))); got != "$12\r\nval:00000001\r\n" {
		t.Fatalf("GET = %q", got)
	}
	if n.PendingLazy() != 5 {
		t.Fatalf("PendingLazy after touch = %d, want 5", n.PendingLazy())
	}
	if n.lazy.chargeSteps != 1 || n.lazy.chargeCost != time.Microsecond {
		t.Fatalf("charge = %d steps %v", n.lazy.chargeSteps, n.lazy.chargeCost)
	}
	// The sweep drains the rest, skipping the already-touched entry.
	swept, cost := n.SweepLazy(100)
	if swept != 5 || cost != 5*time.Microsecond {
		t.Fatalf("SweepLazy = %d entries %v", swept, cost)
	}
	if n.PendingLazy() != 0 {
		t.Fatalf("PendingLazy after sweep = %d", n.PendingLazy())
	}
	// The bookkeeping lingers only until the accrued charge is billed.
	n.lazy.chargeSteps, n.lazy.chargeCost = 0, 0
	n.maybeFinishLazy()
	if n.lazy != nil {
		t.Fatal("lazy state not retired after drain")
	}
}

// Generations stack: an entry untouched across two lazy hops pays both
// transforms on first access (or in one sweep visit).
func TestLazyGenerationsStack(t *testing.T) {
	old := New(SpecFor("2.0.1", false))
	old.Preload(4)
	hop1 := Update("2.0.1", "2.0.2", UpdateOpts{Lazy: true, PerEntryXform: time.Microsecond})
	a1, err := hop1.Xform(old)
	if err != nil {
		t.Fatal(err)
	}
	s1 := a1.(*Server)
	s1.executeAt(0, []byte("GET key:00000001")) // this entry reaches gen 1
	s1.lazy.chargeSteps, s1.lazy.chargeCost = 0, 0
	hop2 := Update("2.0.2", "2.0.3", UpdateOpts{Lazy: true, PerEntryXform: time.Microsecond})
	a2, err := hop2.Xform(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := a2.(*Server)
	if s2.xformGen != 2 {
		t.Fatalf("xformGen = %d, want 2", s2.xformGen)
	}
	if s2.PendingLazy() != 4 {
		t.Fatalf("PendingLazy = %d, want 4 (everything lags again)", s2.PendingLazy())
	}
	// Untouched across both hops: owes 2 steps at once.
	s2.executeAt(0, []byte("GET key:00000002"))
	if s2.lazy.chargeSteps != 2 || s2.lazy.chargeCost != 2*time.Microsecond {
		t.Fatalf("stacked charge = %d steps %v, want 2 steps 2µs", s2.lazy.chargeSteps, s2.lazy.chargeCost)
	}
	// Touched during hop 1: owes only the second hop.
	s2.executeAt(0, []byte("GET key:00000001"))
	if s2.lazy.chargeSteps != 3 {
		t.Fatalf("charge after second touch = %d steps, want 3", s2.lazy.chargeSteps)
	}
	// The sweep pays the remaining two entries' stacked debt.
	swept, cost := s2.SweepLazy(100)
	if swept != 2 || cost != 4*time.Microsecond {
		t.Fatalf("SweepLazy = %d entries %v, want 2 entries 4µs", swept, cost)
	}
	if s2.PendingLazy() != 0 {
		t.Fatalf("PendingLazy = %d after sweep", s2.PendingLazy())
	}
}

// An eager hop rewrites the whole heap, settling any debt a previous
// lazy hop left; its cost is linear again.
func TestEagerUpdateSettlesLazyDebt(t *testing.T) {
	old := New(SpecFor("2.0.1", false))
	old.Preload(5)
	hop1 := Update("2.0.1", "2.0.2", UpdateOpts{Lazy: true, PerEntryXform: time.Microsecond})
	a1, _ := hop1.Xform(old)
	s1 := a1.(*Server)
	if s1.PendingLazy() != 5 {
		t.Fatalf("PendingLazy = %d", s1.PendingLazy())
	}
	hop2 := Update("2.0.2", "2.0.3", UpdateOpts{PerEntryXform: time.Microsecond})
	if got := hop2.XformCost(s1); got != 5*time.Microsecond {
		t.Fatalf("eager cost = %v, want 5µs", got)
	}
	a2, _ := hop2.Xform(s1)
	s2 := a2.(*Server)
	if s2.PendingLazy() != 0 || s2.lazy != nil {
		t.Fatal("eager hop left lazy debt behind")
	}
	s2.db.each(func(k string, e *entry) {
		if e.gen != s2.xformGen {
			t.Fatalf("entry %s at gen %d, want %d", k, e.gen, s2.xformGen)
		}
	})
}

// Deleting or overwriting a lagging entry retires its migration debt
// without charging anyone.
func TestLazyDebtDiesWithDeletedEntries(t *testing.T) {
	old := New(SpecFor("2.0.1", false))
	old.Preload(3)
	v := Update("2.0.1", "2.0.2", UpdateOpts{Lazy: true, PerEntryXform: time.Microsecond})
	na, _ := v.Xform(old)
	n := na.(*Server)
	n.executeAt(0, []byte("DEL key:00000000"))
	if n.PendingLazy() != 2 || n.lazy.chargeSteps != 0 {
		t.Fatalf("after DEL: pending=%d charge=%d", n.PendingLazy(), n.lazy.chargeSteps)
	}
	n.executeAt(0, []byte("SET key:00000001 fresh"))
	if n.PendingLazy() != 1 || n.lazy.chargeSteps != 0 {
		t.Fatalf("after SET: pending=%d charge=%d", n.PendingLazy(), n.lazy.chargeSteps)
	}
	n.executeAt(0, []byte("FLUSHDB"))
	if n.PendingLazy() != 0 {
		t.Fatalf("after FLUSHDB: pending=%d", n.PendingLazy())
	}
}

// A lazy update rides the full MVEDSUA lifecycle: traffic keeps flowing,
// touched entries migrate on access, the sweep drains the cold tail, and
// no state is lost.
func TestLazyUpdateUnderMVEDSUA(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{Lazy: true, PerEntryXform: time.Microsecond})
	serve(t, SpecFor("2.0.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		for i := 0; i < 8; i++ {
			c.Do(tk, fmt.Sprintf("SET cold:%d v%d", i, i))
		}
		c.Do(tk, "SET hot before-update")
		if !w.C.Update(v) {
			t.Fatal("Update rejected")
		}
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR ctr")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; divergences: %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// Touch path: reads during validation migrate on access and stay
		// coherent across leader and follower.
		if got := c.Do(tk, "GET hot"); got != "$13\r\nbefore-update\r\n" {
			t.Errorf("GET hot during update = %q", got)
		}
		w.C.Promote()
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR ctr")
			tk.Sleep(10 * time.Millisecond)
		}
		w.C.Commit()
		tk.Sleep(20 * time.Millisecond) // sweep window for the cold tail
		srv := w.C.LeaderRuntime().App().(*Server)
		if srv.Version() != "2.0.1" {
			t.Fatalf("leader version = %s", srv.Version())
		}
		if srv.PendingLazy() != 0 {
			t.Fatalf("PendingLazy = %d after sweep window", srv.PendingLazy())
		}
		for i := 0; i < 8; i++ {
			want := fmt.Sprintf("$2\r\nv%d\r\n", i)
			if got := c.Do(tk, fmt.Sprintf("GET cold:%d", i)); got != want {
				t.Errorf("GET cold:%d = %q, want %q", i, got, want)
			}
		}
		if got := c.Do(tk, "INCR ctr"); got != ":11\r\n" {
			t.Errorf("final INCR = %q", got)
		}
	})
}

// Property: xform cost is linear in the store size.
func TestXformCostLinearProperty(t *testing.T) {
	v := Update("2.0.0", "2.0.1", UpdateOpts{PerEntryXform: time.Microsecond})
	f := func(n uint16) bool {
		old := New(SpecFor("2.0.0", false))
		old.Preload(int(n % 2000))
		return v.XformCost(old) == time.Duration(old.DBSize())*time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Preload builds its keys and values without fmt; they are byte-equal to
// the %08d forms every client and test spells out, also where the number
// outgrows its padding.
func TestPreloadPairMatchesSprintf(t *testing.T) {
	var scratch []byte
	for _, i := range []int{0, 9, 10, 99_999_999, 100_000_000} {
		var k, v string
		k, v, scratch = preloadPair(scratch, i)
		if wantK, wantV := fmt.Sprintf("key:%08d", i), fmt.Sprintf("val:%08d", i); k != wantK || v != wantV {
			t.Errorf("preloadPair(%d) = %q, %q; want %q, %q", i, k, v, wantK, wantV)
		}
	}
}
