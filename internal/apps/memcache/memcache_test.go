package memcache

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apps/libevent"
	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/sim"
)

// mcConfig is the standard controller config for memcached: epoll_wait
// acts as an update point and the abort callback resets LibEvent (§5.3).
func mcConfig() core.Config {
	return core.Config{
		DSU: dsu.Config{
			EpollWaitIsUpdatePoint: true,
			EpollUpdateInterval:    5 * time.Millisecond,
			OnAbort:                AbortReset,
		},
	}
}

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

func TestProtocolBasics(t *testing.T) {
	serve(t, SpecFor("1.2.2", 1), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		cases := []struct{ send, want string }{
			{"set k1 7 0 5\r\nhello", "STORED\r\n"},
			{"get k1", "VALUE k1 7 5\r\nhello\r\nEND\r\n"},
			{"get missing", "END\r\n"},
			{"add k1 0 0 3\r\nxxx", "NOT_STORED\r\n"},
			{"add k2 0 0 2\r\nab", "STORED\r\n"},
			{"replace k2 0 0 2\r\ncd", "STORED\r\n"},
			{"replace nope 0 0 1\r\nz", "NOT_STORED\r\n"},
			{"append k2 0 0 2\r\nef", "STORED\r\n"},
			{"get k2", "VALUE k2 0 4\r\ncdef\r\nEND\r\n"},
			{"prepend k2 0 0 2\r\nab", "STORED\r\n"},
			{"get k2", "VALUE k2 0 6\r\nabcdef\r\nEND\r\n"},
			{"delete k2", "DELETED\r\n"},
			{"delete k2", "NOT_FOUND\r\n"},
			{"set n 0 0 2\r\n10", "STORED\r\n"},
			{"incr n 5", "15\r\n"},
			{"decr n 20", "0\r\n"},
			{"incr missing 1", "NOT_FOUND\r\n"},
			{"set s 0 0 3\r\nabc", "STORED\r\n"},
			{"incr s 1", "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"},
			{"incr n banana", "CLIENT_ERROR invalid numeric delta argument\r\n"},
			{"version", "VERSION 1.2.2\r\n"},
			{"flush_all", "OK\r\n"},
			{"get k1", "END\r\n"},
			{"bogus", "ERROR\r\n"},
			{"set bad notanint 0 3\r\nabc", "CLIENT_ERROR bad command line format\r\n"},
			{"set short 0 0 10\r\nabc", "CLIENT_ERROR bad data chunk\r\n"},
		}
		for _, tc := range cases {
			c.Send(tk, tc.send+"\r\n")
			got := c.RecvUntil(tk, "\r\n")
			if got != tc.want {
				t.Errorf("%q -> %q, want %q", tc.send, got, tc.want)
			}
		}
	})
}

// A data block's last byte may be a \r: only the \r\n after it ends the
// block.
func TestDataEndingInCarriageReturn(t *testing.T) {
	serve(t, SpecFor("1.2.3", 1), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "set k 0 0 2\r\na\r\r\n")
		if got := c.RecvUntil(tk, "\r\n"); got != "STORED\r\n" {
			t.Fatalf("set = %q, want STORED", got)
		}
		c.Send(tk, "get k\r\n")
		if got, want := c.RecvUntil(tk, "END\r\n"), "VALUE k 0 2\r\na\r\r\nEND\r\n"; got != want {
			t.Errorf("get = %q, want %q", got, want)
		}
	})
}

func TestMultiKeyGet(t *testing.T) {
	serve(t, SpecFor("1.2.3", 1), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "set a 0 0 1\r\nA\r\n")
		c.RecvUntil(tk, "STORED\r\n")
		c.Send(tk, "set b 0 0 1\r\nB\r\n")
		c.RecvUntil(tk, "STORED\r\n")
		c.Send(tk, "get a miss b\r\n")
		got := c.RecvUntil(tk, "END\r\n")
		want := "VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"
		if got != want {
			t.Errorf("multi get = %q, want %q", got, want)
		}
	})
}

func TestStats(t *testing.T) {
	serve(t, SpecFor("1.2.4", 2), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "set k 0 0 1\r\nv\r\n")
		c.RecvUntil(tk, "STORED\r\n")
		c.Send(tk, "get k\r\n")
		c.RecvUntil(tk, "END\r\n")
		c.Send(tk, "get miss\r\n")
		c.RecvUntil(tk, "END\r\n")
		c.Send(tk, "stats\r\n")
		got := c.RecvUntil(tk, "END\r\n")
		for _, want := range []string{
			"STAT curr_items 1\r\n", "STAT cmd_get 2\r\n", "STAT cmd_set 1\r\n",
			"STAT get_hits 1\r\n", "STAT get_misses 1\r\n", "STAT threads 2\r\n",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("stats missing %q in %q", want, got)
			}
		}
	})
}

func TestMultipleWorkersServeClients(t *testing.T) {
	w := apptest.NewWorld(mcConfig())
	w.C.Start(New(SpecFor("1.2.2", 4)))
	const n = 8
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		w.S.Go("client", func(tk *sim.Task) {
			c := apptest.Connect(w.K, tk, Port)
			key := string(rune('a' + i))
			c.Send(tk, "set "+key+" 0 0 1\r\nX\r\n")
			if got := c.RecvUntil(tk, "\r\n"); got != "STORED\r\n" {
				t.Errorf("client %d: set = %q", i, got)
			}
			c.Send(tk, "get "+key+"\r\n")
			if got := c.RecvUntil(tk, "END\r\n"); !strings.Contains(got, "VALUE "+key) {
				t.Errorf("client %d: get = %q", i, got)
			}
			c.Close(tk)
			finished++
			if finished == n {
				w.Finish()
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// All four workers own at least one connection (round-robin).
	leader := w.C.LeaderRuntime().App().(*Server)
	if leader.nextWorker != n {
		t.Fatalf("nextWorker = %d, want %d", leader.nextWorker, n)
	}
}

// preload inserts n synthetic items directly.
func preload(s *Server, n int) {
	for i := 0; i < n; i++ {
		s.db[fmt.Sprintf("key:%08d", i)] = item{data: fmt.Sprintf("val:%08d", i)}
	}
}

func TestForkIsDeep(t *testing.T) {
	s := New(SpecFor("1.2.2", 2))
	preload(s, 5)
	s.mainBase = libevent.NewBase()
	s.workers = []*worker{{base: libevent.NewBase(), conns: map[int]*mcConn{}}}
	f := s.Fork().(*Server)
	f.db["key:00000001"] = item{data: "mutated"}
	if v := s.db["key:00000001"].data; v != "val:00000001" {
		t.Fatal("fork shares the item map")
	}
}

// The paper's §5.3/§6.1 scenario: update 1.2.2 → 1.2.3 under MVEDSUA
// with multi-threaded workers, epoll update points, and the LibEvent
// reset callback. No rules are needed; no divergence occurs.
func TestUpdate122To123UnderMVEDSUA(t *testing.T) {
	v := Update("1.2.2", "1.2.3", UpdateOpts{PerItemXform: time.Microsecond})
	serve(t, SpecFor("1.2.2", 2), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "set persist 0 0 4\r\nsafe\r\n")
		c.RecvUntil(tk, "STORED\r\n")
		if !w.C.Update(v) {
			t.Fatal("Update rejected")
		}
		for i := 0; i < 6; i++ {
			c.Send(tk, "get persist\r\n")
			if got := c.RecvUntil(tk, "END\r\n"); !strings.Contains(got, "safe") {
				t.Errorf("get during update = %q", got)
			}
			tk.Sleep(15 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; divergences: %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		w.C.Promote()
		for i := 0; i < 6; i++ {
			c.Send(tk, "get persist\r\n")
			c.RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
		}
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage after promote = %v; divergences: %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		w.C.Commit()
		c.Send(tk, "version\r\n")
		if got := c.RecvUntil(tk, "\r\n"); got != "VERSION 1.2.3\r\n" {
			t.Errorf("version after commit = %q", got)
		}
	})
}

// §6.2 "error in the state transformation": the buggy transformer frees
// LibEvent state; the updated follower crashes once enough clients are
// connected; MVEDSUA tolerates it and the leader continues.
func TestUseAfterFreeXformTolerated(t *testing.T) {
	v := Update("1.2.2", "1.2.3", UpdateOpts{UseAfterFree: true, PerItemXform: time.Microsecond})
	w := apptest.NewWorld(mcConfig())
	w.C.Start(New(SpecFor("1.2.2", 1)))
	w.S.Go("driver", func(tk *sim.Task) {
		// Three clients on the single worker: enough load to trigger
		// the latent crash.
		clients := make([]*apptest.Client, 3)
		for i := range clients {
			clients[i] = apptest.Connect(w.K, tk, Port)
			clients[i].Send(tk, "set warm 0 0 1\r\nx\r\n")
			clients[i].RecvUntil(tk, "\r\n")
		}
		w.C.Update(v)
		for round := 0; round < 8 && w.C.Stage() == core.StageSingleLeader; round++ {
			clients[0].Send(tk, "get warm\r\n")
			clients[0].RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
		}
		// Drive traffic until the follower crashes and rolls back.
		for round := 0; round < 12; round++ {
			for _, c := range clients {
				c.Send(tk, "get warm\r\n")
				c.RecvUntil(tk, "END\r\n")
			}
			tk.Sleep(15 * time.Millisecond)
			if w.C.Stage() == core.StageSingleLeader && len(w.C.Timeline()) > 2 {
				break
			}
		}
		if w.C.Stage() != core.StageSingleLeader {
			t.Errorf("stage = %v, want rollback", w.C.Stage())
		}
		if got := w.C.LeaderRuntime().App().Version(); got != "1.2.2" {
			t.Errorf("leader version = %s", got)
		}
		// Clients never noticed.
		clients[1].Send(tk, "get warm\r\n")
		if got := clients[1].RecvUntil(tk, "END\r\n"); !strings.Contains(got, "VALUE warm") {
			t.Errorf("get after rollback = %q", got)
		}
		for _, c := range clients {
			c.Close(tk)
		}
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// §6.2 "timing error": without the LibEvent reset callback, the leader's
// round-robin memory differs from the rebuilt follower's; simultaneous
// events are dispatched in different orders and MVE reports a
// divergence. With retry enabled, the update is installed eventually.
func TestTimingErrorLibEventReset(t *testing.T) {
	cfg := mcConfig()
	cfg.DSU.OnAbort = nil // omit the §5.3 reset: inject the timing error
	cfg.RetryOnRollback = true
	cfg.RetryInterval = 500 * time.Millisecond
	w := apptest.NewWorld(cfg)
	w.C.Start(New(SpecFor("1.2.2", 1)))
	v := Update("1.2.2", "1.2.3", UpdateOpts{PerItemXform: time.Microsecond})

	w.S.Go("driver", func(tk *sim.Task) {
		a := apptest.Connect(w.K, tk, Port)
		b := apptest.Connect(w.K, tk, Port)
		pair := func() {
			// Both clients write before the worker runs: the worker's
			// epoll_wait sees two ready fds at once, exercising the
			// round-robin dispatch order.
			a.Send(tk, "get j\r\n")
			b.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
			b.RecvUntil(tk, "END\r\n")
		}
		single := func() {
			a.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
		}
		// Advance the leader's round-robin offset to an odd value so a
		// freshly rebuilt follower (offset 0) orders a simultaneous
		// pair differently.
		for w.C.LeaderRuntime().App().(*Server).workers[0].base.RROffset()%2 == 0 {
			single()
		}
		w.C.Update(v)
		// Installed means the retried fork validated a simultaneous pair:
		// the stage holds at outdated-leader across two checks, since a
		// fork that disagrees diverges in the very instant of one check.
		sawDivergence, held := false, 0
		for round := 0; round < 60 && held < 2; round++ {
			pair()
			tk.Sleep(20 * time.Millisecond)
			if !sawDivergence && len(w.C.Monitor().Divergences()) > 0 {
				sawDivergence = true
				// A lone request realigns the leader's offset for the
				// retry; under pairs alone every retry would diverge.
				single()
			}
			held++
			if !sawDivergence || w.C.Stage() != core.StageOutdatedLeader {
				held = 0
			}
		}
		if !sawDivergence {
			t.Error("no spurious divergence: the timing error never manifested")
		}
		if held < 2 {
			t.Errorf("stage = %v; update never installed after %d retries\ntimeline: %+v",
				w.C.Stage(), w.C.Retries(), w.C.Timeline())
		}
		if w.C.Retries() == 0 || w.C.Retries() > 8 {
			t.Errorf("retries = %d, want 1..8 (paper: max 8, median 2)", w.C.Retries())
		}
		a.Close(tk)
		b.Close(tk)
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// With the reset callback in place, the same simultaneous-pair workload
// updates cleanly: the §5.3 adaptation works.
func TestLibEventResetPreventsTimingError(t *testing.T) {
	cfg := mcConfig() // includes AbortReset
	w := apptest.NewWorld(cfg)
	w.C.Start(New(SpecFor("1.2.2", 1)))
	v := Update("1.2.2", "1.2.3", UpdateOpts{PerItemXform: time.Microsecond})
	w.S.Go("driver", func(tk *sim.Task) {
		a := apptest.Connect(w.K, tk, Port)
		b := apptest.Connect(w.K, tk, Port)
		single := func() {
			a.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
		}
		for w.C.LeaderRuntime().App().(*Server).workers[0].base.RROffset()%2 == 0 {
			single()
		}
		w.C.Update(v)
		for round := 0; round < 10; round++ {
			a.Send(tk, "get j\r\n")
			b.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
			b.RecvUntil(tk, "END\r\n")
			tk.Sleep(20 * time.Millisecond)
		}
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Errorf("divergences with reset callback: %v", w.C.Monitor().Divergences())
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Errorf("stage = %v, want outdated-leader", w.C.Stage())
		}
		a.Close(tk)
		b.Close(tk)
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// A fleet takes updates through the duo's fork path, abort hook
// included — but the §5.3 reset only brings the *leader* in line with the
// rebuilt canary. Replicas replay the recorded stream and never see it:
// were it run under them, the next simultaneous pair would diverge on
// every replica at once and the quorum would abort the fleet. So with
// replicas attached the hook is skipped; the canary's dispatch-order
// mismatch is the timing error its own gate rolls back.
func TestFleetUpdateKeepsReplicasInSync(t *testing.T) {
	w := apptest.NewFleetWorld(core.FleetConfig{
		Config:   mcConfig(), // includes AbortReset
		Variants: []string{"r1", "r2"},
		Canary:   core.CanaryGate{Window: 300 * time.Millisecond},
	})
	w.C.OnVerdict = func(v mve.Verdict) {
		if v.Action != mve.VerdictRollbackCandidate {
			t.Errorf("a replica failed: %v", v)
		}
	}
	w.C.Start(New(SpecFor("1.2.2", 1)))
	w.S.Go("driver", func(tk *sim.Task) {
		a := apptest.Connect(w.K, tk, Port)
		b := apptest.Connect(w.K, tk, Port)
		for w.C.LeaderRuntime().App().(*Server).workers[0].base.RROffset()%2 == 0 {
			a.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
		}
		w.C.Update(Update("1.2.2", "1.2.3", UpdateOpts{PerItemXform: time.Microsecond}))
		for round := 0; round < 20; round++ {
			a.Send(tk, "get j\r\n")
			b.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
			b.RecvUntil(tk, "END\r\n")
			tk.Sleep(20 * time.Millisecond)
		}
		if w.C.Stage() == core.StageAborted || len(w.C.LiveVariants()) != 2 {
			t.Errorf("fleet ended %v with variants %v\ntimeline: %+v", w.C.Stage(), w.C.LiveVariants(), w.C.Timeline())
		}
		a.Close(tk)
		b.Close(tk)
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// The old version's oversized-key crash (fixed in 1.2.3): during the
// outdated-leader stage the leader dies on the bad request and MVEDSUA
// promotes the already-updated follower, which answers it correctly.
func TestOldVersionOversizedKeyCrashPromotes(t *testing.T) {
	v := Update("1.2.2", "1.2.3", UpdateOpts{PerItemXform: time.Microsecond})
	serve(t, SpecFor("1.2.2", 1), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "set k 0 0 1\r\nv\r\n")
		c.RecvUntil(tk, "STORED\r\n")
		w.C.Update(v)
		for i := 0; i < 5; i++ {
			c.Send(tk, "get k\r\n")
			c.RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		long := strings.Repeat("k", MaxKeyLen+1)
		c.Send(tk, "get "+long+"\r\n")
		got := c.RecvUntil(tk, "\r\n")
		if !strings.HasPrefix(got, "CLIENT_ERROR") {
			t.Errorf("oversized key reply = %q (should come from promoted 1.2.3)", got)
		}
		tk.Sleep(50 * time.Millisecond)
		if got := w.C.LeaderRuntime().App().Version(); got != "1.2.3" {
			t.Errorf("leader version = %s, want promoted 1.2.3", got)
		}
		// State survived the old version's death.
		c.Send(tk, "get k\r\n")
		if got := c.RecvUntil(tk, "END\r\n"); !strings.Contains(got, "VALUE k") {
			t.Errorf("get after promotion = %q", got)
		}
	})
}

func TestSpecFor(t *testing.T) {
	if !SpecFor("1.2.2", 0).OversizedKeyCrash {
		t.Error("1.2.2 should crash on oversized keys")
	}
	if SpecFor("1.2.3", 0).OversizedKeyCrash {
		t.Error("1.2.3 fixed the oversized key bug")
	}
	if SpecFor("1.2.4", 0).Workers != 4 {
		t.Error("default workers should be 4")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown version should panic")
		}
	}()
	SpecFor("0.0.0", 0)
}

func TestUpdateRejectsNonAdjacent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-adjacent update should panic")
		}
	}()
	Update("1.2.2", "1.2.4", UpdateOpts{})
}

func TestXformPreservesItems(t *testing.T) {
	v := Update("1.2.2", "1.2.3", UpdateOpts{})
	old := New(SpecFor("1.2.2", 2))
	preload(old, 100)
	old.mainBase = libevent.NewBase()
	old.workers = []*worker{{base: libevent.NewBase(), conns: map[int]*mcConn{}}}
	newApp, err := v.Xform(old)
	if err != nil {
		t.Fatalf("Xform: %v", err)
	}
	n := newApp.(*Server)
	if len(n.db) != 100 || n.Version() != "1.2.3" {
		t.Fatalf("size=%d version=%s", len(n.db), n.Version())
	}
	if v.XformCost(old) != 100*DefaultPerItemXform {
		t.Fatalf("XformCost = %v", v.XformCost(old))
	}
}

// The second paper pair, 1.2.3 -> 1.2.4, and the full lineage end to
// end: each update installs, promotes, and commits under traffic with no
// rules and no divergence (§5.3: "no version changed the sequence of
// system calls or added any commands").
func TestFullLineageUpdates(t *testing.T) {
	serve(t, SpecFor("1.2.2", 2), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "set keep 0 0 4\r\ndata\r\n")
		c.RecvUntil(tk, "STORED\r\n")
		for i := 0; i+1 < len(Versions); i++ {
			from, to := Versions[i], Versions[i+1]
			if !w.C.Update(Update(from, to, UpdateOpts{PerItemXform: time.Microsecond})) {
				t.Fatalf("update to %s rejected", to)
			}
			for j := 0; j < 6; j++ {
				c.Send(tk, "get keep\r\n")
				if got := c.RecvUntil(tk, "END\r\n"); !strings.Contains(got, "data") {
					t.Errorf("%s->%s: get during update = %q", from, to, got)
				}
				tk.Sleep(15 * time.Millisecond)
			}
			if w.C.Stage() != core.StageOutdatedLeader {
				t.Fatalf("%s->%s: stage = %v; %v", from, to, w.C.Stage(), w.C.Monitor().Divergences())
			}
			w.C.Promote()
			for j := 0; j < 6; j++ {
				c.Send(tk, "get keep\r\n")
				c.RecvUntil(tk, "END\r\n")
				tk.Sleep(15 * time.Millisecond)
			}
			if w.C.Stage() != core.StageUpdatedLeader {
				t.Fatalf("%s->%s: stage after promote = %v; %v", from, to, w.C.Stage(), w.C.Monitor().Divergences())
			}
			w.C.Commit()
		}
		c.Send(tk, "version\r\n")
		if got := c.RecvUntil(tk, "\r\n"); got != "VERSION 1.2.4\r\n" {
			t.Errorf("final version = %q", got)
		}
	})
}

// Monitor statistics reflect real activity across an update lifecycle.
func TestMonitorStatsPopulated(t *testing.T) {
	v := Update("1.2.2", "1.2.3", UpdateOpts{PerItemXform: time.Microsecond})
	serve(t, SpecFor("1.2.2", 1), mcConfig(), func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Send(tk, "set s 0 0 1\r\nx\r\n")
		c.RecvUntil(tk, "\r\n")
		w.C.Update(v)
		for j := 0; j < 6; j++ {
			c.Send(tk, "get s\r\n")
			c.RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
		}
		w.C.Promote()
		for j := 0; j < 6; j++ {
			c.Send(tk, "get s\r\n")
			c.RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
		}
		st := w.C.Monitor().Stats
		if st.Intercepted == 0 || st.Recorded == 0 || st.Replayed == 0 {
			t.Errorf("stats not populated: %+v", st)
		}
		if st.Promotions != 1 {
			t.Errorf("promotions = %d", st.Promotions)
		}
		if st.Replayed > st.Recorded {
			t.Errorf("replayed %d > recorded %d", st.Replayed, st.Recorded)
		}
	})
}
