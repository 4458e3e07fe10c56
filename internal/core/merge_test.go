package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/chaos"
	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// These tests pin what the duo and the fleet gained by being one state
// machine: fleets run trains and retry timing errors, duos shut down with
// one call, and no task outlives Shutdown.

// hop builds the from -> to descriptor of a version train over the srv
// test app: v1 replies "N", every later version "<name>:N" (names of one
// length, so a later hop rewrites in place).
func hop(from, to string, mutate func(*srv)) *dsu.Version {
	where, body, n := fmt.Sprintf(` where prefix(s, "%s:")`, from), fmt.Sprintf("sub(s, %d, len(s))", len(from)+1), "n"
	if from == "v1" {
		where, body, n = "", "s", fmt.Sprintf("n + %d", len(to)+1)
	}
	return &dsu.Version{
		Name: to,
		Rules: dsl.MustParse(fmt.Sprintf(`
rule "%s-to-%s-reply" {
    match write(fd, s, n)%s {
        emit write(fd, concat("%s:", %s), %s);
    }
}
`, from, to, where, to, body, n)),
		Xform: func(old dsu.App) (dsu.App, error) {
			o := old.(*srv)
			n := &srv{version: to, listenFD: o.listenFD, connFD: o.connFD, count: o.count}
			if mutate != nil {
				mutate(n)
			}
			return n, nil
		},
	}
}

// checkCounter fails unless reply i (0-based) carries the counter value
// i+1, whichever version formatted it, and returns that version.
func checkCounter(t *testing.T, i int, reply string) string {
	t.Helper()
	version, n := "v1", reply
	if at := strings.IndexByte(reply, ':'); at >= 0 {
		version, n = reply[:at], reply[at+1:]
	}
	if n != fmt.Sprint(i+1) {
		t.Fatalf("reply %d = %q: counter component is not %d (state lost or duplicated)", i, reply, i+1)
	}
	return version
}

// versionsSeen checks every reply's counter and returns the versions
// that answered, in order, without repeats.
func versionsSeen(t *testing.T, replies []string) []string {
	t.Helper()
	var seen []string
	for i, r := range replies {
		if v := checkCounter(t, i, r); len(seen) == 0 || seen[len(seen)-1] != v {
			seen = append(seen, v)
		}
	}
	return seen
}

// shutdownAndDrain is the one-call teardown: once the client is done
// (and in-flight verdicts and respawns have had settle to land) it shuts
// the controller down, then requires that the scheduler drains and that
// nothing was dispatched later than a virtual second after Shutdown.
func shutdownAndDrain(t *testing.T, s *sim.Scheduler, c *Controller, done *bool, settle time.Duration) {
	t.Helper()
	var shutdownAt, lastSlice time.Duration
	s.OnSlice = func(task string, start, end time.Duration) { lastSlice = end }
	s.Go("teardown", func(tk *sim.Task) {
		for !*done {
			tk.Sleep(10 * time.Millisecond)
		}
		tk.Sleep(settle)
		c.Shutdown()
		shutdownAt = tk.Now()
	})
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if shutdownAt == 0 {
		t.Fatal("the scenario never finished")
	}
	if lastSlice > shutdownAt+time.Second {
		t.Fatalf("a task ran at %v, %v after Shutdown", lastSlice, lastSlice-shutdownAt)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("scheduler did not drain after Shutdown: %v", err)
	}
}

// TestFleetTrainOfCanariedHops: a K = 2 fleet walks v1 -> v2 -> v3, each
// hop through its own canary window, promotion and respawn.
func TestFleetTrainOfCanariedHops(t *testing.T) {
	cfg := fleetCfg("r1", "r2")
	cfg.Canary.Window = 40 * time.Millisecond
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	h.client(24, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			if got := h.fc.QueueUpdate(hop("v1", "v2", nil)); got != 0 {
				t.Errorf("first hop queued at %d, want requested at once", got)
			}
			if got := h.fc.QueueUpdate(hop("v2", "v3", nil)); got != 1 {
				t.Errorf("second hop queued at %d, want 1", got)
			}
		},
	})
	shutdownAndDrain(t, h.s, h.fc, &h.done, 100*time.Millisecond)
	if got := strings.Join(versionsSeen(t, h.replies), ","); got != "v1,v2,v3" {
		t.Fatalf("versions seen by the client = %s, want v1,v2,v3 once each\nreplies %v\ntimeline %+v", got, h.replies, h.fc.Timeline())
	}
	if got := h.rec.Counter(obs.CCanaryPromotions); got != 2 {
		t.Fatalf("canary promotions = %d, want 2", got)
	}
	if got := h.rec.Counter(obs.CFleetRespawns); got != 4 {
		t.Fatalf("respawns = %d, want 4 (K after each promotion)", got)
	}
	if h.fc.Stage() != StageSingleLeader || h.fc.QueuedUpdates() != 0 {
		t.Fatalf("ended in %v with %d hop(s) queued", h.fc.Stage(), h.fc.QueuedUpdates())
	}
	if !h.timelineHas("respawned variant r2#3@v3") {
		t.Fatalf("fleet not back at full strength on v3: %+v", h.fc.Timeline())
	}
}

// TestFleetTrainGateRollbackFlushes: hop 1 diverges past its budget;
// only the canary goes, and the hop queued behind it goes with it.
func TestFleetTrainGateRollbackFlushes(t *testing.T) {
	cfg := fleetCfg("r1", "r2")
	cfg.Canary.Window = 200 * time.Millisecond
	cfg.Canary.MaxDivergences = 1
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	h.client(12, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			h.fc.QueueUpdate(hop("v1", "v2", func(n *srv) { n.misformatAfter = 4 }))
			h.fc.QueueUpdate(hop("v2", "v3", nil))
		},
	})
	h.run(t)
	if got := strings.Join(versionsSeen(t, h.replies), ","); got != "v1" {
		t.Fatalf("versions seen = %s (rollback was client-visible): %v", got, h.replies)
	}
	if !h.timelineHas("rolled back: divergence: ") || !h.timelineHas("update train flushed after rollback of v2 (1 queued hop(s) dropped)") {
		t.Fatalf("timeline missing rollback/flush: %+v", h.fc.Timeline())
	}
	if h.fc.Stage() != StageSingleLeader || h.fc.QueuedUpdates() != 0 || h.fc.pending != nil {
		t.Fatalf("ended in %v, %d queued, pending %v", h.fc.Stage(), h.fc.QueuedUpdates(), h.fc.pending)
	}
	if live := strings.Join(h.fc.LiveVariants(), ","); live != "r1#1@v1,r2#1@v1" {
		t.Fatalf("live variants = %q, want the old fleet untouched", live)
	}
	if got := h.rec.Counter(obs.CCoreRollbacks); got != 1 {
		t.Fatalf("canary rollbacks = %d", got)
	}
}

// TestFleetTimingErrorRetriesUntilInstalled is the fleet's
// TestTimingErrorRetriesUntilInstalled: a thread off any update point
// times the attempt out, the controller backs off and retries, and the
// canary is forked once the lock is released.
func TestFleetTimingErrorRetriesUntilInstalled(t *testing.T) {
	cfg := fleetCfg("r1")
	cfg.Canary.Window = 800 * time.Millisecond // outlives the client: the canary stays in its window
	cfg.RetryInterval = 100 * time.Millisecond
	cfg.DSU = dsu.Config{QuiesceTimeout: 50 * time.Millisecond}
	h := newFleetHarness(cfg)
	var lock sim.WaitQueue
	h.fc.Start(&srv{version: "v1", blockedWorker: &lock})
	h.s.Go("lock-releaser", func(tk *sim.Task) {
		tk.Sleep(380 * time.Millisecond)
		for !h.done {
			lock.WakeAll(h.s)
			tk.Sleep(5 * time.Millisecond)
		}
	})
	h.client(60, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.fc.Update(upgrade(nil, nil)) },
	})
	shutdownAndDrain(t, h.s, h.fc, &h.done, 100*time.Millisecond)
	if h.fc.Stage() != StageOutdatedLeader || !h.timelineHas("canary canary#1@v2 forked") {
		t.Fatalf("stage = %v; update never installed (retries=%d)\ntimeline: %+v",
			h.fc.Stage(), h.fc.Retries(), h.fc.Timeline())
	}
	if n := h.fc.Retries(); n == 0 || n > 8 {
		t.Fatalf("retries = %d, want 1..8", n)
	}
	if !h.timelineHas("update v2 timed out; retry 1 of v2 in 100ms") || !h.timelineHas("retry 2 of v2 in 200ms") {
		t.Fatalf("timeline missing the backoff schedule: %+v", h.fc.Timeline())
	}
	if got := h.rec.Counter(obs.CCoreRetries); got != int64(h.fc.Retries()) {
		t.Fatalf("core.retries = %d, Retries() = %d", got, h.fc.Retries())
	}
	versionsSeen(t, h.replies)
}

// TestDuoShutdownFromEveryStage: one Shutdown call, whatever the stage,
// leaves nothing behind.
func TestDuoShutdownFromEveryStage(t *testing.T) {
	for _, want := range []Stage{StageSingleLeader, StageOutdatedLeader, StagePromoting, StageUpdatedLeader} {
		t.Run(want.String(), func(t *testing.T) {
			h := newHarness(Config{WatchdogDeadline: 500 * time.Millisecond})
			h.c.Start(&srv{version: "v1"})
			hooks := map[int]func(*sim.Task){}
			if want != StageSingleLeader {
				hooks[1] = func(*sim.Task) { h.c.Update(upgrade(nil, nil)) }
			}
			if want == StageUpdatedLeader {
				hooks[3] = func(*sim.Task) { h.c.Promote() }
			}
			h.client(6, hooks)
			h.s.Go("stop", func(tk *sim.Task) {
				for !h.done {
					tk.Sleep(10 * time.Millisecond)
				}
				if want == StagePromoting {
					// The leader is parked in read, so the demotion barrier
					// stays armed: Shutdown finds the stage mid-promotion.
					h.c.Promote()
				}
			})
			shutdownAndDrain(t, h.s, h.c, &h.done, 15*time.Millisecond)
			if h.c.Stage() != want {
				t.Fatalf("shut down in %v, want %v: %+v", h.c.Stage(), want, h.c.Timeline())
			}
			if h.c.FollowerRuntime() != nil || h.c.Monitor().Candidate() != nil {
				t.Fatal("follower still attached after Shutdown")
			}
			if h.c.Update(upgrade(nil, nil)) || h.c.QueueUpdate(upgrade(nil, nil)) != -1 {
				t.Fatal("a shut-down controller accepted an update")
			}
		})
	}
}

// crashedReplicaHarness runs a K = 2 fleet whose replica r2 crashes
// validating reply number crashAt, which queues its respawn behind a
// quiescence barrier on the leader.
func crashedReplicaHarness(crashAt int) *fleetHarness {
	cfg := fleetCfg("r1", "r2")
	cfg.Canary.Window = 40 * time.Millisecond
	plan := chaos.NewPlan(&chaos.Injection{
		Proc: "r2#1@v1", Op: sysabi.OpWrite, AfterCalls: crashAt, Kind: chaos.KindCrash,
	})
	cfg.WrapDispatcher = plan.Wrap
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	return h
}

// TestShutdownEndsBarrierWaiters: the replica crashed on the last reply,
// so its respawn barrier waits for a quiescence that never comes; an
// update requested then has to wait for the slot, once per virtual
// millisecond. Shutdown kills the leader, nobody will ever decide the
// barrier — and the waiter must not poll on forever.
func TestShutdownEndsBarrierWaiters(t *testing.T) {
	h := crashedReplicaHarness(4)
	h.client(4, nil)
	h.s.Go("operator", func(tk *sim.Task) {
		for !h.done {
			tk.Sleep(10 * time.Millisecond)
		}
		if !h.timelineHas("r2#1@v1 ejected") {
			t.Errorf("replica never crashed: %+v", h.fc.Timeline())
		}
		if !h.fc.Update(upgrade(nil, nil)) {
			t.Error("Update rejected")
		}
	})
	shutdownAndDrain(t, h.s, h.fc, &h.done, 20*time.Millisecond)
	if h.timelineHas("respawned") || h.timelineHas("forked") {
		t.Fatalf("the barrier was decided after all; the scenario lost its point: %+v", h.fc.Timeline())
	}
}

// TestUpdateWaitsBehindRespawnBarrier: an update requested while a
// respawn barrier holds the leader's attempt slot is taken once the
// respawn is through, not lost.
func TestUpdateWaitsBehindRespawnBarrier(t *testing.T) {
	h := crashedReplicaHarness(2)
	h.client(14, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			if h.fc.LeaderRuntime().RequestBarrier(func(*sim.Task) {}) {
				t.Error("the attempt slot is free; the respawn barrier was not armed")
			}
			if !h.fc.Update(upgrade(nil, nil)) {
				t.Error("Update rejected")
			}
		},
		3: func(tk *sim.Task) {
			if h.fc.Update(upgrade(nil, nil)) {
				t.Error("second Update accepted while the first waits for the slot")
			}
		},
	})
	shutdownAndDrain(t, h.s, h.fc, &h.done, 100*time.Millisecond)
	var notes []string
	for _, ev := range h.fc.Timeline() {
		notes = append(notes, ev.Note)
	}
	all := strings.Join(notes, "\n")
	respawn, fork := strings.Index(all, "respawned variant r2#2@v1"), strings.Index(all, "canary canary#1@v2 forked")
	if respawn < 0 || fork < respawn {
		t.Fatalf("want the respawn, then the fork:\n%s", all)
	}
	if got := strings.Join(versionsSeen(t, h.replies), ","); got != "v1,v2" {
		t.Fatalf("versions seen = %s, want v1,v2: %v\n%s", got, h.replies, all)
	}
	if live := strings.Join(h.fc.LiveVariants(), ","); live != "" {
		t.Fatalf("variants still attached after Shutdown: %s", live)
	}
}
