package bench

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// TestScenarioRunBindsThePlan: a Role-only injection on a duo and a
// Proc-only injection on a fleet both fire through scenario.run, and the
// plan reports into the world's recorder.
func TestScenarioRunBindsThePlan(t *testing.T) {
	for _, sc := range []scenario{
		{
			name:   "role-only",
			want:   apptest.Outcome{Leader: "2.0.0", Verdicts: candidateRollbacks("divergence"), Counters: tally(0, 1)},
			faults: []*chaos.Injection{{Role: "follower", Op: sysabi.OpWrite, AfterCalls: 2, Kind: chaos.KindErrno, Errno: sysabi.EPIPE}},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
				incr(tk, c, 6)
			},
		},
		{
			name: "proc-only",
			cfg:  fleetConfig(2),
			want: apptest.Outcome{Leader: "2.0.0", Fleet: 2, Counters: tally(0, 0),
				Verdicts: []apptest.Verdict{{Cause: "crash", Action: mve.VerdictEject}}},
			faults: []*chaos.Injection{{Proc: "r2#1@2.0.0", Op: sysabi.OpWrite, AfterCalls: 3, Kind: chaos.KindCrash}},
			drive:  func(w *apptest.World, tk *sim.Task, c *apptest.Client) { incr(tk, c, 6) },
		},
	} {
		w, plan, breaches := sc.run()
		if breaches != nil {
			t.Fatalf("%s: %v", sc.name, breaches)
		}
		if plan.Fired() != 1 {
			t.Errorf("%s: firings %+v; want the one injection", sc.name, plan.Firings)
		}
		if plan.Rec != w.Rec || w.Rec.Counter(obs.CChaosFired) != 1 {
			t.Errorf("%s: plan.Rec is not the world's recorder (chaos.fired = %d)", sc.name, w.Rec.Counter(obs.CChaosFired))
		}
	}
}

// TestScenarioRunOrder pins the runner's sequence: setup sees the built
// world before the server starts, so a When gate bound there reads the
// live controller; when drive returns the client is closed and the world
// finished; and a fleet world — not a duo — waits out the settle delay
// before tearing down.
func TestScenarioRunOrder(t *testing.T) {
	gated := &chaos.Injection{Role: "follower", Kind: chaos.KindDelay, Delay: time.Millisecond}
	var startedAtSetup bool
	var updatedAt, doneAt time.Duration
	var client *apptest.Client
	sc := scenario{
		faults: []*chaos.Injection{gated},
		want:   apptest.Outcome{Stage: core.StageOutdatedLeader, Leader: "2.0.0", Fleet: 1},
		setup: func(w *apptest.World) {
			startedAtSetup = w.C.LeaderRuntime() != nil
			gated.When = func() bool { return w.C.Stage() == core.StageOutdatedLeader }
		},
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
			client = c
			incr(tk, c, 2)
			updatedAt = tk.Now()
			w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
			incr(tk, c, 4)
			doneAt = tk.Now()
		},
	}
	w, plan, breaches := sc.run()
	if breaches != nil {
		t.Fatal(breaches)
	}
	if startedAtSetup {
		t.Error("setup ran after the server started")
	}
	var faults []time.Duration
	for _, e := range w.Rec.Milestones() {
		if e.Kind == obs.KindFault {
			faults = append(faults, e.At)
		}
	}
	if plan.Fired() != 1 || len(faults) != 1 || faults[0] < updatedAt {
		t.Errorf("When gate bound in setup did not hold the fault until the update (faults at %v, update at %v)", faults, updatedAt)
	}
	var again sysabi.Result
	w.S.Go("probe", func(tk *sim.Task) {
		again = w.K.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: client.FD()})
	})
	if err := w.S.Run(); err != nil {
		t.Fatal(err)
	}
	if again.Err != sysabi.EBADF {
		t.Errorf("closing the driver's client again: %v, want EBADF (the runner closes it)", again.Err)
	}
	const settle = 100 * time.Millisecond
	if tail := w.S.Now() - doneAt; tail >= settle {
		t.Errorf("duo world waited %v after the driver; only fleets settle", tail)
	}

	sc = scenario{cfg: fleetConfig(1), want: apptest.Outcome{Leader: "2.0.0", Fleet: 1},
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
			incr(tk, c, 2)
			doneAt = tk.Now()
		}}
	if w, _, breaches = sc.run(); breaches != nil {
		t.Fatal(breaches)
	}
	if tail := w.S.Now() - doneAt; tail < settle {
		t.Errorf("fleet world tore down %v after the driver, want >= the %v settle delay", tail, settle)
	}
}

// TestScenarioRunReturnsSchedulerError: a task left blocked forever
// deadlocks the drained scheduler, and run hands the error back as the
// run's one breach.
func TestScenarioRunReturnsSchedulerError(t *testing.T) {
	_, _, breaches := scenario{
		setup: func(w *apptest.World) {
			w.S.Go("stuck", func(tk *sim.Task) {
				var q sim.WaitQueue
				tk.Block(&q)
			})
		},
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) { incr(tk, c, 1) },
	}.run()
	if len(breaches) != 1 || !strings.HasPrefix(breaches[0].Detail, "scheduler: sim: deadlock") {
		t.Fatalf("breaches = %v, want the scheduler's deadlock alone", breaches)
	}
}

// TestRuleHitsDoNotFloodTheLifecycle: 4 200 INCRs validated in the
// outdated-leader stage of kvstore 2.0.0 -> 2.0.1 each fire the pair's
// rule. Every hit is counted, but only the first is a milestone, so the
// milestone list keeps its last entry, the old leader's ejection at the
// commit; one milestone per hit would fill it and drop the end of the
// story. The controller's timeline, which holds no rule hits, ends in
// the commit itself.
func TestRuleHitsDoNotFloodTheLifecycle(t *testing.T) {
	const requests = 4200
	w, _, breaches := scenario{want: apptest.Outcome{Leader: "2.0.1", Counters: tally(1, 0)},
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
			w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
			for i := 0; i < requests; i++ {
				c.Do(tk, "INCR counter")
			}
			w.C.Promote()
			incr(tk, c, 5)
			w.C.Commit()
		}}.run()
	if breaches != nil {
		t.Fatal(breaches)
	}
	if hits := w.Rec.Counter(obs.CRuleHits); hits < requests {
		t.Errorf("%s = %d, want every one of the %d rewritten requests counted", obs.CRuleHits, hits, requests)
	}
	ms := w.Rec.Milestones()
	ruleHits := map[string]int{}
	for _, e := range ms {
		if e.Kind == obs.KindRuleHit {
			ruleHits[e.Actor]++
		}
	}
	if last := ms[len(ms)-1]; w.Rec.TraceDropped() != 0 || last.Kind != obs.KindRole || !strings.HasPrefix(last.Detail, "ejected (update committed)") {
		t.Fatalf("%d milestones dropped; the last, %v, is not the commit's ejection:\n%.2000s", w.Rec.TraceDropped(), last, w.Rec.FormatTimeline())
	}
	tl := w.C.Timeline()
	if last := tl[len(tl)-1]; last.Kind != core.KindCommit {
		t.Fatalf("the controller's timeline ends in %v, not the commit", last)
	}
	for actor, n := range ruleHits { // maporder: ok — each entry is checked alone
		if n != 1 {
			t.Errorf("%s has %d rule.hit milestones, want its first hit only", actor, n)
		}
	}
	if len(ruleHits) != 2 {
		t.Errorf("rule.hit milestones from %v, want the follower's forward and the demoted leader's reverse rule", ruleHits)
	}
}

// TestBaselinesCostWhatTheControllerCosts is the differential behind
// keeping bench.world's hand-wired Varan modes: they are the baseline
// the controller's overhead is measured against, so they must not be
// built by the controller — but today a steady-state cell under the bare
// monitor completes, op for op, what the same target completes under
// core.New (zero check cost) or a K=1 core.NewFleet. The day the
// controller adds virtual cost over a bare monitor, this names it.
func TestBaselinesCostWhatTheControllerCosts(t *testing.T) {
	const warmup, window = 10 * time.Millisecond, 50 * time.Millisecond
	ops := func(w *world) int64 {
		m := NewMetrics(0)
		var n int64
		err := w.load(m, func(_ *world, tk *sim.Task) error {
			tk.Sleep(warmup)
			m.Reset(tk.Now())
			tk.Sleep(window)
			n = m.Ops
			return nil
		})
		if err != nil {
			t.Fatalf("%s/%v: %v", w.target.Name, w.mode, err)
		}
		return n
	}
	underController := func(target Target, mode Mode) *world {
		s := sim.New()
		k := vos.NewKernel(s)
		k.BaseCost = KernelCost
		cfg := core.Config{BufferEntries: 256, Costs: MVECosts(mode), DSU: target.DSU}
		ctl := core.New(k, cfg)
		if mode != ModeVaran1 {
			ctl = core.NewFleet(k, core.FleetConfig{Config: cfg, Variants: []string{"follower"}, Canary: core.CanaryGate{Window: time.Second}})
		}
		ctl.Monitor().Lockstep = mode == ModeLockstep
		ctl.Start(target.MakeApp())
		return &world{s: s, k: k, target: target, mode: mode, ctl: ctl}
	}
	for _, target := range []Target{RedisTarget(), MemcachedTarget()} {
		for _, mode := range []Mode{ModeVaran1, ModeVaran2, ModeLockstep} {
			bare := ops(buildOn(sim.New(), target, mode, 256, nil))
			ctl := ops(underController(target, mode))
			if bare == 0 || bare != ctl {
				t.Errorf("%s/%v: %d ops under the bare monitor, %d under the controller", target.Name, mode, bare, ctl)
			} else {
				t.Logf("%s/%v: %d ops either way", target.Name, mode, bare)
			}
		}
	}
}
