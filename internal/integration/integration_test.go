// Package integration exercises cross-cutting scenarios that span the
// whole stack — controller, monitor, DSU runtimes, rules, apps, and the
// virtual OS — beyond what the per-package suites cover. Every test ends
// in the judge (apptest.World.Judge): the run's final state against the
// outcome it declares, and every reply its clients read against a twin
// that was never updated.
package integration

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// pump keeps traffic flowing for the given number of rounds.
func pump(tk *sim.Task, c *apptest.Client, rounds int) { traffic(tk, c, "INCR pump", rounds) }

// traffic issues cmd rounds times, 10ms apart.
func traffic(tk *sim.Task, c *apptest.Client, cmd string, rounds int) {
	for i := 0; i < rounds; i++ {
		c.Do(tk, cmd)
		tk.Sleep(10 * time.Millisecond)
	}
}

// update is the 2.0.0 -> 2.0.1 update the tests install.
func update(opts kvstore.UpdateOpts) *dsu.Version {
	opts.PerEntryXform = time.Microsecond
	return kvstore.Update("2.0.0", "2.0.1", opts)
}

// committed is the outcome of a run whose last update committed 2.0.1,
// after rollbacks rolled-back attempts.
func committed(rollbacks int64) apptest.Outcome {
	return apptest.Outcome{Leader: "2.0.1", Counters: map[string]int64{obs.CCoreRollbacks: rollbacks, obs.CCoreCommits: 1}}
}

// judged deploys Redis 2.0.0 on w, drives it over a client the world
// records, and returns the judge's breaches against want.
func judged(t *testing.T, w *apptest.World, want apptest.Outcome, drive func(tk *sim.Task, c *apptest.Client)) []apptest.Breach {
	t.Helper()
	w.Start(kvstore.New(kvstore.SpecFor("2.0.0", false)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := w.Connect(tk, kvstore.Port)
		defer c.Close(tk)
		drive(tk, c)
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w.Judge(want)
}

// judge fails t with every breach the judge finds.
func judge(t *testing.T, w *apptest.World, want apptest.Outcome, drive func(tk *sim.Task, c *apptest.Client)) {
	t.Helper()
	for _, b := range judged(t, w, want, drive) {
		t.Error(b)
	}
}

// stage reports a stage other than want at a step of the story.
func stage(t *testing.T, w *apptest.World, step string, want core.Stage) {
	t.Helper()
	if got := w.C.Stage(); got != want {
		t.Errorf("%s: stage %v, want %v; %v", step, got, want, w.C.Monitor().Divergences())
	}
}

// TestFailedUpdateThenFixedUpdate: a broken update rolls back; the fixed
// respin of the same update then succeeds and commits — the paper's
// "deterministic failures can be retried once the update is fixed".
func TestFailedUpdateThenFixedUpdate(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	judge(t, w, committed(1), func(tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET k v")
		w.C.Update(update(kvstore.UpdateOpts{BreakXform: true}))
		pump(tk, c, 4)
		stage(t, w, "after the broken update", core.StageSingleLeader)
		w.C.Update(update(kvstore.UpdateOpts{}))
		pump(tk, c, 4)
		stage(t, w, "after the fixed update", core.StageOutdatedLeader)
		w.C.Promote()
		pump(tk, c, 4)
		w.C.Commit()
		c.Do(tk, "GET k")
	})
}

// TestConnectionChurnDuringValidation: clients connect, work, and
// disconnect while the follower validates; accepts and closes replay
// correctly on the follower, and every churned key survives the commit.
func TestConnectionChurnDuringValidation(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	judge(t, w, committed(0), func(tk *sim.Task, main *apptest.Client) {
		main.Do(tk, "SET stable yes")
		w.C.Update(update(kvstore.UpdateOpts{}))
		pump(tk, main, 3)
		stage(t, w, "before the churn", core.StageOutdatedLeader)
		for i := 0; i < 6; i++ {
			c := w.Connect(tk, kvstore.Port)
			c.Do(tk, fmt.Sprintf("SET churn%d x", i))
			c.Close(tk)
			tk.Sleep(10 * time.Millisecond)
		}
		pump(tk, main, 2)
		w.C.Promote()
		pump(tk, main, 3)
		w.C.Commit()
		for i := 0; i < 6; i++ {
			main.Do(tk, fmt.Sprintf("GET churn%d", i))
		}
	})
}

// TestTinyBufferBackpressure: with a 4-entry ring the leader repeatedly
// blocks on the full buffer, yet validation stays correct and the update
// completes.
func TestTinyBufferBackpressure(t *testing.T) {
	w := apptest.NewWorld(core.Config{BufferEntries: 4})
	judge(t, w, committed(0), func(tk *sim.Task, c *apptest.Client) {
		w.C.Update(update(kvstore.UpdateOpts{}))
		pump(tk, c, 10)
		stage(t, w, "under backpressure", core.StageOutdatedLeader)
		if hw := w.C.Monitor().Buffer().HighWater; hw < 4 {
			t.Errorf("high water = %d, tiny buffer never filled", hw)
		}
		w.C.Promote()
		pump(tk, c, 6)
		stage(t, w, "after promote", core.StageUpdatedLeader)
		w.C.Commit()
	})
}

// TestRollbackDuringPromoting: a divergence that fires after the
// promotion was requested (but before the hand-off) still rolls back
// cleanly to the old single leader, with the data intact.
func TestRollbackDuringPromoting(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	want := apptest.Outcome{Leader: "2.0.0", Counters: map[string]int64{obs.CCoreRollbacks: 1},
		Verdicts: []apptest.Verdict{{Cause: "divergence", Action: mve.VerdictRollbackCandidate}}}
	judge(t, w, want, func(tk *sim.Task, c *apptest.Client) {
		// ForgetTable: the follower's store is empty, so the first GET
		// after the fork diverges.
		c.Do(tk, "SET precious data")
		w.C.Update(update(kvstore.UpdateOpts{ForgetTable: true}))
		traffic(tk, c, "PING", 3)
		stage(t, w, "before promote", core.StageOutdatedLeader)
		// Request promotion, then at once trigger the latent divergence
		// with a GET: the barrier and the divergence race.
		w.C.Promote()
		c.Do(tk, "GET precious")
		tk.Sleep(100 * time.Millisecond)
		c.Do(tk, "GET precious")
	})
}

// TestVerdictsSurviveACallersHook: a caller that observes verdicts
// through C.OnVerdict after Start takes nothing from the Final state the
// judge reads: the diverging update's verdict is in both.
func TestVerdictsSurviveACallersHook(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	want := apptest.Outcome{Leader: "2.0.0", Counters: map[string]int64{obs.CCoreRollbacks: 1},
		Verdicts: []apptest.Verdict{{Cause: "divergence", Action: mve.VerdictRollbackCandidate}}}
	var hooked []mve.Verdict
	judge(t, w, want, func(tk *sim.Task, c *apptest.Client) {
		w.C.OnVerdict = func(v mve.Verdict) { hooked = append(hooked, v) }
		c.Do(tk, "SET precious data")
		w.C.Update(update(kvstore.UpdateOpts{ForgetTable: true}))
		traffic(tk, c, "GET precious", 3)
	})
	if !reflect.DeepEqual(hooked, w.Final().Verdicts) {
		t.Errorf("the caller's hook saw %v, the Final state holds %v", hooked, w.Final().Verdicts)
	}
}

// TestForgottenTableEscapesMVE documents a bug MVE cannot catch, like
// tkv's TestUninitializedTypeBugEscapesMVE: 2.0.1's transformation loses
// the store, and the promotion completes before any request reads it.
// The first GET then runs on the new leader, and the demoted 2.0.0
// follower diverges from it. §3.2 reads a divergence after promotion as
// an old-version error and commits, so the client gets the new version's
// wrong replies. Only the twin sees it: two expected breaches.
func TestForgottenTableEscapesMVE(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	want := committed(0)
	want.Verdicts = []apptest.Verdict{{Cause: "divergence", Action: mve.VerdictRollbackCandidate}}
	breaches := judged(t, w, want, func(tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET precious data")
		w.C.Update(update(kvstore.UpdateOpts{ForgetTable: true}))
		traffic(tk, c, "PING", 3)
		w.C.Promote()
		traffic(tk, c, "PING", 3)
		stage(t, w, "before the first GET", core.StageUpdatedLeader)
		c.Do(tk, "GET precious")
		c.Do(tk, "DBSIZE")
	})
	steps := w.Transcript()
	var got []string
	for _, b := range breaches {
		if b.Exchange < 0 {
			t.Fatal(b)
		}
		got = append(got, steps[b.Exchange].Sent+" -> "+steps[b.Exchange].Reply)
	}
	if lost := []string{"GET precious\r\n -> $-1\r\n", "DBSIZE\r\n -> :0\r\n"}; !reflect.DeepEqual(got, lost) {
		t.Errorf("breaches %q, want the lost key's two replies %q", got, lost)
	}
}

// TestDeterministicLifecycle: the same scenario run twice produces
// identical transcripts, controller timelines and recorder milestones.
func TestDeterministicLifecycle(t *testing.T) {
	run := func() *apptest.World {
		w := apptest.NewWorld(core.Config{})
		judge(t, w, committed(0), func(tk *sim.Task, c *apptest.Client) {
			c.Do(tk, "SET a 1")
			w.C.Update(update(kvstore.UpdateOpts{}))
			pump(tk, c, 4)
			w.C.Promote()
			pump(tk, c, 4)
			w.C.Commit()
		})
		return w
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Transcript(), b.Transcript()) {
		t.Errorf("transcripts differ:\n%+v\n%+v", a.Transcript(), b.Transcript())
	}
	if ta, tb := a.C.Timeline(), b.C.Timeline(); !reflect.DeepEqual(ta, tb) {
		t.Errorf("lifecycles differ:\n%v\n%v", ta, tb)
	}
	if ta, tb := a.Rec.FormatTimeline(), b.Rec.FormatTimeline(); ta != tb {
		t.Errorf("milestones differ:\n%s\n%s", ta, tb)
	}
}

// TestPipelinedTrafficAcrossUpdate: commands batched into single writes
// (multiple per read on the server) survive the whole lifecycle.
func TestPipelinedTrafficAcrossUpdate(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	judge(t, w, committed(0), func(tk *sim.Task, c *apptest.Client) {
		w.C.Update(update(kvstore.UpdateOpts{}))
		for i := 0; i < 6; i++ {
			c.Send(tk, fmt.Sprintf("SET p%d a\r\nINCR q\r\nGET p%d\r\n", i, i))
			c.RecvUntil(tk, "$1\r\na\r\n")
			tk.Sleep(10 * time.Millisecond)
		}
		stage(t, w, "after the batches", core.StageOutdatedLeader)
		w.C.Promote()
		traffic(tk, c, "PING", 3)
		w.C.Commit()
		c.Do(tk, "INCR q")
	})
}

// TestBackToBackUpdatesWithRollbacks: rolling an update back and
// installing it again reuses the monitor cleanly.
func TestBackToBackUpdatesWithRollbacks(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	judge(t, w, committed(3), func(tk *sim.Task, c *apptest.Client) {
		for round := 0; round < 3; round++ {
			if !w.C.Update(update(kvstore.UpdateOpts{})) {
				t.Errorf("round %d: update rejected", round)
			}
			pump(tk, c, 3)
			stage(t, w, fmt.Sprintf("round %d", round), core.StageOutdatedLeader)
			if !w.C.Rollback("operator aborted round") {
				t.Errorf("round %d: rollback rejected", round)
			}
			pump(tk, c, 2)
			stage(t, w, fmt.Sprintf("round %d after rollback", round), core.StageSingleLeader)
		}
		// The final attempt goes all the way.
		w.C.Update(update(kvstore.UpdateOpts{}))
		pump(tk, c, 3)
		w.C.Promote()
		pump(tk, c, 3)
		w.C.Commit()
	})
}

// TestStateRelationHeldAcrossLifecycle drives writes through every stage
// and reads every key back at the end: nothing is lost or duplicated —
// the Figure 3 commuting-square property observed end-to-end.
func TestStateRelationHeldAcrossLifecycle(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	judge(t, w, committed(0), func(tk *sim.Task, c *apptest.Client) {
		var keys []string
		set := func(stage string, n int) {
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("%s-%d", stage, i)
				c.Do(tk, "SET "+k+" "+stage)
				keys = append(keys, k)
				tk.Sleep(5 * time.Millisecond)
			}
		}
		set("pre", 3)
		w.C.Update(update(kvstore.UpdateOpts{}))
		set("during", 5)
		w.C.Promote()
		set("post", 5)
		w.C.Commit()
		set("final", 3)
		for _, k := range keys {
			c.Do(tk, "GET "+k)
		}
		c.Do(tk, "DBSIZE")
	})
}
