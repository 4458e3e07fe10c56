package bench

import (
	"strconv"
	"strings"
	"testing"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/sim"
)

// TestTrainSweepLazyBoundedEagerGrows is the tentpole's acceptance
// check: across a 10x keyspace spread the eager update pause (and the
// p99 it lands in) grows linearly, while the lazy p99 stays within 2x
// of its smallest-keyspace value.
func TestTrainSweepLazyBoundedEagerGrows(t *testing.T) {
	if testing.Short() {
		t.Skip("full train scenarios in -short mode")
	}
	report := decodeFresh[TrainBenchReport](t, "train")
	if report.Schema != TrainSchemaID {
		t.Fatalf("schema = %q", report.Schema)
	}
	cell := map[string]TrainSweepRow{}
	for _, r := range report.Sweep {
		cell[r.Mode+":"+strconv.Itoa(r.Keyspace)] = r
	}
	eSmall, eBig := cell["eager:400"], cell["eager:4000"]
	lSmall, lBig := cell["lazy:400"], cell["lazy:4000"]
	if eSmall.Keyspace == 0 || lBig.Keyspace == 0 {
		t.Fatalf("sweep missing cells: %+v", report.Sweep)
	}

	// Eager: one pause proportional to the keyspace, charged to the
	// update and visible in the tail.
	if eBig.P99NS < 5*eSmall.P99NS {
		t.Errorf("eager p99 did not grow with keyspace: 400 -> %d ns, 4000 -> %d ns",
			eSmall.P99NS, eBig.P99NS)
	}
	if eBig.DowntimeNS == 0 {
		t.Error("eager 4000: pause long enough to be downtime, ledger shows none")
	}
	if eBig.UpdateDowntimeNS != eBig.DowntimeNS {
		t.Errorf("eager 4000: downtime %d ns but only %d ns attributed to the update",
			eBig.DowntimeNS, eBig.UpdateDowntimeNS)
	}

	// Lazy: p99 bounded within 2x across the 10x spread, no downtime.
	if lBig.P99NS > 2*lSmall.P99NS {
		t.Errorf("lazy p99 not bounded: 400 -> %d ns, 4000 -> %d ns (> 2x)",
			lSmall.P99NS, lBig.P99NS)
	}
	if lBig.DowntimeNS != 0 || lSmall.DowntimeNS != 0 {
		t.Errorf("lazy downtime should be zero, got 400 -> %d ns, 4000 -> %d ns",
			lSmall.DowntimeNS, lBig.DowntimeNS)
	}
	// And the work really happened: touched + swept covers the keyspace.
	if lBig.TouchedEntries == 0 || lBig.SweptEntries == 0 {
		t.Errorf("lazy 4000: touched=%d swept=%d, want both non-zero",
			lBig.TouchedEntries, lBig.SweptEntries)
	}
	if got := lBig.TouchedEntries + lBig.SweptEntries; got != 4000 {
		t.Errorf("lazy 4000: touched+swept = %d, want 4000", got)
	}
}

// TestTrainRunsOutcomes checks each controller scenario reaches the
// state it narrates: the chain drains to 2.1.0, the rollback pins the
// last committed hop and flushes the rest, and update-during-update
// queues rather than drops.
func TestTrainRunsOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("full train scenarios in -short mode")
	}
	report := decodeFresh[TrainBenchReport](t, "train")
	byName := map[string]TrainRunRow{}
	for _, run := range report.Runs {
		byName[run.Name] = run
		if run.Ledger.Requests == 0 {
			t.Errorf("%s: no tracked requests", run.Name)
		}
	}

	chain := byName["train-chain"]
	if !strings.Contains(chain.Outcome, "leader=2.1.0") ||
		!strings.Contains(chain.Outcome, "queued=0") ||
		!strings.Contains(chain.Outcome, "positions=[0 1 2 3]") {
		t.Errorf("train-chain outcome = %q", chain.Outcome)
	}

	rb := byName["train-rollback"]
	if !strings.Contains(rb.Outcome, "leader=2.0.1") || !strings.Contains(rb.Outcome, "queued=0") {
		t.Errorf("train-rollback outcome = %q", rb.Outcome)
	}
	flushed := false
	for _, ev := range rb.Events {
		flushed = flushed || ev.Note == "update train flushed after rollback of 2.0.2 (1 queued hop(s) dropped)"
	}
	if !flushed {
		t.Errorf("train-rollback: no flush event in %+v", rb.Events)
	}

	udu := byName["update-during-update"]
	if !strings.Contains(udu.Outcome, "leader=2.0.2") ||
		!strings.Contains(udu.Outcome, "second_rejected=true") ||
		!strings.Contains(udu.Outcome, "second_queued_at=1") {
		t.Errorf("update-during-update outcome = %q", udu.Outcome)
	}
}

// TestTrainRowsKeepImplicitCommits: a hop that §3.2's old-version error
// rule commits — the demoted 2.0.0 crashes in updated-leader — is a
// commit row like the operator's, right before the next hop's request.
func TestTrainRowsKeepImplicitCommits(t *testing.T) {
	crash := &chaos.Injection{Role: "leader", Kind: chaos.KindCrash}
	w, _, breaches := scenario{
		cfg:    duo(core.Config{}),
		faults: []*chaos.Injection{crash},
		want:   apptest.Outcome{Leader: "2.0.2", Verdicts: candidateRollbacks("crash"), Counters: tally(2, 0)},
		setup: func(w *apptest.World) {
			crash.When = func() bool { return w.C.Stage() == core.StageUpdatedLeader }
		},
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
			w.C.QueueUpdate(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
			w.C.QueueUpdate(kvstore.Update("2.0.1", "2.0.2", kvstore.UpdateOpts{}))
			lingered := 0
			for i := 0; i < 60; i++ {
				trainStep(w.C, &lingered)
				incr(tk, c, 1)
			}
		},
	}.run()
	if breaches != nil {
		t.Fatal(breaches)
	}
	var notes []string
	for _, ev := range trainEvents(w.C.Timeline()) {
		notes = append(notes, ev.Note)
	}
	got := strings.Join(notes, "\n")
	if want := "outdated follower crashed; committed\ntrain: requesting 2.0.2 (0 more queued)"; !strings.Contains(got, want) {
		t.Fatalf("train rows:\n%s\nwant the implicit commit before the next hop:\n%s", got, want)
	}
}
