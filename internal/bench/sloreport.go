package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// The slo experiment measures the paper's headline claim — higher
// availability during dynamic updates — directly, as an availability
// ledger (obs.SLOTracker) over three adversarial scenarios:
//
//   - update-under-load: a long per-entry state transformation runs
//     while the leader keeps serving; the leader only pauses when the
//     busy follower lets the ring buffer fill (FullBlock backpressure),
//     and the ledger attributes that pause to the update.
//   - fault-and-recover: an injected follower stall parks the leader on
//     the full ring until the watchdog's follower-liveness deadline
//     rescues it by rolling the update back; MTTR is the rescue gap.
//   - canary-rollback: a fleet canary stalls mid-window, pins the ring
//     and parks the leader until the canary gate's ring-lag bound rolls
//     it back at window close.
//
// Every run is deterministic virtual time, so BENCH_slo.json is a
// byte-stable artifact `make check` diffs.

// SLOSchemaID is the report format identifier.
const SLOSchemaID = "mvedsua-slo/v1"

// sloSuccessFloor is the per-window success-rate floor sloFloorRows
// judges every closed window against.
const sloSuccessFloor = 0.999

// SLOVerdictRow is one tripped threshold in the run's verdict stream:
// a success-rate floor row, or a violation on the controller's timeline.
type SLOVerdictRow struct {
	AtNS    int64  `json:"at_ns"`
	Scope   string `json:"scope"`
	Subject string `json:"subject"`
	Rule    string `json:"rule"`
	Reason  string `json:"reason"`
}

// SLORunRow is one scenario's availability ledger plus its verdict stream.
type SLORunRow struct {
	Name             string          `json:"name"`
	Description      string          `json:"description"`
	Outcome          string          `json:"outcome"`
	Requests         int64           `json:"requests"`
	VirtualMillis    float64         `json:"virtual_ms"`
	WindowNS         int64           `json:"window_ns"`
	StallThresholdNS int64           `json:"stall_threshold_ns"`
	BudgetP99NS      int64           `json:"budget_p99_ns"`
	Ledger           obs.SLOReport   `json:"ledger"`
	Verdicts         []SLOVerdictRow `json:"verdicts"`
}

// SLOBenchReport is the benchtool's machine-readable SLO artifact
// (BENCH_slo.json).
type SLOBenchReport struct {
	Schema string      `json:"schema"`
	Floor  float64     `json:"success_rate_floor"`
	Runs   []SLORunRow `json:"runs"`
}

// tracked is a scenario whose requests feed an availability ledger
// (obs.SLOTracker) — the shape the slo and train experiments share.
type tracked struct {
	name, desc string
	cfg        core.FleetConfig
	faults     []*chaos.Injection
	// load issues the run's requests through do, steers the lifecycle,
	// and returns the row's outcome line.
	load func(w *apptest.World, do doFunc) string
	// want is the outcome the run declares (scenario.want).
	want apptest.Outcome
}

// doFunc issues one tracked request — a round trip scored against the
// exact reply want — then pauses.
type doFunc func(cmd, want string, pause time.Duration)

// scenario is the run of t: it calls row inside the driver, once the
// load is done, with the run's ledger: the figures must be read before
// teardown mutates the world. The ledger's update activity is the
// controller's timeline, read by updateWindows, and its faults are the
// plan's firings.
func (t tracked) scenario(row func(w *apptest.World, ledger obs.SLOReport, outcome string)) scenario {
	var tr *obs.SLOTracker
	plan := chaos.NewPlan(t.faults...)
	return scenario{
		name: t.name, cfg: t.cfg, plan: plan, want: t.want,
		setup: func(w *apptest.World) { tr = obs.NewSLOTracker(w.Rec) },
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
			outcome := t.load(w, func(cmd, want string, pause time.Duration) {
				start := tk.Now()
				got := c.Do(tk, cmd)
				tr.Request(got == want, tk.Now()-start)
				if pause > 0 { // Sleep(0) still yields: one more dispatch
					tk.Sleep(pause)
				}
			})
			row(w, tr.Report(updateWindows(w.C.Timeline(), w.Rec.Now()), plan.FaultTimes()), outcome)
		},
	}
}

// run executes t's scenario with row and returns its breaches as one
// error.
func (t tracked) run(row func(w *apptest.World, ledger obs.SLOReport, outcome string)) error {
	_, _, breaches := t.scenario(row).run()
	return failed(breaches)
}

// updateWindows reads a controller's timeline as the ledger's update
// activity: a window opens at the first entry whose stage is neither
// single-leader nor aborted (an aborted canary also ends the update)
// and closes at the next entry back in one of those. A run that ends
// mid-update closes its window at end.
func updateWindows(timeline []core.Event, end time.Duration) []obs.UpdateWindow {
	var out []obs.UpdateWindow
	open := false
	for _, ev := range timeline {
		busy := ev.Stage != core.StageSingleLeader && ev.Stage != core.StageAborted
		if busy && !open {
			out = append(out, obs.UpdateWindow{Start: ev.At, End: end})
		} else if !busy && open {
			out[len(out)-1].End = ev.At
		}
		open = busy
	}
	return out
}

// sloFloorRows is the success-rate floor, judged at report time over a
// ledger taken at virtual time end: every window (obs.SLOWindow wide)
// closed between tracker start and end whose success rate is below
// sloSuccessFloor yields a row stamped at the window's end. A window no
// request completed in scores 0 — a dark window is the floor violation,
// not a skipped sample. The still-open window end falls in is not
// judged.
func sloFloorRows(l obs.SLOReport, end time.Duration) []SLOVerdictRow {
	var rows []SLOVerdictRow
	tl := l.Timeline // ascending, every window at or after the start's
	for w := int64((end - time.Duration(l.SpanNS)) / obs.SLOWindow); w < int64(end/obs.SLOWindow); w++ {
		rate := 0.0
		if len(tl) > 0 && tl[0].Window == w {
			rate = tl[0].SuccessRate
			tl = tl[1:]
		}
		if rate < sloSuccessFloor {
			rows = append(rows, SLOVerdictRow{
				AtNS:    int64(time.Duration(w+1) * obs.SLOWindow),
				Scope:   "slo",
				Subject: fmt.Sprintf("window[%d]", w),
				Rule:    "success-rate-floor",
				Reason:  fmt.Sprintf("success rate %.4f below floor %.4f", rate, sloSuccessFloor),
			})
		}
	}
	return rows
}

// sloVerdicts merges the floor rows (scope "slo") with the violations
// on the controller's timeline (scope "core") into one stream ordered by
// virtual time (ties broken by scope then subject).
func sloVerdicts(rows []SLOVerdictRow, timeline []core.Event) []SLOVerdictRow {
	for _, ev := range timeline {
		if ev.Kind != core.KindViolation {
			continue
		}
		rows = append(rows, SLOVerdictRow{
			AtNS:    int64(ev.At),
			Scope:   "core",
			Subject: ev.Subject,
			Rule:    ev.Rule,
			Reason:  ev.Note,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].AtNS != rows[j].AtNS {
			return rows[i].AtNS < rows[j].AtNS
		}
		if rows[i].Scope != rows[j].Scope {
			return rows[i].Scope < rows[j].Scope
		}
		return rows[i].Subject < rows[j].Subject
	})
	return rows
}

// sloScenarios lists the availability scenarios. A row's verdict stream
// is the success-rate floor's rows plus the controller's violations (the
// watchdog's or the canary gate's, where one is armed).
func sloScenarios() []tracked {
	update := func(w *apptest.World, opts kvstore.UpdateOpts) {
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", opts))
	}
	canary := fleetConfig(2)
	canary.Canary.MaxLag = 64
	canary.BufferEntries = 128
	return []tracked{
		{
			// A staged update whose state transformation is long enough to
			// fill the ring: the leader serves in parallel with the
			// transformation (MVEDSUA's core win) until FullBlock
			// backpressure parks it, and the resulting gap is attributed to
			// the update via the controller's timeline.
			name: "update-under-load",
			want: apptest.Outcome{Leader: "2.0.1", Counters: tally(1, 0)},
			desc: "staged update with a 150us-per-entry state transformation under closed-loop load",
			cfg:  duo(core.Config{BufferEntries: 64, Costs: MVECosts(ModeVaran2)}),
			load: func(w *apptest.World, do doFunc) string {
				// Seed the table so the per-entry transformation has real work.
				for i := 0; i < 150; i++ {
					do(fmt.Sprintf("SET k%03d v", i), "+OK\r\n", 100*time.Microsecond)
				}
				promoted, committed := false, false
				for i := 0; i < 400; i++ {
					switch {
					case i == 50:
						update(w, kvstore.UpdateOpts{PerEntryXform: 150 * time.Microsecond})
					case i >= 300 && !promoted && w.C.Stage() == core.StageOutdatedLeader:
						promoted = w.C.Promote()
					case i >= 360 && !committed && w.C.Stage() == core.StageUpdatedLeader:
						committed = w.C.Commit()
					}
					do("INCR load", fmt.Sprintf(":%d\r\n", i+1), 200*time.Microsecond)
				}
				return fmt.Sprintf("stage=%s leader=%s", w.C.Stage(), w.C.LeaderRuntime().App().Version())
			},
		},
		{
			// MTTR through an injected follower stall mid-update: the leader
			// parks on the full ring until the watchdog's follower-liveness
			// deadline trips and the controller rolls the update back.
			// The chaos fault milestone attributes the gap.
			name: "fault-and-recover",
			want: apptest.Outcome{Leader: "2.0.0", Verdicts: candidateRollbacks("stall"),
				Violations: []string{"follower-liveness"}, Counters: tally(0, 1)},
			desc:   "injected follower stall mid-update; watchdog health rule rolls back and frees the leader",
			cfg:    duo(core.Config{BufferEntries: 16, WatchdogDeadline: 30 * time.Millisecond, Costs: MVECosts(ModeVaran2)}),
			faults: []*chaos.Injection{{Role: "follower", Op: sysabi.OpWrite, AfterCalls: 40, Kind: chaos.KindStall}},
			load: func(w *apptest.World, do doFunc) string {
				for i := 0; i < 400; i++ {
					if i == 40 {
						update(w, kvstore.UpdateOpts{})
					}
					do("INCR load", fmt.Sprintf(":%d\r\n", i+1), 200*time.Microsecond)
				}
				return fmt.Sprintf("stage=%s leader=%s", w.C.Stage(), w.C.LeaderRuntime().App().Version())
			},
		},
		{
			// A fleet canary failure: the canary stalls mid-window, pins the
			// shared ring until backpressure parks the leader, and the
			// canary gate's ring-lag bound rolls it back at window close.
			name:   "canary-rollback",
			want:   apptest.Outcome{Leader: "2.0.0", Fleet: 2, Violations: []string{"ring-lag"}, Counters: tally(0, 1)},
			desc:   "fleet canary stalls mid-window; the gate's ring-lag rule rolls it back at window close",
			cfg:    canary,
			faults: []*chaos.Injection{{Proc: "canary#1@2.0.1", Op: sysabi.OpWrite, AfterCalls: 8, Kind: chaos.KindStall}},
			load: func(w *apptest.World, do doFunc) string {
				for i := 0; i < 600; i++ {
					if i == 30 {
						update(w, kvstore.UpdateOpts{})
					}
					do("INCR load", fmt.Sprintf(":%d\r\n", i+1), 300*time.Microsecond)
				}
				return fmt.Sprintf("stage=%s leader=%s rollbacks=%d",
					w.C.Stage(), w.C.LeaderRuntime().App().Version(), w.Rec.Counter(obs.CCoreRollbacks))
			},
		},
	}
}

// RunSLOReport executes every availability scenario and assembles the
// report.
func RunSLOReport() (SLOBenchReport, error) {
	report := SLOBenchReport{Schema: SLOSchemaID, Floor: sloSuccessFloor}
	for _, sc := range sloScenarios() {
		row := SLORunRow{Name: sc.name, Description: sc.desc}
		err := sc.run(func(w *apptest.World, ledger obs.SLOReport, outcome string) {
			row.Outcome = outcome
			row.Requests = ledger.Requests
			row.VirtualMillis = float64(w.Rec.Now()) / float64(time.Millisecond)
			row.WindowNS = int64(obs.SLOWindow)
			row.StallThresholdNS = int64(obs.SLOStallThreshold)
			row.BudgetP99NS = int64(obs.SLOLatencyBudgetP99)
			row.Ledger = ledger
			row.Verdicts = sloVerdicts(sloFloorRows(row.Ledger, w.Rec.Now()), w.C.Timeline())
		})
		if err != nil {
			return report, fmt.Errorf("slo %s: %w", row.Name, err)
		}
		report.Runs = append(report.Runs, row)
	}
	return report, nil
}

// FormatSLOReport renders the report for the terminal.
func FormatSLOReport(report SLOBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Availability ledger (%s)\n", report.Schema)
	for _, row := range report.Runs {
		l := row.Ledger
		fmt.Fprintf(&b, "\n  %s — %s\n", row.Name, row.Description)
		fmt.Fprintf(&b, "    outcome:      %s\n", row.Outcome)
		fmt.Fprintf(&b, "    availability: %.3f%% over %.1fms (%d requests, %d failed)\n",
			l.AvailabilityPct, row.VirtualMillis, l.Requests, l.Failed)
		fmt.Fprintf(&b, "    downtime:     %v total, longest pause %v, MTTR %v\n",
			time.Duration(l.DowntimeNS), time.Duration(l.LongestPauseNS), time.Duration(l.MTTRNS))
		if l.FaultRecoveryNS > 0 {
			fmt.Fprintf(&b, "    fault recovery: %v (injected fault -> next success)\n",
				time.Duration(l.FaultRecoveryNS))
		}
		fmt.Fprintf(&b, "    budget burn:  %.1f%% of %d windows over p99 budget %v\n",
			l.BudgetBurnPct, l.WindowsTotal, time.Duration(row.BudgetP99NS))
		for _, dw := range l.Downtime {
			fmt.Fprintf(&b, "      pause %8v at %v  cause=%s\n",
				time.Duration(dw.DurationNS), time.Duration(dw.StartNS), dw.Cause)
		}
		for _, v := range row.Verdicts {
			fmt.Fprintf(&b, "      verdict [%s] %s: %s\n", v.Scope, v.Subject, v.Reason)
		}
	}
	return b.String()
}
