package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// The metrics experiment exercises the flight recorder (internal/obs)
// end-to-end: a set of short, fully deterministic update scenarios on
// the kvstore, each chosen to light up a different region of the metric
// vocabulary — the clean lifecycle, a watchdog stall with retry, a
// divergence rollback, blocking backpressure on a tiny ring buffer, and
// the discard-follower policy. ValidateMetricsReport holds the report
// to obs's metric vocabulary: every name a run exports is one of
// obs.CounterNames, GaugeNames or HistogramNames, and between them the
// runs light up every name of metricsRequired.

// MetricsSchemaID is the report format identifier.
const MetricsSchemaID = "mvedsua-metrics/v1"

// MetricsRun is one observed scenario's flight-recorder export.
type MetricsRun struct {
	Name           string       `json:"name"`
	Target         string       `json:"target"`
	Outcome        string       `json:"outcome"` // final stage + leader version
	VirtualSeconds float64      `json:"virtual_seconds"`
	Metrics        obs.Snapshot `json:"metrics"`
	Timeline       []string     `json:"timeline"` // milestone events
}

// MetricsReport is the benchtool's machine-readable flight-recorder
// artifact (BENCH_metrics.json). All content is derived from virtual
// time and seeded inputs, so the report is bit-identical across runs.
type MetricsReport struct {
	Schema string       `json:"schema"`
	Runs   []MetricsRun `json:"runs"`
}

// RunMetricsReport executes every observed scenario with the flight
// recorder attached and exports each run's registry and milestone
// timeline.
func RunMetricsReport() (MetricsReport, error) {
	report := MetricsReport{Schema: MetricsSchemaID}
	for _, sc := range metricsScenarios() {
		w, _, breaches := sc.run()
		if err := failed(breaches); err != nil {
			return report, fmt.Errorf("metrics %s: %w", sc.name, err)
		}
		run := MetricsRun{
			Name:           sc.name,
			Target:         "Redis",
			Outcome:        fmt.Sprintf("%v leader=%s", w.Final().Stage, w.Final().Leader),
			VirtualSeconds: w.S.Now().Seconds(),
			Metrics:        w.Rec.Snapshot(),
		}
		for _, e := range w.Rec.Milestones() {
			run.Timeline = append(run.Timeline, e.String())
		}
		report.Runs = append(report.Runs, run)
	}
	return report, nil
}

// metricsRequired are the names of the obs vocabulary that some metrics
// scenario must export. The rest record only where no scenario here
// goes: fleet mode, span mode, lazy transformation, the SLO tracker.
var metricsRequired = struct{ counters, gauges, histograms []string }{
	counters: []string{
		obs.CSyscallsSingle, obs.CSyscallsLeader, obs.CSyscallsFollower,
		obs.CRingPut, obs.CRingGet, obs.CRingBlocked, obs.CRingDropped, obs.CRingResets,
		obs.CMVERecorded, obs.CMVEReplayed, obs.CMVEPromotions, obs.CMVEStalls, obs.CMVEDivergences,
		obs.CRuleHits,
		obs.CCoreTransitions, obs.CCoreUpdates, obs.CCoreCommits, obs.CCoreRollbacks, obs.CCoreRetries,
		obs.CChaosFired,
	},
	gauges:     []string{obs.GRingOccupancy, obs.GRingHighWater},
	histograms: []string{obs.HSyscallSingle, obs.HSyscallLeader, obs.HRingBlockWait},
}

// metricsScenarios lists the observed runs. Each driver issues client
// traffic and steers the lifecycle.
func metricsScenarios() []scenario {
	update := func(w *apptest.World) {
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
	}
	return []scenario{
		{
			// The Figure 6 story: update, validate, promote, commit.
			name: "lifecycle",
			want: apptest.Outcome{Leader: "2.0.1", Counters: tally(1, 0)},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				lifecycle(w.C, func(n int) { incr(tk, c, n) })
			},
		},
		{
			// §6.2's timing-error shape: a silent follower hang caught by
			// the liveness watchdog, rolled back, and retried to success.
			name: "stall-watchdog-retry",
			want: apptest.Outcome{Leader: "2.0.1", Verdicts: candidateRollbacks("stall"),
				Violations: []string{"follower-liveness"}, Retries: 1, Counters: tally(1, 1)},
			cfg: duo(core.Config{
				WatchdogDeadline: 50 * time.Millisecond,
				RetryOnRollback:  true,
				RetryInterval:    100 * time.Millisecond,
				MaxRetries:       3,
			}),
			faults: []*chaos.Injection{{Role: "follower", AfterCalls: 3, Kind: chaos.KindStall}},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				update(w)
				for i := 0; i < 60; i++ {
					incr(tk, c, 1)
					if w.C.Retries() > 0 && w.C.Stage() == core.StageOutdatedLeader {
						break
					}
				}
				promoteIfInstalled(w.C, func(n int) { incr(tk, c, n) })
			},
		},
		{
			// An injected syscall error desynchronizes the follower; the
			// monitor reports the divergence and the controller rolls back.
			name: "divergence-rollback",
			want: apptest.Outcome{Leader: "2.0.0", Verdicts: candidateRollbacks("divergence"), Counters: tally(0, 1)},
			faults: []*chaos.Injection{{
				Role: "follower", Op: sysabi.OpWrite, AfterCalls: 2,
				Kind: chaos.KindErrno, Errno: sysabi.EPIPE,
			}},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				update(w)
				incr(tk, c, 10)
			},
		},
		{
			// A slow follower against an 8-entry buffer with the blocking
			// policy: the leader parks on the full ring (Figure 7's pause)
			// and the block-wait histogram records how long.
			name: "backpressure-block",
			want: apptest.Outcome{Leader: "2.0.1", Counters: tally(1, 0)},
			cfg:  duo(core.Config{BufferEntries: 8}),
			faults: []*chaos.Injection{{
				Role: "follower", AfterCalls: 2,
				Kind: chaos.KindDelay, Delay: 50 * time.Millisecond,
			}},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				update(w)
				for i := 0; i < 20; i++ {
					c.Do(tk, "INCR counter")
					tk.Sleep(time.Millisecond)
				}
				promoteIfInstalled(w.C, func(n int) { incr(tk, c, n) })
			},
		},
		{
			// The same hang under the discard policy: the leader never
			// blocks, drops events past the lagging follower, and the
			// buffer-full stall sacrifices the follower instead.
			name: "discard-follower",
			want: apptest.Outcome{Leader: "2.0.0", Verdicts: candidateRollbacks("stall"), Counters: tally(0, 1)},
			cfg: duo(core.Config{
				BufferEntries:    8,
				BufferFullPolicy: mve.FullDiscard,
			}),
			faults: []*chaos.Injection{{Role: "follower", AfterCalls: 2, Kind: chaos.KindStall}},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				update(w)
				incr(tk, c, 15)
			},
		},
	}
}

// ValidateMetricsReport checks a report against obs's vocabulary: the
// schema id must match, every name of metricsRequired must appear in at
// least one run, and no run may emit a name outside obs.CounterNames,
// GaugeNames or HistogramNames (so a metric renamed on one side only
// fails in both directions).
func ValidateMetricsReport(data []byte) error {
	var report MetricsReport
	if err := json.Unmarshal(data, &report); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if report.Schema != MetricsSchemaID {
		return fmt.Errorf("schema id %q, want %q", report.Schema, MetricsSchemaID)
	}
	if len(report.Runs) == 0 {
		return fmt.Errorf("report has no runs")
	}
	emitted := func(pick func(obs.Snapshot) []string) map[string]bool {
		set := map[string]bool{}
		for _, run := range report.Runs {
			for _, k := range pick(run.Metrics) {
				set[k] = true
			}
		}
		return set
	}
	check := func(class string, got map[string]bool, required, vocabulary []string) error {
		for _, k := range required {
			if !got[k] {
				return fmt.Errorf("%s %q required but absent from every run", class, k)
			}
		}
		known := map[string]bool{}
		for _, k := range vocabulary {
			known[k] = true
		}
		var unknown []string
		for k := range got { // maporder: ok — unknown is sorted before it is reported
			if !known[k] {
				unknown = append(unknown, k)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return fmt.Errorf("%s %v not in the obs vocabulary (rename? see internal/obs/names.go)", class, unknown)
		}
		return nil
	}
	if err := check("counter", emitted(func(s obs.Snapshot) []string { return mapKeys(s.Counters) }),
		metricsRequired.counters, obs.CounterNames); err != nil {
		return err
	}
	if err := check("gauge", emitted(func(s obs.Snapshot) []string { return mapKeys(s.Gauges) }),
		metricsRequired.gauges, obs.GaugeNames); err != nil {
		return err
	}
	return check("histogram", emitted(func(s obs.Snapshot) []string {
		keys := make([]string, 0, len(s.Histograms))
		for k := range s.Histograms { // maporder: ok — the caller folds keys into a set
			keys = append(keys, k)
		}
		return keys
	}), metricsRequired.histograms, obs.HistogramNames)
}

func mapKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // maporder: ok — callers fold keys into a set or sort them
		keys = append(keys, k)
	}
	return keys
}

// FormatMetricsReport renders the report for the terminal.
func FormatMetricsReport(report MetricsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flight-recorder metrics (%s)\n", report.Schema)
	for _, run := range report.Runs {
		fmt.Fprintf(&b, "\n  %s (%s, %.2fs virtual) -> %s\n", run.Name, run.Target, run.VirtualSeconds, run.Outcome)
		keys := mapKeys(run.Metrics.Counters)
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "    %-32s %8d\n", k, run.Metrics.Counters[k])
		}
		for _, line := range run.Timeline {
			b.WriteString("    " + line + "\n")
		}
	}
	return b.String()
}
