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
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// The timeline experiment exercises the causal span layer end-to-end:
// fully traced update scenarios with every client request tagged, so
// each request's end-to-end latency decomposes into leader service
// time, ring-buffer queueing, and follower validation lag. The report
// (BENCH_timeline.json) carries the per-component quantiles; the
// Chrome trace_event export of the recovery run is the Perfetto-ready
// artifact (per-task run slices, controller stage spans, the DSU state
// transfer, and fault/divergence/stall instants).

// TimelineSchemaID is the timeline report's format identifier.
const TimelineSchemaID = "mvedsua-timeline/v1"

// LatencyComponent summarizes one latency histogram of the request
// decomposition.
type LatencyComponent struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// TimelineRun is one traced scenario's request-latency attribution.
type TimelineRun struct {
	Name           string                      `json:"name"`
	Outcome        string                      `json:"outcome"`
	VirtualSeconds float64                     `json:"virtual_seconds"`
	Requests       int64                       `json:"requests"`
	Components     map[string]LatencyComponent `json:"components"`
	Spans          int                         `json:"spans"`
	SpansDropped   int64                       `json:"spans_dropped"`
}

// TimelineReport is benchtool's span-tracing artifact
// (BENCH_timeline.json). Everything derives from virtual time, so the
// report is bit-identical across runs.
type TimelineReport struct {
	Schema string        `json:"schema"`
	Runs   []TimelineRun `json:"runs"`
	// ChromeTrace is the Chrome trace_event export (Perfetto-loadable) of
	// the last (chaos-recovery) run; `benchtool -perfetto` writes it. No
	// artifact commits it.
	ChromeTrace []byte `json:"-"`
}

// timelineScenarios lists the runs RunTimelineReport traces: every
// client request tagged, counting up from 1.
func timelineScenarios() []scenario {
	// tagged returns the run's traffic source: n tagged INCRs 10ms apart.
	tagged := func(tk *sim.Task, c *apptest.Client) func(n int) {
		next := uint64(1)
		return func(n int) {
			for i := 0; i < n; i++ {
				c.DoTagged(tk, next, "INCR counter")
				next++
				tk.Sleep(10 * time.Millisecond)
			}
		}
	}
	afterRetry := &chaos.Injection{
		Role: "follower", Op: sysabi.OpWrite, AfterCalls: 2,
		Kind: chaos.KindErrno, Errno: sysabi.EPIPE,
	}
	return []scenario{
		{
			// The clean Figure 6 lifecycle with every request tagged:
			// single-leader, duo validation, promotion, commit. The
			// request histograms cover all three decomposition
			// components.
			name: "lifecycle",
			want: apptest.Outcome{Leader: "2.0.1", Counters: tally(1, 0)},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				lifecycle(w.C, tagged(tk, c))
			},
		},
		{
			// Recovery under faults: a silent follower stall caught by
			// the watchdog (rollback + retry), then an injected write
			// error in the retried duo (divergence + second rollback +
			// retry), ending in a successful promotion. This is the run
			// whose Chrome trace export carries the fault, stall and
			// divergence instants.
			name: "chaos-recovery",
			want: apptest.Outcome{Leader: "2.0.1", Verdicts: candidateRollbacks("stall", "divergence"),
				Violations: []string{"follower-liveness"}, Retries: 2, Counters: tally(1, 2)},
			cfg: duo(core.Config{
				WatchdogDeadline: 50 * time.Millisecond,
				RetryOnRollback:  true,
				RetryInterval:    100 * time.Millisecond,
				MaxRetries:       3,
			}),
			faults: []*chaos.Injection{
				{Role: "follower", AfterCalls: 3, Kind: chaos.KindStall},
				afterRetry,
			},
			setup: func(w *apptest.World) {
				afterRetry.When = func() bool { return w.C.Retries() > 0 }
			},
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				traffic := tagged(tk, c)
				w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
				for i := 0; i < 120; i++ {
					traffic(1)
					if w.C.Retries() >= 2 && w.C.Stage() == core.StageOutdatedLeader {
						break
					}
				}
				promoteIfInstalled(w.C, traffic)
			},
		},
	}
}

// RunTimelineReport executes every timeline scenario with span tracing
// on and summarizes each run's request decomposition.
func RunTimelineReport() (TimelineReport, error) {
	report := TimelineReport{Schema: TimelineSchemaID}
	for _, sc := range timelineScenarios() {
		w, _, breaches := sc.with((*apptest.World).EnableSpanTracing).run()
		if err := failed(breaches); err != nil {
			return report, fmt.Errorf("timeline %s: %w", sc.name, err)
		}
		run := TimelineRun{
			Name:           sc.name,
			Outcome:        fmt.Sprintf("%v leader=%s", w.Final().Stage, w.Final().Leader),
			VirtualSeconds: w.S.Now().Seconds(),
			Requests:       w.Rec.Counter(obs.CReqTracked),
			Components:     map[string]LatencyComponent{},
			Spans:          len(w.Rec.Spans()),
			SpansDropped:   w.Rec.SpansDropped(),
		}
		for _, name := range []string{obs.HReqService, obs.HReqRingWait, obs.HReqValidateLag} {
			h := w.Rec.Hist(name)
			if h == nil {
				run.Components[name] = LatencyComponent{}
				continue
			}
			run.Components[name] = LatencyComponent{
				Count:  h.Count,
				MeanNS: int64(h.Mean()),
				P50NS:  int64(h.Quantile(0.50)),
				P95NS:  int64(h.Quantile(0.95)),
				P99NS:  int64(h.Quantile(0.99)),
				MaxNS:  int64(h.Max),
			}
		}
		report.Runs = append(report.Runs, run)
		var err error
		if report.ChromeTrace, err = w.Rec.ExportChromeTrace(); err != nil {
			return report, fmt.Errorf("timeline %s: %w", sc.name, err)
		}
	}
	return report, nil
}

// ValidateChromeTrace checks that data is a well-formed Chrome
// trace_event export: valid JSON, non-empty, timestamps non-decreasing
// within every (pid, tid) track, and every flow arc properly paired —
// a flow-start ("s") without a finish ("f") of the same id and
// category, or vice versa, renders as a dangling arrow in Perfetto and
// is rejected here.
func ValidateChromeTrace(data []byte) error {
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Cat  string  `json:"cat"`
			ID   string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if len(trace.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace: no events")
	}
	last := map[[2]int]float64{}
	starts := map[string]int{}
	finishes := map[string]int{}
	for i, ev := range trace.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		key := [2]int{ev.Pid, ev.Tid}
		if prev, ok := last[key]; ok && ev.Ts < prev {
			return fmt.Errorf("chrome trace: event %d (%s) out of order on tid %d: ts %.3f after %.3f",
				i, ev.Name, ev.Tid, ev.Ts, prev)
		}
		last[key] = ev.Ts
		switch ev.Ph {
		case "s":
			starts[ev.Cat+"/"+ev.ID]++
		case "f":
			finishes[ev.Cat+"/"+ev.ID]++
		}
	}
	for id, n := range starts { // maporder: ok — error content, not ordered output
		if finishes[id] != n {
			return fmt.Errorf("chrome trace: flow %s has %d start(s) but %d finish(es)", id, n, finishes[id])
		}
	}
	for id, n := range finishes { // maporder: ok — error content, not ordered output
		if starts[id] != n {
			return fmt.Errorf("chrome trace: flow %s has %d finish(es) but %d start(s)", id, n, starts[id])
		}
	}
	return nil
}

// FormatTimelineReport renders the report for the terminal.
func FormatTimelineReport(report TimelineReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-request latency attribution (%s)\n", report.Schema)
	for _, run := range report.Runs {
		fmt.Fprintf(&b, "\n  %s (%.2fs virtual, %d tagged requests, %d spans) -> %s\n",
			run.Name, run.VirtualSeconds, run.Requests, run.Spans, run.Outcome)
		keys := make([]string, 0, len(run.Components))
		for k := range run.Components { // maporder: ok — keys are sorted below
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := run.Components[k]
			fmt.Fprintf(&b, "    %-24s n=%-5d mean=%-10v p50=%-10v p95=%-10v p99=%-10v max=%v\n",
				k, c.Count, time.Duration(c.MeanNS), time.Duration(c.P50NS),
				time.Duration(c.P95NS), time.Duration(c.P99NS), time.Duration(c.MaxNS))
		}
	}
	return b.String()
}
