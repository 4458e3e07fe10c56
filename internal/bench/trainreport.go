package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// The train experiment measures update trains and lazy state
// transformation:
//
//   - keyspace sweep: an in-place (Kitsune-style) update under
//     closed-loop load, eager vs lazy, across a 10x keyspace spread.
//     Eager pays the whole per-entry transformation as one service
//     pause that grows linearly with the store; lazy installs in O(1)
//     and migrates entries on first touch (billed to the touching
//     request) plus a bounded background sweep, so its p99 stays flat.
//   - train-chain: four lazy hops 2.0.0 -> 2.1.0 queued up front on the
//     duo controller, drained FIFO under sustained traffic.
//   - train-rollback: a mid-chain divergence rolls the failing hop back
//     and flushes the queued remainder (later hops assume earlier hops'
//     state shape, so skipping is never safe).
//   - update-during-update: a second update arriving while one is in
//     flight queues instead of being dropped, and both commit.
//
// Every run is deterministic virtual time, so BENCH_train.json is a
// byte-stable artifact `make check` diffs.

// TrainSchemaID is the report format identifier.
const TrainSchemaID = "mvedsua-train/v1"

// trainKeyspaces is the sweep's store sizes: a 10x spread so linear
// eager growth is unmistakable.
var trainKeyspaces = []int{400, 1200, 4000}

// TrainSweepRow is one (keyspace, mode) cell of the eager-vs-lazy
// sweep.
type TrainSweepRow struct {
	Keyspace         int     `json:"keyspace"`
	Mode             string  `json:"mode"` // "eager" | "lazy"
	Requests         int64   `json:"requests"`
	P99NS            int64   `json:"p99_ns"`
	MaxNS            int64   `json:"max_ns"`
	DowntimeNS       int64   `json:"downtime_ns"`
	LongestPauseNS   int64   `json:"longest_pause_ns"`
	UpdateDowntimeNS int64   `json:"update_downtime_ns"`
	InstallPauseNS   int64   `json:"install_pause_ns"`
	TouchedEntries   int64   `json:"touched_entries"`
	SweptEntries     int64   `json:"swept_entries"`
	DrainMillis      float64 `json:"drain_ms"`
}

// TrainEventRow is one train-relevant controller timeline note.
type TrainEventRow struct {
	AtNS int64  `json:"at_ns"`
	Note string `json:"note"`
}

// TrainRunRow is one controller scenario: its availability ledger plus
// the train-relevant timeline notes.
type TrainRunRow struct {
	Name          string          `json:"name"`
	Description   string          `json:"description"`
	Outcome       string          `json:"outcome"`
	Requests      int64           `json:"requests"`
	VirtualMillis float64         `json:"virtual_ms"`
	Ledger        obs.SLOReport   `json:"ledger"`
	Events        []TrainEventRow `json:"events"`
}

// TrainBenchReport is the benchtool's machine-readable train artifact
// (BENCH_train.json).
type TrainBenchReport struct {
	Schema          string          `json:"schema"`
	PerEntryXformNS int64           `json:"per_entry_xform_ns"`
	LazyInstallNS   int64           `json:"lazy_install_ns"`
	StallThreshNS   int64           `json:"stall_threshold_ns"`
	Sweep           []TrainSweepRow `json:"sweep"`
	Runs            []TrainRunRow   `json:"runs"`
}

// trainSweepOne runs one in-place update under load and reports the
// client-observed latency tail plus the ledger's verdict on it. The
// measurement is 80 tracked requests (p99 rank = max below 100
// samples, so the single eager pause lands in the p99, exactly the
// figure the sweep is after).
func trainSweepOne(keyspace int, lazy bool) (TrainSweepRow, error) {
	mode := "eager"
	if lazy {
		mode = "lazy"
	}
	row := TrainSweepRow{Keyspace: keyspace, Mode: mode}

	s := sim.New()
	k := vos.NewKernel(s)
	k.BaseCost = KernelCost
	rec := obs.New(s.Now, obs.Options{})
	tr := obs.NewSLOTracker(rec)

	srv := redis()
	srv.Preload(keyspace)
	// A bare runtime has no controller: its update record, requested to
	// decided (which encloses the state transformation), is the ledger's
	// update activity.
	var updates []obs.UpdateWindow
	rt := dsu.NewRuntime(s, srv, dsu.Config{Name: "kitsune", Dispatcher: k, Rec: rec,
		OnOutcome: func(r dsu.UpdateRecord) {
			updates = append(updates, obs.UpdateWindow{Start: r.RequestedAt, End: r.DecidedAt})
		}})
	rt.Start()

	s.Go("driver", func(tk *sim.Task) {
		c := apptest.Connect(k, tk, kvstore.Port)
		var lats []time.Duration
		for i := 0; i < 80; i++ {
			if i == 10 {
				rt.RequestUpdate(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{Lazy: lazy}))
			}
			idx := (i * 37) % keyspace
			cmd := fmt.Sprintf("GET key:%08d", idx)
			want := fmt.Sprintf("$12\r\nval:%08d\r\n", idx)
			start := tk.Now()
			got := c.Do(tk, cmd)
			d := tk.Now() - start
			lats = append(lats, d)
			tr.Request(got == want, d)
			tk.Sleep(100 * time.Microsecond)
		}
		// Snapshot the ledger before waiting out the cold-tail drain, so
		// the drain wait is not misread as a request gap.
		ledger := tr.Report(updates, nil)
		row.Requests = ledger.Requests
		row.DowntimeNS = ledger.DowntimeNS
		row.LongestPauseNS = ledger.LongestPauseNS
		for _, dw := range ledger.Downtime {
			if dw.Cause == "update" {
				row.UpdateDowntimeNS += dw.DurationNS
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rank := int(float64(len(lats))*0.99+0.999) - 1
		if rank < 0 {
			rank = 0
		}
		row.P99NS = int64(lats[rank])
		row.MaxNS = int64(lats[len(lats)-1])
		// Wait for the background sweep to drain the cold tail.
		drainFrom := tk.Now()
		for i := 0; lazy && i < 100000; i++ {
			if srv := rt.App().(*kvstore.Server); srv.PendingLazy() == 0 {
				break
			}
			tk.Sleep(time.Millisecond)
		}
		row.DrainMillis = float64(tk.Now()-drainFrom) / float64(time.Millisecond)
		if h := rec.Hist(obs.HDSUXform); h != nil {
			row.InstallPauseNS = int64(h.Sum)
		}
		row.TouchedEntries = rec.Counter(obs.CDSUXformTouched)
		row.SweptEntries = rec.Counter(obs.CDSUXformSwept)
		c.Close(tk)
		rt.KillAll()
	})
	if err := s.Run(); err != nil {
		return row, err
	}
	return row, nil
}

// trainEvents filters a controller timeline down to the train-relevant
// entries (queueing, arming, flushing, commits, rollbacks).
func trainEvents(timeline []core.Event) []TrainEventRow {
	var out []TrainEventRow
	for _, ev := range timeline {
		switch ev.Kind {
		case core.KindTrain, core.KindCommit, core.KindRollback:
			out = append(out, TrainEventRow{AtNS: int64(ev.At), Note: ev.Note})
		}
	}
	return out
}

// trainStep advances the controller's lifecycle one notch when it has
// lingered in a stage long enough for validation traffic to accumulate.
func trainStep(c *core.Controller, lingered *int) {
	switch c.Stage() {
	case core.StageOutdatedLeader:
		*lingered++
		if *lingered >= 8 {
			c.Promote()
			*lingered = 0
		}
	case core.StageUpdatedLeader:
		*lingered++
		if *lingered >= 8 {
			c.Commit()
			*lingered = 0
		}
	default:
		*lingered = 0
	}
}

// trainScenarios lists the controller scenarios; RunTrainReport runs
// each on the same 128-entry-ring duo.
func trainScenarios() []tracked {
	const pause = 500 * time.Microsecond
	hop := func(from, to string, opts kvstore.UpdateOpts) *dsu.Version {
		opts.PerEntryXform = time.Microsecond
		return kvstore.Update(from, to, opts)
	}
	outcome := func(c *core.Controller) string {
		return fmt.Sprintf("stage=%s leader=%s queued=%d", c.Stage(), c.LeaderRuntime().App().Version(), c.QueuedUpdates())
	}
	return []tracked{
		{
			// The whole lineage 2.0.0 -> 2.1.0 queued up front and drained
			// hop by hop under sustained traffic, every hop lazy.
			name: "train-chain",
			want: apptest.Outcome{Leader: "2.1.0", Counters: tally(4, 0)},
			desc: "four lazy hops 2.0.0 -> 2.1.0 queued up front, drained FIFO under load",
			load: func(w *apptest.World, do doFunc) string {
				for i := 0; i < 40; i++ {
					do(fmt.Sprintf("SET cold:%02d v", i), "+OK\r\n", 100*time.Microsecond)
				}
				var positions []int
				for i := 0; i+1 < len(kvstore.Versions); i++ {
					v := hop(kvstore.Versions[i], kvstore.Versions[i+1], kvstore.UpdateOpts{Lazy: true})
					positions = append(positions, w.C.QueueUpdate(v))
				}
				lingered := 0
				for i := 0; i < 600; i++ {
					trainStep(w.C, &lingered)
					do("INCR load", fmt.Sprintf(":%d\r\n", i+1), pause)
				}
				return fmt.Sprintf("%s positions=%v", outcome(w.C), positions)
			},
		},
		{
			// Three hops queued; the middle one forgets to copy the table
			// (the 2.4 bug), diverges on the first GET, rolls back and takes
			// the queued remainder with it — the last committed version
			// keeps leading.
			name: "train-rollback",
			want: apptest.Outcome{Leader: "2.0.1", Verdicts: candidateRollbacks("divergence"), Counters: tally(1, 1)},
			desc: "mid-chain divergence rolls the hop back and flushes the queued remainder",
			load: func(w *apptest.World, do doFunc) string {
				do("SET balance 1000", "+OK\r\n", 0)
				var positions []int
				for _, v := range []*dsu.Version{
					hop("2.0.0", "2.0.1", kvstore.UpdateOpts{Lazy: true}),
					hop("2.0.1", "2.0.2", kvstore.UpdateOpts{ForgetTable: true}),
					hop("2.0.2", "2.0.3", kvstore.UpdateOpts{}),
				} {
					positions = append(positions, w.C.QueueUpdate(v))
				}
				lingered := 0
				for i := 0; i < 400; i++ {
					trainStep(w.C, &lingered)
					if i%4 == 3 {
						// The probe that exposes the forgotten table copy.
						do("GET balance", "$4\r\n1000\r\n", pause)
					} else {
						do("INCR load", fmt.Sprintf(":%d\r\n", i+1-(i+1)/4), pause)
					}
				}
				return fmt.Sprintf("%s positions=%v", outcome(w.C), positions)
			},
		},
		{
			// A second update requested while the first is mid-flight: the
			// plain request is rejected, the queued one waits its turn, and
			// both end up committed.
			name: "update-during-update",
			want: apptest.Outcome{Leader: "2.0.2", Counters: tally(2, 0)},
			desc: "a second update mid-flight queues instead of being dropped; both commit",
			load: func(w *apptest.World, do doFunc) string {
				rejected, queuedAt := false, -1
				lingered := 0
				for i := 0; i < 400; i++ {
					switch i {
					case 20:
						w.C.Update(hop("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
					case 24:
						v := hop("2.0.1", "2.0.2", kvstore.UpdateOpts{Lazy: true})
						rejected = !w.C.Update(v)
						queuedAt = w.C.QueueUpdate(v)
					default:
						trainStep(w.C, &lingered)
					}
					do("INCR load", fmt.Sprintf(":%d\r\n", i+1), pause)
				}
				return fmt.Sprintf("%s second_rejected=%v second_queued_at=%d", outcome(w.C), rejected, queuedAt)
			},
		},
	}
}

// RunTrainReport executes the sweep and every train scenario and
// assembles the report.
func RunTrainReport() (TrainBenchReport, error) {
	report := TrainBenchReport{
		Schema:          TrainSchemaID,
		PerEntryXformNS: int64(kvstore.DefaultPerEntryXform),
		LazyInstallNS:   int64(kvstore.LazyInstallCost),
		StallThreshNS:   int64(obs.SLOStallThreshold),
	}
	for _, n := range trainKeyspaces {
		for _, lazy := range []bool{false, true} {
			row, err := trainSweepOne(n, lazy)
			if err != nil {
				return report, fmt.Errorf("train sweep %d/%s: %w", n, row.Mode, err)
			}
			report.Sweep = append(report.Sweep, row)
		}
	}
	for _, sc := range trainScenarios() {
		sc.cfg = duo(core.Config{BufferEntries: 128, Costs: MVECosts(ModeVaran2)})
		row := TrainRunRow{Name: sc.name, Description: sc.desc}
		err := sc.run(func(w *apptest.World, ledger obs.SLOReport, outcome string) {
			row.Outcome = outcome
			row.Requests = ledger.Requests
			row.VirtualMillis = float64(w.Rec.Now()) / float64(time.Millisecond)
			row.Ledger = ledger
			row.Events = trainEvents(w.C.Timeline())
		})
		if err != nil {
			return report, fmt.Errorf("train %s: %w", row.Name, err)
		}
		report.Runs = append(report.Runs, row)
	}
	return report, nil
}

// FormatTrainReport renders the report for the terminal.
func FormatTrainReport(report TrainBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Update trains and lazy state transformation (%s)\n", report.Schema)
	fmt.Fprintf(&b, "  per-entry xform %v, lazy install %v, stall threshold %v\n",
		time.Duration(report.PerEntryXformNS), time.Duration(report.LazyInstallNS),
		time.Duration(report.StallThreshNS))
	fmt.Fprintf(&b, "\n  %-9s %-6s %12s %12s %12s %9s %7s %8s\n",
		"keyspace", "mode", "p99", "update-pause", "downtime", "touched", "swept", "drain")
	for _, r := range report.Sweep {
		fmt.Fprintf(&b, "  %-9d %-6s %12v %12v %12v %9d %7d %7.1fms\n",
			r.Keyspace, r.Mode, time.Duration(r.P99NS), time.Duration(r.InstallPauseNS),
			time.Duration(r.DowntimeNS), r.TouchedEntries, r.SweptEntries, r.DrainMillis)
	}
	for _, row := range report.Runs {
		l := row.Ledger
		fmt.Fprintf(&b, "\n  %s — %s\n", row.Name, row.Description)
		fmt.Fprintf(&b, "    outcome:      %s\n", row.Outcome)
		fmt.Fprintf(&b, "    availability: %.3f%% over %.1fms (%d requests, %d failed)\n",
			l.AvailabilityPct, row.VirtualMillis, l.Requests, l.Failed)
		fmt.Fprintf(&b, "    downtime:     %v total, longest pause %v\n",
			time.Duration(l.DowntimeNS), time.Duration(l.LongestPauseNS))
		for _, ev := range row.Events {
			fmt.Fprintf(&b, "      [%10.6fs] %s\n", time.Duration(ev.AtNS).Seconds(), ev.Note)
		}
	}
	return b.String()
}
