package bench

import (
	"fmt"
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

// The nvariant experiment exercises the N-variant fleet (core.NewFleet)
// end-to-end on the kvstore target: steady-state overhead as the fleet
// grows, quorum verdicts under single- and multi-variant failures,
// canary-staged updates with gate-driven promotion and rollback, a
// canaried train, and canary-phase chaos. Every scenario runs in
// deterministic virtual time, so BENCH_nvariant.json is a byte-stable
// artifact `make check` can diff.

// NVariantSchemaID is the report format identifier.
const NVariantSchemaID = "mvedsua-nvariant/v1"

// NVariantOverheadRow measures steady-state validation with K replica
// variants attached (leader + K cursors over one recorded stream).
type NVariantOverheadRow struct {
	K              int     `json:"k"`
	Requests       int     `json:"requests"`
	VirtualMillis  float64 `json:"virtual_ms"`
	ThroughputRPS  float64 `json:"req_per_sec"`
	ReplayedEvents int64   `json:"replayed_events"`
	ProducerBlocks int64   `json:"producer_blocks"`
}

// NVariantScenarioRow is one fault/lifecycle scenario's outcome.
type NVariantScenarioRow struct {
	Name             string   `json:"name"`
	K                int      `json:"k"`
	Injected         []string `json:"injected"` // chaos faults that fired
	Verdicts         []string `json:"verdicts"` // quorum verdicts, in order
	Ejects           int64    `json:"ejects"`
	Respawns         int64    `json:"respawns"`
	CanaryRollbacks  int64    `json:"canary_rollbacks"`
	CanaryPromotions int64    `json:"canary_promotions"`
	ClientFailures   int      `json:"client_failures"` // replies that differ from the twin's
	FinalStage       string   `json:"final_stage"`
	LeaderVersion    string   `json:"leader_version"`
	FleetSize        int      `json:"final_fleet_size"`
	// Tolerated: the judge found no breach — every fault fired, the
	// scenario ended in its declared outcome, and no client-visible
	// failure.
	Tolerated bool `json:"tolerated"`
}

// NVariantReport is the benchtool's machine-readable N-variant artifact
// (BENCH_nvariant.json).
type NVariantReport struct {
	Schema    string                `json:"schema"`
	Overhead  []NVariantOverheadRow `json:"overhead"`
	Scenarios []NVariantScenarioRow `json:"scenarios"`
}

const nvariantStageAt = 5

// fleetConfig is the K-replica fleet the fleet experiments share: slots
// r1..rK (chaos injections target the derived proc names, e.g.
// "r2#1@2.0.0", "canary#1@2.0.1"), the Varan-2 cost model, and a canary
// window comfortably shorter than the scenarios' client sessions so
// promotion decisions land mid-run.
func fleetConfig(k int) core.FleetConfig {
	cfg := core.FleetConfig{Canary: core.CanaryGate{Window: 150 * time.Millisecond, MaxDivergences: 2}}
	for i := 1; i <= k; i++ {
		cfg.Variants = append(cfg.Variants, fmt.Sprintf("r%d", i))
	}
	cfg.Costs = MVECosts(ModeVaran2)
	return cfg
}

// session is a fleet scenario's client: requests INCRs 10ms apart, with
// stage, if set, run before request nvariantStageAt. Trailing verdicts
// and respawns land in the fleet world's settle delay, before teardown
// takes the final state.
func session(requests int, stage func(c *core.Controller)) func(*apptest.World, *sim.Task, *apptest.Client) {
	return func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		for i := 0; i < requests; i++ {
			if i == nvariantStageAt && stage != nil {
				stage(w.C)
			}
			c.Do(tk, "INCR nv")
			tk.Sleep(10 * time.Millisecond)
		}
	}
}

// nvariantScenarios are the fleet runs, each with its fault plan, staged
// update and declared outcome; every run is a 3-replica fleet under the
// calibrated Varan-2 cost model.
func nvariantScenarios() []scenario {
	update := func(opts kvstore.UpdateOpts) func(c *core.Controller) {
		return func(c *core.Controller) { c.Update(kvstore.Update("2.0.0", "2.0.1", opts)) }
	}
	// Every outcome names the fleet's four counters.
	fleet := func(ejects, respawns, rollbacks, promotions int64) map[string]int64 {
		return map[string]int64{obs.CFleetEjects: ejects, obs.CFleetRespawns: respawns,
			obs.CCoreRollbacks: rollbacks, obs.CCanaryPromotions: promotions}
	}
	// steady: 2.0.0 still leads a full fleet.
	steady := func(counters map[string]int64, verdicts ...apptest.Verdict) apptest.Outcome {
		return apptest.Outcome{Leader: "2.0.0", Fleet: 3, Verdicts: verdicts, Counters: counters}
	}
	verdict := func(cause string, action mve.VerdictAction) apptest.Verdict {
		return apptest.Verdict{Cause: cause, Action: action}
	}
	eject := func(cause string) apptest.Verdict { return verdict(cause, mve.VerdictEject) }
	rollback := func(cause string) apptest.Verdict { return verdict(cause, mve.VerdictRollbackCandidate) }
	scenarios := []scenario{
		{
			// Baseline: leader + 3 replicas validate a whole session.
			name: "steady-state", drive: session(15, nil),
			want: steady(fleet(0, 0, 0, 0)),
		},
		{
			// A replica crashes mid-run: the 1/3 minority verdict ejects
			// it and the slot respawns from the leader at quiescence.
			name: "crash-minority", drive: session(25, nil),
			faults: []*chaos.Injection{{
				Proc: "r2#1@2.0.0", Op: sysabi.OpWrite, AfterCalls: 5, Kind: chaos.KindCrash,
			}},
			want: steady(fleet(1, 1, 0, 0), eject("crash")),
		},
		{
			// A replica's write is corrupted by an injected errno: its
			// results stop matching the leader's recorded stream and the
			// divergence goes to the quorum — still a minority.
			name: "diverge-minority", drive: session(25, nil),
			faults: []*chaos.Injection{{
				Proc: "r3#1@2.0.0", Op: sysabi.OpWrite, AfterCalls: 5,
				Kind: chaos.KindErrno, Errno: sysabi.EPIPE,
			}},
			want: steady(fleet(1, 1, 0, 0), eject("divergence")),
		},
		{
			// Two of three replicas fail: after the first eject the second
			// failure is a majority (1 of 2) — the fleet aborts and the
			// leader serves solo rather than trusting a minority quorum.
			name: "diverge-majority-abort", drive: session(25, nil),
			faults: []*chaos.Injection{
				{Proc: "r1#1@2.0.0", Op: sysabi.OpWrite, AfterCalls: 5, Kind: chaos.KindErrno, Errno: sysabi.EPIPE},
				{Proc: "r2#1@2.0.0", Op: sysabi.OpWrite, AfterCalls: 5, Kind: chaos.KindErrno, Errno: sysabi.EPIPE},
			},
			want: apptest.Outcome{Stage: core.StageAborted, Leader: "2.0.0", Counters: fleet(1, 0, 0, 0),
				Verdicts: []apptest.Verdict{eject("divergence"), verdict("divergence", mve.VerdictAbort)}},
		},
		{
			// A staged update whose state transformation loses the store:
			// the canary's replies diverge on every request, blow the
			// divergence budget mid-window, and only the canary dies.
			name: "canary-storm-rollback", drive: session(30, update(kvstore.UpdateOpts{ForgetTable: true})),
			want: steady(fleet(0, 0, 1, 0), rollback("divergence")),
		},
		{
			// A clean staged update: the canary validates through the
			// window, the gate passes, the fleet promotes and respawns at
			// full strength from the new leader.
			name: "canary-clean-promote", drive: session(40, update(kvstore.UpdateOpts{})),
			want: apptest.Outcome{Leader: "2.0.1", Fleet: 3, Counters: fleet(0, 3, 0, 1)},
		},
		{
			// Canary-phase chaos: the canary itself crashes mid-window.
			// Canary failures bypass the quorum — the verdict is always
			// rollback, and the old-version fleet is untouched.
			name: "canary-crash", drive: session(30, update(kvstore.UpdateOpts{})),
			faults: []*chaos.Injection{{
				Proc: "canary#1@2.0.1", Op: sysabi.OpWrite, AfterCalls: 4, Kind: chaos.KindCrash,
			}},
			want: steady(fleet(0, 0, 1, 0), rollback("crash")),
		},
		{
			// Canary-phase chaos: repeated injected errnos desynchronize
			// the canary past its divergence budget — a chaos-driven storm
			// instead of a transformation bug.
			name: "canary-divergence-storm", drive: session(30, update(kvstore.UpdateOpts{})),
			faults: []*chaos.Injection{
				{Proc: "canary#1@2.0.1", Op: sysabi.OpWrite, AfterCalls: 2, Kind: chaos.KindErrno, Errno: sysabi.EPIPE},
				{Proc: "canary#1@2.0.1", Op: sysabi.OpWrite, AfterCalls: 4, Kind: chaos.KindErrno, Errno: sysabi.EPIPE},
			},
			want: steady(fleet(0, 0, 1, 0), rollback("divergence")),
		},
		{
			// A replica crashes while the canary window is open: the eject
			// and respawn proceed under the in-flight update, and the
			// canary still promotes on a clean gate.
			name: "replica-crash-during-canary", drive: session(40, update(kvstore.UpdateOpts{})),
			faults: []*chaos.Injection{{
				Proc: "r2#1@2.0.0", Op: sysabi.OpWrite, AfterCalls: 10, Kind: chaos.KindCrash,
			}},
			want: apptest.Outcome{Leader: "2.0.1", Fleet: 3, Counters: fleet(1, 4, 0, 1),
				Verdicts: []apptest.Verdict{eject("crash")}},
		},
		{
			// A train through the fleet: the first hop promotes on a clean
			// gate, the second loses the store and storms its window, and
			// its rollback flushes the third — the fleet stays on 2.0.1 at
			// full strength.
			name: "canary-train-midchain-rollback",
			drive: session(80, func(c *core.Controller) {
				c.QueueUpdate(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
				c.QueueUpdate(kvstore.Update("2.0.1", "2.0.2", kvstore.UpdateOpts{ForgetTable: true}))
				c.QueueUpdate(kvstore.Update("2.0.2", "2.0.3", kvstore.UpdateOpts{}))
			}),
			want: apptest.Outcome{Leader: "2.0.1", Fleet: 3, Counters: fleet(0, 3, 1, 1),
				Verdicts: []apptest.Verdict{rollback("divergence")}},
		},
		{
			// Fault during respawn: the respawned incarnation of a crashed
			// slot crashes too; the quorum ejects it again and the slot
			// respawns a third time. Clients never notice either failure.
			name: "respawn-crashes-again", drive: session(30, nil),
			faults: []*chaos.Injection{
				{Proc: "r2#1@2.0.0", Op: sysabi.OpWrite, AfterCalls: 5, Kind: chaos.KindCrash},
				{Proc: "r2#2@2.0.0", Op: sysabi.OpWrite, AfterCalls: 3, Kind: chaos.KindCrash},
			},
			want: steady(fleet(2, 2, 0, 0), eject("crash"), eject("crash")),
		},
	}
	for i := range scenarios {
		scenarios[i].cfg = fleetConfig(3)
	}
	return scenarios
}

// runNVariantScenario executes one fleet scenario and reports what the
// judge found and the state the fleet ended in.
func runNVariantScenario(sc scenario) NVariantScenarioRow {
	w, plan, breaches := sc.run()
	f := w.Final()
	row := NVariantScenarioRow{
		Name:             sc.name,
		K:                len(sc.cfg.Variants),
		Ejects:           f.Counters[obs.CFleetEjects],
		Respawns:         f.Counters[obs.CFleetRespawns],
		CanaryRollbacks:  f.Counters[obs.CCoreRollbacks],
		CanaryPromotions: f.Counters[obs.CCanaryPromotions],
		FinalStage:       f.Stage.String(),
		LeaderVersion:    f.Leader,
		FleetSize:        len(f.Variants),
		Tolerated:        len(breaches) == 0,
	}
	for _, f := range plan.Firings {
		row.Injected = append(row.Injected, f.Injection.String())
	}
	for _, v := range f.Verdicts {
		row.Verdicts = append(row.Verdicts, v.String())
	}
	for _, b := range breaches {
		if b.Exchange >= 0 {
			row.ClientFailures++
		}
	}
	return row
}

// nvariantOverheadScenarios are the overhead sweep's runs: a
// closed-loop kvstore session of nvariantRequests requests with K = 1, 2
// and 3 replica variants attached, under the calibrated Varan-2 cost
// model and kernel cost.
func nvariantOverheadScenarios() []scenario {
	var out []scenario
	for k := 1; k <= 3; k++ {
		out = append(out, scenario{
			name:  fmt.Sprintf("overhead-k%d", k),
			cfg:   fleetConfig(k),
			setup: func(w *apptest.World) { w.K.BaseCost = KernelCost },
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				for i := 0; i < nvariantRequests; i++ {
					c.Do(tk, "INCR nv")
				}
			},
			want: apptest.Outcome{Leader: "2.0.0", Fleet: k},
		})
	}
	return out
}

// runNVariantOverhead measures one overhead run.
func runNVariantOverhead(sc scenario) (NVariantOverheadRow, error) {
	w, _, breaches := sc.run()
	if err := failed(breaches); err != nil {
		return NVariantOverheadRow{}, err
	}
	elapsed := w.S.Now()
	row := NVariantOverheadRow{
		K:              len(sc.cfg.Variants),
		Requests:       nvariantRequests,
		VirtualMillis:  float64(elapsed) / float64(time.Millisecond),
		ReplayedEvents: w.C.Monitor().Stats.Replayed,
		ProducerBlocks: w.Rec.Counter(obs.CRingBlocked),
	}
	if elapsed > 0 {
		row.ThroughputRPS = float64(nvariantRequests) / elapsed.Seconds()
	}
	return row, nil
}

// nvariantRequests is how many requests each overhead row's fleet serves.
const nvariantRequests = 300

// RunNVariantReport executes the overhead sweep and every fleet
// scenario and assembles the report.
func RunNVariantReport() (NVariantReport, error) {
	report := NVariantReport{Schema: NVariantSchemaID}
	for _, sc := range nvariantOverheadScenarios() {
		row, err := runNVariantOverhead(sc)
		if err != nil {
			return report, fmt.Errorf("nvariant %s: %w", sc.name, err)
		}
		report.Overhead = append(report.Overhead, row)
	}
	for _, sc := range nvariantScenarios() {
		report.Scenarios = append(report.Scenarios, runNVariantScenario(sc))
	}
	return report, nil
}

// FormatNVariantReport renders the report for the terminal.
func FormatNVariantReport(report NVariantReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N-variant fleet (%s)\n\n", report.Schema)
	fmt.Fprintf(&b, "  Steady-state overhead vs fleet size (kvstore, %d requests):\n", nvariantRequests)
	fmt.Fprintf(&b, "    %2s  %12s  %12s  %10s  %8s\n", "K", "virtual ms", "req/s", "replayed", "blocks")
	for _, row := range report.Overhead {
		fmt.Fprintf(&b, "    %2d  %12.2f  %12.0f  %10d  %8d\n",
			row.K, row.VirtualMillis, row.ThroughputRPS, row.ReplayedEvents, row.ProducerBlocks)
	}
	fmt.Fprintf(&b, "\n  Fleet scenarios (quorum verdicts, canary gates, chaos):\n")
	for _, row := range report.Scenarios {
		status := "TOLERATED"
		if !row.Tolerated {
			status = "FAILED"
		}
		fmt.Fprintf(&b, "    %-28s K=%d  %-9s  stage=%s leader=%s fleet=%d failures=%d\n",
			row.Name, row.K, status, row.FinalStage, row.LeaderVersion, row.FleetSize, row.ClientFailures)
		for _, inj := range row.Injected {
			fmt.Fprintf(&b, "      fault:   %s\n", inj)
		}
		for _, v := range row.Verdicts {
			fmt.Fprintf(&b, "      verdict: %s\n", v)
		}
	}
	return b.String()
}
