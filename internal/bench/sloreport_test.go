package bench

import (
	"reflect"
	"testing"
	"time"

	"mvedsua/internal/core"
	"mvedsua/internal/obs"
)

// TestSLOReportFigures checks the availability ledger tells the story
// each scenario was built to produce: real (non-zero, sub-100%)
// availability, non-zero MTTR, and the right downtime attribution and
// verdict stream per scenario.
func TestSLOReportFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full slo scenarios in -short mode")
	}
	report := decodeFresh[SLOBenchReport](t, "slo")
	if report.Schema != SLOSchemaID {
		t.Fatalf("schema = %q", report.Schema)
	}
	if len(report.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(report.Runs))
	}
	byName := map[string]SLORunRow{}
	for _, run := range report.Runs {
		byName[run.Name] = run
		l := run.Ledger
		if l.AvailabilityPct <= 0 || l.AvailabilityPct >= 100 {
			t.Errorf("%s: availability = %v, want in (0, 100)", run.Name, l.AvailabilityPct)
		}
		if l.MTTRNS <= 0 || l.LongestPauseNS <= 0 || len(l.Downtime) == 0 {
			t.Errorf("%s: MTTR=%d longest=%d windows=%d, want all non-zero",
				run.Name, l.MTTRNS, l.LongestPauseNS, len(l.Downtime))
		}
		if l.Requests == 0 || l.Failed != 0 {
			t.Errorf("%s: requests=%d failed=%d, want load with zero failures",
				run.Name, l.Requests, l.Failed)
		}
		if l.WindowsTotal == 0 {
			t.Errorf("%s: empty timeline", run.Name)
		}
	}

	causes := func(run SLORunRow) map[string]int {
		m := map[string]int{}
		for _, w := range run.Ledger.Downtime {
			m[w.Cause]++
		}
		return m
	}
	rules := func(run SLORunRow) map[string]int {
		m := map[string]int{}
		for _, v := range run.Verdicts {
			m[v.Rule]++
		}
		return m
	}

	up := byName["update-under-load"]
	if causes(up)["update"] == 0 {
		t.Errorf("update-under-load: no update-attributed pause: %+v", up.Ledger.Downtime)
	}

	fr := byName["fault-and-recover"]
	if causes(fr)["fault"] == 0 {
		t.Errorf("fault-and-recover: no fault-attributed pause: %+v", fr.Ledger.Downtime)
	}
	if fr.Ledger.FaultRecoveryNS <= 0 {
		t.Errorf("fault-and-recover: fault recovery = %d", fr.Ledger.FaultRecoveryNS)
	}
	if rules(fr)["follower-liveness"] == 0 {
		t.Errorf("fault-and-recover: no follower-liveness verdict: %+v", fr.Verdicts)
	}

	cr := byName["canary-rollback"]
	if rules(cr)["ring-lag"] == 0 {
		t.Errorf("canary-rollback: no ring-lag gate verdict: %+v", cr.Verdicts)
	}
}

// TestSLOFloorRows pins the report-time floor pass: every window closed
// since tracker start whose success rate is below the floor yields one
// row stamped at the window's end — a dark window included — while a
// window exactly at the floor, the window before the tracker started and
// the still-open window yield none.
func TestSLOFloorRows(t *testing.T) {
	const ms = time.Millisecond // obs.SLOWindow is 20ms
	now := 20 * ms
	rec := obs.New(func() time.Duration { return now }, obs.Options{})
	tr := obs.NewSLOTracker(rec)
	request := func(at time.Duration, ok bool) {
		now = at
		tr.Request(ok, time.Microsecond)
	}
	for i := 0; i < 1000; i++ { // window 1: 999 of 1000, exactly the floor
		request(20*ms+time.Duration(i)*time.Microsecond, i != 0)
	}
	// window 2: dark
	request(65*ms, true) // window 3: one of two
	request(66*ms, false)
	request(83*ms, false) // window 4: still open at report time
	now = 85 * ms

	floor := func(subject string, at time.Duration, rate string) SLOVerdictRow {
		return SLOVerdictRow{AtNS: int64(at), Scope: "slo", Subject: subject, Rule: "success-rate-floor",
			Reason: "success rate " + rate + " below floor 0.9990"}
	}
	want := []SLOVerdictRow{
		floor("window[2]", 60*ms, "0.0000"),
		floor("window[3]", 80*ms, "0.5000"),
	}
	if got := sloFloorRows(tr.Report(nil, nil), now); !reflect.DeepEqual(got, want) {
		t.Fatalf("floor rows = %+v, want %+v", got, want)
	}
}

// TestUpdateWindows pins how a controller's timeline becomes the
// ledger's update activity: a window is open while the stage is neither
// single-leader nor aborted, entries that keep the stage (a verdict, a
// violation, a retry) do not reopen or split it, a stage change between
// two busy stages keeps it open, and a run that ends mid-update closes
// it at end.
func TestUpdateWindows(t *testing.T) {
	ms := time.Millisecond
	ev := func(at int, stage core.Stage, kind core.Kind) core.Event {
		return core.Event{At: time.Duration(at) * ms, Stage: stage, Kind: kind}
	}
	win := func(start, end int) obs.UpdateWindow {
		return obs.UpdateWindow{Start: time.Duration(start) * ms, End: time.Duration(end) * ms}
	}
	for _, tc := range []struct {
		name     string
		timeline []core.Event
		want     []obs.UpdateWindow
	}{
		{"steady run", []core.Event{
			ev(0, core.StageSingleLeader, core.KindStage),
		}, nil},
		{"verdict and violation inside outdated-leader", []core.Event{
			ev(0, core.StageSingleLeader, core.KindStage),
			ev(10, core.StageOutdatedLeader, core.KindStage),
			ev(20, core.StageOutdatedLeader, core.KindViolation),
			ev(20, core.StageOutdatedLeader, core.KindVerdict),
			ev(20, core.StageSingleLeader, core.KindRollback),
			ev(25, core.StageSingleLeader, core.KindRetry),
		}, []obs.UpdateWindow{win(10, 20)}},
		{"promoting to updated-leader stays open", []core.Event{
			ev(0, core.StageSingleLeader, core.KindStage),
			ev(10, core.StageOutdatedLeader, core.KindStage),
			ev(30, core.StagePromoting, core.KindStage),
			ev(31, core.StageUpdatedLeader, core.KindStage),
			ev(40, core.StageSingleLeader, core.KindCommit),
		}, []obs.UpdateWindow{win(10, 40)}},
		{"aborted closes it", []core.Event{
			ev(0, core.StageSingleLeader, core.KindStage),
			ev(10, core.StageOutdatedLeader, core.KindStage),
			ev(15, core.StageOutdatedLeader, core.KindVerdict),
			ev(15, core.StageAborted, core.KindStage),
		}, []obs.UpdateWindow{win(10, 15)}},
		{"run ends mid-update", []core.Event{
			ev(0, core.StageSingleLeader, core.KindStage),
			ev(10, core.StageOutdatedLeader, core.KindStage),
			ev(20, core.StageSingleLeader, core.KindRollback),
			ev(30, core.StageOutdatedLeader, core.KindStage),
		}, []obs.UpdateWindow{win(10, 20), win(30, 50)}},
	} {
		if got := updateWindows(tc.timeline, 50*ms); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: windows = %v, want %v", tc.name, got, tc.want)
		}
	}
}
