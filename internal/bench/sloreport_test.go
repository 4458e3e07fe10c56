package bench

import (
	"reflect"
	"testing"
	"time"

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
	const ms = time.Millisecond
	now := 10 * ms
	rec := obs.New(func() time.Duration { return now }, obs.Options{})
	tr := obs.NewSLOTracker(rec, obs.SLOOptions{Window: 10 * ms})
	request := func(at time.Duration, ok bool) {
		now = at
		tr.Request(ok, time.Microsecond)
	}
	for i := 0; i < 1000; i++ { // window 1: 999 of 1000, exactly the floor
		request(10*ms+time.Duration(i)*time.Microsecond, i != 0)
	}
	// window 2: dark
	request(35*ms, true) // window 3: one of two
	request(36*ms, false)
	request(43*ms, false) // window 4: still open at report time
	now = 45 * ms

	floor := func(subject string, at time.Duration, rate string) SLOVerdictRow {
		return SLOVerdictRow{AtNS: int64(at), Scope: "slo", Subject: subject, Rule: "success-rate-floor",
			Reason: "success rate " + rate + " below floor 0.9990"}
	}
	want := []SLOVerdictRow{
		floor("window[2]", 30*ms, "0.0000"),
		floor("window[3]", 40*ms, "0.5000"),
	}
	if got := sloFloorRows(tr.Report(), 10*ms, now); !reflect.DeepEqual(got, want) {
		t.Fatalf("floor rows = %+v, want %+v", got, want)
	}
}
