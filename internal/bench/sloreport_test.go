package bench

import "testing"

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
	if len(cr.Scopes) == 0 || cr.ScopesMerged == nil {
		t.Fatalf("canary-rollback: missing scoped summaries")
	}
	var replayed, syscalls int64
	for _, s := range cr.Scopes {
		replayed += s.Replayed
		syscalls += s.Syscalls
	}
	if cr.ScopesMerged.Replayed != replayed || cr.ScopesMerged.Syscalls != syscalls {
		t.Errorf("merged scope row %+v does not sum children (replayed %d, syscalls %d)",
			cr.ScopesMerged, replayed, syscalls)
	}
}
