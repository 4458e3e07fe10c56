package bench

import "testing"

// TestNVariantScenariosTolerated requires every fleet scenario to reach
// its expected outcome with zero client-visible failures — the paper's
// availability claim carried over to N-variant execution: variant
// crashes, divergences, quorum aborts, canary rollbacks and promotions
// must all be invisible to clients.
func TestNVariantScenariosTolerated(t *testing.T) {
	report := decodeFresh[NVariantReport](t, "nvariant")
	if len(report.Scenarios) < 8 {
		t.Fatalf("only %d scenarios ran", len(report.Scenarios))
	}
	for _, row := range report.Scenarios {
		if row.ClientFailures != 0 {
			t.Errorf("%s: %d client-visible failures", row.Name, row.ClientFailures)
		}
		if !row.Tolerated {
			t.Errorf("%s: not tolerated (stage=%s leader=%s fleet=%d verdicts=%v)",
				row.Name, row.FinalStage, row.LeaderVersion, row.FleetSize, row.Verdicts)
		}
	}
	// The overhead sweep covers K=1..3 and replay work scales with K.
	if len(report.Overhead) != 3 {
		t.Fatalf("overhead rows = %d", len(report.Overhead))
	}
	for i, row := range report.Overhead {
		if row.K != i+1 {
			t.Errorf("overhead row %d: K=%d", i, row.K)
		}
		if i > 0 && row.ReplayedEvents <= report.Overhead[i-1].ReplayedEvents {
			t.Errorf("replayed events did not grow with K: %+v", report.Overhead)
		}
	}
}
