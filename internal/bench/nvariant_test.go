package bench

import "testing"

// TestNVariantOverheadGrowsWithK: the overhead sweep covers K=1..3 and
// replay work scales with K. Whether each fleet scenario kept its
// outcome is TestNVariantScenariosTolerated's question.
func TestNVariantOverheadGrowsWithK(t *testing.T) {
	report := decodeFresh[NVariantReport](t, "nvariant")
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
