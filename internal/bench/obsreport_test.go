package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"mvedsua/internal/obs"
)

// TestMetricsReportValidates checks the observed-scenario suite's report
// against obs's vocabulary — what the catalogue row's Valid does in the
// artifact gate — and that every scenario told its story.
func TestMetricsReportValidates(t *testing.T) {
	_, data := fresh(t, "metrics")
	if err := ValidateMetricsReport(data); err != nil {
		t.Fatal(err)
	}
	report := decodeFresh[MetricsReport](t, "metrics")
	// Every scenario must reach its intended terminal state.
	want := map[string]string{
		"lifecycle":            "single-leader leader=2.0.1",
		"stall-watchdog-retry": "single-leader leader=2.0.1",
		"divergence-rollback":  "single-leader leader=2.0.0",
		"backpressure-block":   "single-leader leader=2.0.1",
		"discard-follower":     "single-leader leader=2.0.0",
	}
	for _, run := range report.Runs {
		if w, ok := want[run.Name]; !ok || run.Outcome != w {
			t.Errorf("%s outcome = %q, want %q", run.Name, run.Outcome, w)
		}
		if len(run.Timeline) == 0 {
			t.Errorf("%s has no milestone timeline", run.Name)
		}
	}
	// The lifecycle run's timeline tells the whole §3.2 story.
	var lifecycle []string
	for _, run := range report.Runs {
		if run.Name == "lifecycle" {
			lifecycle = run.Timeline
		}
	}
	joined := strings.Join(lifecycle, "\n")
	for _, want := range []string{
		"started as single leader",
		"attached as follower",
		"rule \"stats-clock-order\"",
		"promoted to leader",
		"update committed",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("lifecycle timeline missing %q:\n%s", want, joined)
		}
	}
}

// TestValidateMetricsReportRejects exercises the validator's failure
// modes: wrong schema id, a missing required metric, and an unknown
// (renamed) metric.
func TestValidateMetricsReportRejects(t *testing.T) {
	report := decodeFresh[MetricsReport](t, "metrics")
	marshal := func(r MetricsReport) []byte {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bad := report
	bad.Schema = "mvedsua-metrics/v0"
	if err := ValidateMetricsReport(marshal(bad)); err == nil {
		t.Error("wrong schema id accepted")
	}
	if err := ValidateMetricsReport(marshal(MetricsReport{Schema: MetricsSchemaID})); err == nil {
		t.Error("empty report accepted")
	}
	// Simulate a rename: move one counter to an unknown name everywhere.
	var renamed MetricsReport
	if err := json.Unmarshal(marshal(report), &renamed); err != nil {
		t.Fatal(err)
	}
	for _, run := range renamed.Runs {
		if v, ok := run.Metrics.Counters[obs.CRingPut]; ok {
			delete(run.Metrics.Counters, obs.CRingPut)
			run.Metrics.Counters["ringbuf.puts"] = v
		}
	}
	err := ValidateMetricsReport(marshal(renamed))
	if err == nil {
		t.Error("renamed counter accepted")
	} else if !strings.Contains(err.Error(), "ringbuf.put") {
		t.Errorf("rename error does not identify the metric: %v", err)
	}
}
