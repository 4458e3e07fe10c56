package bench

import (
	"encoding/json"
	"testing"

	"mvedsua/internal/obs"
)

// TestTimelineReportDeterministic: the timeline experiment's Chrome trace
// export is byte-identical run to run. No artifact commits it, and no
// relation row compares two traced runs.
func TestTimelineReportDeterministic(t *testing.T) {
	first, _ := fresh(t, "timeline")
	second, _, err := experiment(t, "timeline").encoded()
	if err != nil {
		t.Fatal(err)
	}
	if p1, p2 := first.(TimelineReport).ChromeTrace, second.(TimelineReport).ChromeTrace; string(p1) != string(p2) {
		t.Fatal("Chrome trace exports differ between identical runs")
	}
}

// TestTimelineReportDecomposesRequests checks the report actually
// attributes latency: every scenario tracks requests, and the duo
// phases populate all three decomposition components.
func TestTimelineReportDecomposesRequests(t *testing.T) {
	shared, _ := fresh(t, "timeline")
	report := shared.(TimelineReport)
	if report.Schema != TimelineSchemaID {
		t.Fatalf("schema = %q, want %q", report.Schema, TimelineSchemaID)
	}
	for _, run := range report.Runs {
		if run.Requests == 0 {
			t.Fatalf("%s: no tracked requests", run.Name)
		}
		for _, comp := range []string{obs.HReqService, obs.HReqRingWait, obs.HReqValidateLag} {
			c, ok := run.Components[comp]
			if !ok {
				t.Fatalf("%s: component %s missing", run.Name, comp)
			}
			if c.Count == 0 {
				t.Fatalf("%s: component %s never observed", run.Name, comp)
			}
			if c.P50NS > c.P95NS || c.P95NS > c.P99NS || c.P99NS > c.MaxNS {
				t.Fatalf("%s: %s quantiles not monotone: %+v", run.Name, comp, c)
			}
		}
		if run.Spans == 0 {
			t.Fatalf("%s: no spans recorded", run.Name)
		}
	}
	// The exported trace must carry the causal story the docs promise:
	// task run slices, controller stage arcs, a DSU state transfer, and
	// the fault/stall/divergence instants of the recovery run.
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(report.ChromeTrace, &trace); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"run": false, "stage:outdated-leader": false, "xform:2.0.1": false,
		"update:2.0.1": false, "fault": false, "stall": false, "divergence": false,
	}
	for _, ev := range trace.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("exported trace missing %q events", name)
		}
	}
}

// TestValidateChromeTraceRejects exercises the validator's failure
// modes: garbage bytes, an empty trace, and out-of-order timestamps.
func TestValidateChromeTraceRejects(t *testing.T) {
	if err := ValidateChromeTrace([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := []byte(`{"traceEvents":[
		{"name":"a","ph":"i","ts":10,"pid":1,"tid":1},
		{"name":"b","ph":"i","ts":5,"pid":1,"tid":1}]}`)
	if err := ValidateChromeTrace(bad); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	ok := []byte(`{"traceEvents":[
		{"name":"m","ph":"M","ts":0,"pid":1,"tid":9},
		{"name":"a","ph":"i","ts":10,"pid":1,"tid":1},
		{"name":"b","ph":"i","ts":5,"pid":1,"tid":2}]}`)
	if err := ValidateChromeTrace(ok); err != nil {
		t.Fatalf("independent tracks rejected: %v", err)
	}
}
