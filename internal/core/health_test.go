package core

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/obs"
)

func TestHealthOpBoundaries(t *testing.T) {
	for _, tc := range []struct {
		op     HealthOp
		sample float64
		bound  float64
		want   bool
	}{
		{OpAbove, 3, 2, true},
		{OpAbove, 2, 2, false}, // strictly above: at the budget is healthy
		{OpAtLeast, 2, 2, true},
		{OpAtLeast, 1.999, 2, false},
		{OpBelow, 0.5, 0.999, true},
		{OpBelow, 0.999, 0.999, false},
	} {
		r := HealthRule{Name: "r", Signal: "s", Op: tc.op, Bound: tc.bound}
		if got := r.violated(tc.sample); got != tc.want {
			t.Errorf("%v %v vs %v: violated = %v, want %v", tc.sample, tc.op, tc.bound, got, tc.want)
		}
	}
}

// TestCanaryGateRulesLegacyReasons pins the reason strings the gate
// used inline before the health engine existed: the golden artifacts
// embed them, so the migrated rules must reproduce them verbatim.
func TestCanaryGateRulesLegacyReasons(t *testing.T) {
	gate := CanaryGate{
		Window:            150 * time.Millisecond,
		MaxDivergences:    2,
		MaxLag:            64,
		MaxValidateLagP99: 5 * time.Millisecond,
	}
	eng := NewHealthEngine("gate", nil, gate.Rules())
	if n := len(eng.rules); n != 3 {
		t.Fatalf("rules = %d, want 3", n)
	}
	for _, tc := range []struct {
		name   string
		sample HealthSample
		want   string // "" means healthy
	}{
		{"divergences-at-budget", HealthSample{SignalDivergences: 2}, ""},
		{"divergences-over", HealthSample{SignalDivergences: 3}, "3 divergences exceed budget 2"},
		{"lag-at-bound", HealthSample{SignalRingLag: 64}, ""},
		{"lag-over", HealthSample{SignalRingLag: 65}, "lag 65 exceeds 64"},
		{"p99-over", HealthSample{SignalValidateLagP99: float64(6 * time.Millisecond)}, "validate-lag p99 6ms exceeds 5ms"},
		{"p99-absent-skipped", HealthSample{}, ""},
		{"first-violation-wins", HealthSample{SignalDivergences: 9, SignalRingLag: 99}, "9 divergences exceed budget 2"},
	} {
		v := eng.Evaluate("canary-gate", tc.sample)
		switch {
		case tc.want == "" && v != nil:
			t.Errorf("%s: unexpected verdict %q", tc.name, v.Reason)
		case tc.want != "" && (v == nil || v.Reason != tc.want):
			t.Errorf("%s: verdict = %+v, want reason %q", tc.name, v, tc.want)
		}
	}
}

// TestCanaryGateRulesConditional checks that unconfigured thresholds do
// not exist as rules at all.
func TestCanaryGateRulesConditional(t *testing.T) {
	gate := CanaryGate{Window: time.Second, MaxDivergences: 2}
	rules := gate.Rules()
	if len(rules) != 1 || rules[0].Signal != SignalDivergences {
		t.Fatalf("rules = %+v, want divergence budget only", rules)
	}
}

func TestFollowerLivenessRule(t *testing.T) {
	eng := NewHealthEngine("core", nil, []HealthRule{FollowerLivenessRule(30 * time.Millisecond)})
	if v := eng.Evaluate("proc2", HealthSample{SignalStalledFor: float64(29 * time.Millisecond)}); v != nil {
		t.Fatalf("under deadline: %+v", v)
	}
	v := eng.Evaluate("proc2", HealthSample{SignalStalledFor: float64(30 * time.Millisecond)})
	if v == nil || v.Reason != "no progress for 30ms (deadline 30ms)" {
		t.Fatalf("at deadline: %+v", v)
	}
	judge := eng.StallJudge()
	if judge("proc2", 29*time.Millisecond, 4) {
		t.Fatal("judge fired under deadline")
	}
	if !judge("proc2", 30*time.Millisecond, 4) {
		t.Fatal("judge silent at deadline")
	}
}

func TestSuccessRateFloorRule(t *testing.T) {
	eng := NewHealthEngine("slo", nil, []HealthRule{SuccessRateFloorRule(0.999)})
	if v := eng.Evaluate("window[0]", HealthSample{SignalSuccessRate: 1}); v != nil {
		t.Fatalf("healthy window: %+v", v)
	}
	v := eng.Evaluate("window[1]", HealthSample{SignalSuccessRate: 0.5})
	if v == nil || v.Reason != "success rate 0.5000 below floor 0.9990" {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestHealthEngineVerdictLogAndEmission: every violated rule is logged;
// milestones and the counter appear only once emission is on.
func TestHealthEngineVerdictLogAndEmission(t *testing.T) {
	rec := obs.New(nil, obs.Options{})
	eng := NewHealthEngine("test", rec, []HealthRule{
		{Name: "a", Signal: "s", Op: OpAbove, Bound: 1},
		{Name: "b", Signal: "s", Op: OpAbove, Bound: 2},
	})
	v := eng.Evaluate("subj", HealthSample{"s": 5})
	if v == nil || v.Rule != "a" {
		t.Fatalf("first violation = %+v, want rule a", v)
	}
	if got := eng.Verdicts(); len(got) != 2 || got[0].Rule != "a" || got[1].Rule != "b" {
		t.Fatalf("verdict log = %+v, want both rules", got)
	}
	if rec.Counter(obs.CHealthVerdicts) != 0 {
		t.Fatal("emission off but counter moved")
	}
	eng.EmitVerdicts(true)
	eng.Evaluate("subj", HealthSample{"s": 5})
	if rec.Counter(obs.CHealthVerdicts) != 2 {
		t.Fatalf("health.verdicts = %d, want 2", rec.Counter(obs.CHealthVerdicts))
	}
	var milestones int
	for _, e := range rec.Milestones() {
		if e.Kind == obs.KindVerdict && e.Actor == "health:test" {
			milestones++
		}
	}
	if milestones != 2 {
		t.Fatalf("verdict milestones = %d, want 2", milestones)
	}
}

func TestHealthEngineNilSafe(t *testing.T) {
	var eng *HealthEngine
	eng.EmitVerdicts(true)
	if eng.Scope() != "" || eng.Verdicts() != nil {
		t.Fatal("nil engine returned state")
	}
	if v := eng.Evaluate("x", HealthSample{"s": 1}); v != nil {
		t.Fatalf("nil engine verdict = %+v", v)
	}
}

// TestControllerInstallsWatchdogEngine: arming the watchdog must route
// stall judgment through a follower-liveness health engine.
func TestControllerInstallsWatchdogEngine(t *testing.T) {
	h := newHarness(Config{BufferEntries: 8, WatchdogDeadline: 20 * time.Millisecond})
	if h.c.Health() == nil {
		t.Fatal("controller with watchdog has no health engine")
	}
	rules := h.c.Health().rules
	if len(rules) != 1 || rules[0].Name != "follower-liveness" {
		t.Fatalf("rules = %+v", rules)
	}
	if strings.Contains(rules[0].Name, " ") {
		t.Fatalf("rule name %q not a slug", rules[0].Name)
	}
}
