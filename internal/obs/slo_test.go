package obs

import (
	"testing"
	"time"
)

// sloScript drives a hand-written availability story through a tracker
// (SLOWindow 20ms, SLOStallThreshold 2ms, SLOLatencyBudgetP99 1ms):
//
//	t=1..5ms   healthy requests every 1ms
//	t=6ms      injected fault (the caller's, passed to Report)
//	t=5..35ms  gap (downtime, cause fault)
//	t=35ms     recovery request (slow: 3ms latency, over budget)
//	t=36..41ms healthy requests
//	t=40..49ms update window (the caller's, passed to Report)
//	t=41..48ms gap (downtime, cause update)
//	t=48,49ms  healthy requests
//
// It returns the tracker and the update window and fault its report
// takes.
func sloScript(t *testing.T) (*SLOTracker, []UpdateWindow, []time.Duration) {
	t.Helper()
	clock := &manualClock{}
	r := New(clock.now, Options{})
	tr := NewSLOTracker(r)
	for ms := 1; ms <= 5; ms++ {
		clock.t = time.Duration(ms) * time.Millisecond
		tr.Request(true, 100*time.Microsecond)
	}
	clock.t = 35 * time.Millisecond
	tr.Request(true, 3*time.Millisecond)
	for ms := 36; ms <= 41; ms++ {
		clock.t = time.Duration(ms) * time.Millisecond
		tr.Request(true, 100*time.Microsecond)
	}
	clock.t = 48 * time.Millisecond
	tr.Request(true, 100*time.Microsecond)
	clock.t = 49 * time.Millisecond
	tr.Request(true, 100*time.Microsecond)
	return tr, []UpdateWindow{{Start: 40 * time.Millisecond, End: 49 * time.Millisecond}}, []time.Duration{6 * time.Millisecond}
}

func TestSLODowntimeDetectionAndAttribution(t *testing.T) {
	tr, updates, faults := sloScript(t)
	rep := tr.Report(updates, faults)

	if rep.Requests != 14 || rep.Failed != 0 {
		t.Fatalf("requests = %d failed = %d, want 14/0", rep.Requests, rep.Failed)
	}
	if len(rep.Downtime) != 2 {
		t.Fatalf("downtime windows = %+v, want 2", rep.Downtime)
	}
	first, second := rep.Downtime[0], rep.Downtime[1]
	if first.StartNS != int64(5*time.Millisecond) || first.EndNS != int64(35*time.Millisecond) {
		t.Fatalf("first window = %+v", first)
	}
	if first.Cause != "fault" {
		t.Fatalf("first cause = %q, want fault", first.Cause)
	}
	if second.StartNS != int64(41*time.Millisecond) || second.EndNS != int64(48*time.Millisecond) {
		t.Fatalf("second window = %+v", second)
	}
	if second.Cause != "update" {
		t.Fatalf("second cause = %q, want update", second.Cause)
	}
	if got := tr.Report(nil, faults).Downtime[1].Cause; got != "unattributed" {
		t.Fatalf("second cause without the update window = %q, want unattributed", got)
	}

	wantDown := 30*time.Millisecond + 7*time.Millisecond
	if rep.DowntimeNS != int64(wantDown) {
		t.Fatalf("downtime = %v, want %v", time.Duration(rep.DowntimeNS), wantDown)
	}
	if rep.LongestPauseNS != int64(30*time.Millisecond) {
		t.Fatalf("longest = %v, want 30ms", time.Duration(rep.LongestPauseNS))
	}
	if rep.MTTRNS != int64(wantDown)/2 {
		t.Fatalf("MTTR = %v, want %v", time.Duration(rep.MTTRNS), wantDown/2)
	}
	// Span is tracker start (0) to report time (49ms).
	if rep.SpanNS != int64(49*time.Millisecond) {
		t.Fatalf("span = %v", time.Duration(rep.SpanNS))
	}
	wantAvail := 100 * (1 - float64(wantDown)/float64(49*time.Millisecond))
	if diff := rep.AvailabilityPct - wantAvail; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("availability = %v, want %v", rep.AvailabilityPct, wantAvail)
	}
	// Fault at 6ms, next success at 35ms.
	if rep.FaultRecoveryNS != int64(29*time.Millisecond) {
		t.Fatalf("fault recovery = %v, want 29ms", time.Duration(rep.FaultRecoveryNS))
	}
}

func TestSLOTimelineAndBudgetBurn(t *testing.T) {
	tr, updates, faults := sloScript(t)
	rep := tr.Report(updates, faults)

	// Completions land in windows 0 (1..5ms), 1 (35..39ms) and 2 (40..49ms).
	if rep.WindowsTotal != 3 {
		t.Fatalf("timeline = %+v, want 3 windows", rep.Timeline)
	}
	byWin := map[int64]SLOWindowPoint{}
	for _, p := range rep.Timeline {
		byWin[p.Window] = p
	}
	if p := byWin[0]; p.OK != 5 || p.Fail != 0 || p.SuccessRate != 1 || p.OverBudget {
		t.Fatalf("window 0 = %+v", p)
	}
	// Window 1 contains the 3ms recovery latency: p99 over the 1ms budget.
	if p := byWin[1]; !p.OverBudget || p.P99NS < int64(time.Millisecond) {
		t.Fatalf("window 1 = %+v, want over budget", p)
	}
	if rep.WindowsOver != 1 {
		t.Fatalf("windows over = %d, want 1", rep.WindowsOver)
	}
	wantBurn := 100.0 / 3.0
	if diff := rep.BudgetBurnPct - wantBurn; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("burn = %v, want %v", rep.BudgetBurnPct, wantBurn)
	}
}

// TestSLOAttributionSlack pins the slack semantics: a fault that fired
// up to attributionSlack before the gap opened still explains it, but
// one further back does not.
func TestSLOAttributionSlack(t *testing.T) {
	const gapAt = 20 * time.Millisecond
	for _, tc := range []struct {
		name      string
		faultAt   time.Duration
		wantCause string
	}{
		{"fault-within-slack", gapAt - attributionSlack, "fault"},
		{"fault-too-early", gapAt - attributionSlack - time.Microsecond, "unattributed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &manualClock{}
			r := New(clock.now, Options{})
			tr := NewSLOTracker(r)
			for at := time.Millisecond; at <= gapAt; at += time.Millisecond {
				clock.t = at
				tr.Request(true, 100*time.Microsecond)
			}
			clock.t = gapAt + 7*time.Millisecond
			tr.Request(true, 100*time.Microsecond)
			rep := tr.Report(nil, []time.Duration{tc.faultAt})
			// One gap, 20->27ms; the requests before it leave none.
			if len(rep.Downtime) != 1 {
				t.Fatalf("downtime = %+v, want 1 window", rep.Downtime)
			}
			if got := rep.Downtime[0].Cause; got != tc.wantCause {
				t.Fatalf("cause = %q, want %q", got, tc.wantCause)
			}
		})
	}
}

func TestSLOTrackerNilSafe(t *testing.T) {
	var tr *SLOTracker
	tr.Request(true, time.Millisecond)
	if rep := tr.Report(nil, nil); rep.Requests != 0 || len(rep.Downtime) != 0 {
		t.Fatalf("nil tracker report = %+v", rep)
	}
}
