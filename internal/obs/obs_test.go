package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// manualClock is a settable virtual-time source.
type manualClock struct{ t time.Duration }

func (c *manualClock) now() time.Duration { return c.t }

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add("c", 5)
	r.Inc("c")
	r.SetGauge("g", 1)
	r.MaxGauge("g", 2)
	r.Observe("h", time.Second)
	r.Emit(KindRole, "a", "d")
	r.Emitf(KindRole, "a", "%d", 1)
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Counter("c") != 0 || r.Gauge("g") != 0 || r.Hist("h") != nil {
		t.Fatal("nil recorder returned non-zero state")
	}
	if r.Now() != 0 || r.TraceDropped() != 0 {
		t.Fatal("nil recorder returned non-zero time/dropped")
	}
	if r.Milestones() != nil {
		t.Fatal("nil recorder returned events")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if !strings.Contains(r.FormatMetrics(), "no recorder") ||
		!strings.Contains(r.FormatTimeline(), "no recorder") {
		t.Fatal("nil formatters missing placeholder")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := New(nil, Options{})
	r.Inc("c")
	r.Add("c", 4)
	if got := r.Counter("c"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.SetGauge("g", 7)
	r.MaxGauge("g", 3) // lower: no change
	if got := r.Gauge("g"); got != 7 {
		t.Fatalf("gauge after lower MaxGauge = %d, want 7", got)
	}
	r.MaxGauge("g", 11)
	if got := r.Gauge("g"); got != 11 {
		t.Fatalf("gauge after higher MaxGauge = %d, want 11", got)
	}
	r.Observe("h", time.Millisecond)
	r.Observe("h", 3*time.Millisecond)
	r.Observe("h", -time.Second) // clamped to 0
	h := r.Hist("h")
	if h.Count != 3 || h.Max != 3*time.Millisecond || h.Min != 0 {
		t.Fatalf("hist = %+v", h)
	}
	if h.Mean() != (4*time.Millisecond)/3 {
		t.Fatalf("mean = %v", h.Mean())
	}
	var n int64
	for _, b := range h.Buckets {
		n += b
	}
	if n != 3 {
		t.Fatalf("bucket sum = %d, want 3", n)
	}
	// Overflow: beyond the last power-of-two bound.
	r.Observe("big", BucketBound(histBuckets-1)+time.Hour)
	if got := r.Hist("big").Buckets[histBuckets]; got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

// Lifecycle events are kept first-come: past milestoneCap the newest are
// refused and counted, so the start of the story survives.
func TestMilestoneRetention(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{})
	for i := 0; i < milestoneCap+2; i++ {
		clk.t = time.Duration(i) * time.Second
		r.Emit(KindRole, "proc1", "role")
	}
	ms := r.Milestones()
	if len(ms) != milestoneCap || ms[0].At != 0 || ms[milestoneCap-1].At != time.Duration(milestoneCap-1)*time.Second {
		t.Fatalf("kept %d milestones from %v to %v, want the first %d", len(ms), ms[0].At, ms[len(ms)-1].At, milestoneCap)
	}
	if r.TraceDropped() != 2 || r.Snapshot().TraceDropped != 2 || r.Snapshot().TraceLen != milestoneCap {
		t.Fatalf("dropped = %d, snapshot = %+v; want 2 dropped, %d kept", r.TraceDropped(), r.Snapshot(), milestoneCap)
	}
}

func TestEveryKindIsNamed(t *testing.T) {
	for k := KindRingBlock; k <= KindFault; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("%d has no name", int(k))
		}
	}
	if len(kindNames) != int(KindFault)+1 {
		t.Fatalf("%d names for %d kinds", len(kindNames), int(KindFault)+1)
	}
}

func TestFormatTimeline(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{})
	r.Emit(KindRole, "proc1", "started as single leader")
	clk.t = 2 * time.Second
	r.Emit(KindRuleHit, "proc2", `rule "r1" rewrote 2 events`)
	story := r.FormatTimeline()
	for _, want := range []string{"[  0.000000s] role         proc1", "started as single leader", "[  2.000000s] rule.hit", `rule "r1"`} {
		if !strings.Contains(story, want) {
			t.Fatalf("timeline missing %q:\n%s", want, story)
		}
	}
	// Events are in emission order, which is virtual-time order.
	if strings.Index(story, "started") > strings.Index(story, "rule") {
		t.Fatalf("timeline out of order:\n%s", story)
	}
}

// A lifecycle view past milestoneCap says so: the milestones are kept
// first-come, so what is lost is the end of the story.
func TestFormatTimelineReportsDroppedMilestones(t *testing.T) {
	r := New(nil, Options{})
	for i := 0; i < milestoneCap; i++ {
		r.Emit(KindRole, "proc1", "promoted to leader")
	}
	r.Emit(KindRole, "proc1", "ejected")
	if out := r.FormatTimeline(); strings.Contains(out, "ejected") || !strings.Contains(out, "(1 lifecycle events dropped at capacity)") {
		t.Errorf("FormatTimeline hides the dropped milestone:\n%s", out)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New(nil, Options{})
	r.Inc("a.count")
	r.SetGauge("a.gauge", 9)
	r.Observe("a.hist", 5*time.Microsecond)
	r.Emit(KindRole, "proc1", "x")
	r.Emit(KindRuleHit, "p", "y")
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.count"] != 1 || back.Gauges["a.gauge"] != 9 {
		t.Fatalf("round trip lost registry: %+v", back)
	}
	h := back.Histograms["a.hist"]
	if h.Count != 1 || h.MaxNS != int64(5*time.Microsecond) || len(h.Buckets) != histBuckets+1 {
		t.Fatalf("round trip lost histogram: %+v", h)
	}
	if back.TraceLen != 2 {
		t.Fatalf("TraceLen = %d, want 2", back.TraceLen)
	}
	// Deterministic marshalling (map keys sorted by encoding/json).
	again, _ := json.Marshal(r.Snapshot())
	if string(data) != string(again) {
		t.Fatal("snapshot JSON not deterministic")
	}
}

func TestFormatMetrics(t *testing.T) {
	r := New(nil, Options{})
	r.Inc("z.last")
	r.Inc("a.first")
	r.SetGauge("g", 3)
	r.Observe("h", time.Millisecond)
	for i := 0; i <= milestoneCap; i++ { // the last one is dropped
		r.Emit(KindRole, "proc1", "role")
	}
	out := r.FormatMetrics()
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	for _, want := range []string{"counters:", "gauges:", "histograms:", "milestones: 1 lifecycle events dropped at capacity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatMetrics missing %q:\n%s", want, out)
		}
	}
}
