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
	r.Emit(KindStage, "a", "d")
	r.Emitf(KindSyscall, "a", "%d", 1)
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Counter("c") != 0 || r.Gauge("g") != 0 || r.Hist("h") != nil {
		t.Fatal("nil recorder returned non-zero state")
	}
	if r.Now() != 0 || r.TraceDropped() != 0 {
		t.Fatal("nil recorder returned non-zero time/dropped")
	}
	if r.Trace() != nil || r.Milestones() != nil {
		t.Fatal("nil recorder returned events")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if !strings.Contains(r.FormatMetrics(), "no recorder") ||
		!strings.Contains(r.FormatTimeline(false), "no recorder") {
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

func TestHotRingEvictionAndMilestoneRetention(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{})
	for i := 0; i < traceCap+6; i++ {
		clk.t = time.Duration(i) * time.Second
		r.Emit(KindSyscall, "p", "call")
	}
	if r.TraceDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.TraceDropped())
	}
	// The surviving window is the most recent traceCap, in time order.
	trace := r.Trace()
	if len(trace) != traceCap {
		t.Fatalf("trace len = %d, want %d", len(trace), traceCap)
	}
	for i, e := range trace {
		want := time.Duration(6+i) * time.Second
		if e.At != want {
			t.Fatalf("trace[%d].At = %v, want %v", i, e.At, want)
		}
	}
	// Milestones have separate bounded retention: hot flooding above did
	// not touch them, and their own cap counts overflow.
	for i := 0; i < milestoneCap+2; i++ {
		r.Emit(KindStage, "ctl", "stage")
	}
	if got := len(r.Milestones()); got != milestoneCap {
		t.Fatalf("milestones = %d, want %d", got, milestoneCap)
	}
	if r.Snapshot().MilestonesDropped != 2 {
		t.Fatalf("milestonesDropped = %d, want 2", r.Snapshot().MilestonesDropped)
	}
}

func TestKindHotPartition(t *testing.T) {
	hot := map[Kind]bool{KindSyscall: true, KindValidate: true, KindRingPut: true, KindRingGet: true}
	for k := KindSyscall; k <= KindFault; k++ {
		if k.Hot() != hot[k] {
			t.Fatalf("%v.Hot() = %v", k, k.Hot())
		}
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("%d has no name", int(k))
		}
	}
}

func TestFormatTimeline(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{})
	r.Emit(KindStage, "ctl", "deployed v1")
	clk.t = time.Second
	r.Emit(KindSyscall, "proc1", "write(1) = 5")
	clk.t = 2 * time.Second
	r.Emit(KindRuleHit, "proc2", `rule "r1" rewrote 2 events`)
	full := r.FormatTimeline(false)
	for _, want := range []string{"deployed v1", "write(1) = 5", `rule "r1"`} {
		if !strings.Contains(full, want) {
			t.Fatalf("full timeline missing %q:\n%s", want, full)
		}
	}
	story := r.FormatTimeline(true)
	if strings.Contains(story, "write(1)") {
		t.Fatalf("milestone timeline contains hot event:\n%s", story)
	}
	if !strings.Contains(story, "deployed v1") || !strings.Contains(story, `rule "r1"`) {
		t.Fatalf("milestone timeline missing milestones:\n%s", story)
	}
	// Events are ordered by virtual time.
	if strings.Index(full, "deployed") > strings.Index(full, "rule") {
		t.Fatalf("timeline out of order:\n%s", full)
	}
}

// A lifecycle view past milestoneCap says so: the milestones are kept
// first-come, so what is lost is the end of the story.
func TestFormatTimelineReportsDroppedMilestones(t *testing.T) {
	r := New(nil, Options{})
	for i := 0; i < milestoneCap; i++ {
		r.Emit(KindStage, "ctl", "updating")
	}
	r.Emit(KindStage, "ctl", "committed")
	for _, onlyMilestones := range []bool{true, false} {
		out := r.FormatTimeline(onlyMilestones)
		if strings.Contains(out, "committed") || !strings.Contains(out, "(1 lifecycle events dropped at capacity)") {
			t.Errorf("FormatTimeline(%v) hides the dropped milestone:\n%s", onlyMilestones, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New(nil, Options{})
	r.Inc("a.count")
	r.SetGauge("a.gauge", 9)
	r.Observe("a.hist", 5*time.Microsecond)
	r.Emit(KindStage, "ctl", "x")
	r.Emit(KindSyscall, "p", "y")
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
	for i := 0; i <= traceCap; i++ { // the last one evicts
		r.Emit(KindSyscall, "p", "call")
	}
	out := r.FormatMetrics()
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	for _, want := range []string{"counters:", "gauges:", "histograms:", "1 hot events evicted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatMetrics missing %q:\n%s", want, out)
		}
	}
}
