// Package obs is the flight recorder for the MVEDSUA pipeline: a
// zero-dependency (stdlib-only) metrics registry plus a bounded
// structured trace of typed mechanism milestones.
//
// The paper's whole evaluation (§6, Tables 2-4, Figures 6-7) is a story
// told from measurements — interception overhead, buffer occupancy,
// divergence timing, update-lifecycle latency. The recorder gives every
// layer of the reproduction a first-class way to report those
// measurements: sysabi dispatch, the ring buffer, the MVE monitor, the
// update controller, and the chaos layer all emit into one Recorder, so
// its milestones beside the controller's timeline explain *why* a run
// recovered, not just that it did.
//
// Everything is instrumented behind a nil check: all Recorder methods
// are safe on a nil receiver and return immediately, so a disabled
// recorder costs one pointer comparison on the hot path. Time is
// virtual: the recorder is constructed over the sim scheduler's clock
// and never advances it, which keeps instrumented runs bit-identical to
// uninstrumented ones.
//
// The trace holds the update's mechanism milestones: role changes, a
// rule's first hit in each process, divergences, stalls, faults and
// ring-buffer block/discard/reset, kept first-come in a bounded list
// that counts what it dropped. The Figure 2 stage machine — its
// transitions, verdicts and retries — is recorded once, in the
// controller's typed timeline (core.Controller.Timeline), never here.
// Per-event traffic (syscalls, validations, ring puts and gets) is only
// counted, in the counters and histograms, so steady state formats
// nothing.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind types a trace event.
type Kind int

// Event kinds, every one a mechanism milestone: the stage machine is
// recorded in the controller's timeline instead.
const (
	KindRingBlock   Kind = iota // producer parked on a full ring buffer
	KindRingDiscard             // entry dropped by the non-blocking append
	KindRingReset               // ring buffer reset (rollback/retry reuse)
	KindRuleHit                 // a DSL rewrite rule's first hit in a process (rule attribution)
	KindDivergence              // follower mismatched the recorded stream
	KindStall                   // watchdog / buffer-full stall verdict
	KindRole                    // process role change (attach/promote/drop)
	KindFault                   // chaos injection fired
)

var kindNames = map[Kind]string{
	KindRingBlock:   "ring.block",
	KindRingDiscard: "ring.discard",
	KindRingReset:   "ring.reset",
	KindRuleHit:     "rule.hit",
	KindDivergence:  "divergence",
	KindStall:       "stall",
	KindRole:        "role",
	KindFault:       "fault",
}

// String returns the kind's timeline label.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one trace entry.
type Event struct {
	At     time.Duration // virtual time
	Kind   Kind
	Actor  string // proc name, role, or subsystem
	Detail string // human-readable specifics (rule name, stall reason, ...)
}

// String renders the event as one timeline line.
func (e Event) String() string {
	return fmt.Sprintf("[%10.6fs] %-12s %-24s %s", e.At.Seconds(), e.Kind, e.Actor, e.Detail)
}

// Histogram is a virtual-clock latency histogram with power-of-two
// bucket bounds from 1µs up; observations above the last bound land in
// the overflow bucket.
type Histogram struct {
	Count   int64
	Sum     time.Duration
	Max     time.Duration
	Min     time.Duration
	Buckets [histBuckets + 1]int64 // last slot is overflow
}

// histBuckets bounds: 1µs << i for i in [0, histBuckets).
const histBuckets = 24

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// bucketIndex returns the slot for one observation (histBuckets is the
// overflow slot).
func bucketIndex(d time.Duration) int {
	for i := 0; i < histBuckets; i++ {
		if d <= BucketBound(i) {
			return i
		}
	}
	return histBuckets
}

func (h *Histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Count++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
	if h.Count == 1 || d < h.Min {
		h.Min = d
	}
	h.Buckets[bucketIndex(d)]++
}

// Mean returns the average observation, or zero when empty.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-quantile (0 < q < 1, e.g. 0.99 for p99) by
// linear interpolation inside the bucket holding the q*Count-th
// observation. Exact tracked extremes bound the estimate: q <= 0
// returns Min, q >= 1 returns Max, and a rank landing in the overflow
// bucket returns Max. Zero on an empty or nil histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, b := range h.Buckets {
		n := float64(b)
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == histBuckets {
				return h.Max
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = BucketBound(i - 1)
			}
			hi := BucketBound(i)
			v := lo + time.Duration((rank-cum)/n*float64(hi-lo))
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum += n
	}
	return h.Max
}

// Options sizes a Recorder.
type Options struct {
	// SpanCapacity bounds the span-event store used once EnableSpans is
	// called (default 16384; a circular tail with a dropped count).
	SpanCapacity int
}

const (
	// defaultSpanCap is the span store bound when Options left it unset.
	defaultSpanCap = 16384
	// milestoneCap bounds the lifecycle-event list.
	milestoneCap = 4096
)

// Recorder is the flight recorder: a metrics registry (counters, gauges,
// histograms) plus the bounded structured trace. The zero value is not
// usable; construct with New. All methods are nil-safe.
type Recorder struct {
	now func() time.Duration

	// root holds the recorder's metrics; Add/Observe/Counter and the
	// rest delegate to it.
	root *Registry

	milestones        []Event
	milestonesDropped int64 // lifecycle events refused at milestoneCap

	spansOn      bool // set by EnableSpans; gates all span recording
	spans        []SpanEvent
	spanCap      int
	spanStart    int   // oldest slot once the span store wrapped
	spansDropped int64 // span events evicted from the circular tail
	asyncSeq     uint64
}

// New builds a recorder over the given virtual-clock source (typically
// sim.Scheduler.Now). A nil now function pins all events at t=0.
func New(now func() time.Duration, opts Options) *Recorder {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Recorder{
		now:     now,
		root:    NewRegistry(""),
		spanCap: opts.SpanCapacity,
	}
}

// Now returns the recorder's current virtual time (zero on nil).
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.now()
}

// Add increments counter name by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.root.Add(name, delta)
}

// Inc increments counter name by one.
func (r *Recorder) Inc(name string) { r.Add(name, 1) }

// Counter returns the current value of a counter.
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.root.Counter(name)
}

// SetGauge records the latest value of gauge name.
func (r *Recorder) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.root.SetGauge(name, v)
}

// MaxGauge raises gauge name to v if v exceeds its current value
// (high-water-mark semantics).
func (r *Recorder) MaxGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.root.MaxGauge(name, v)
}

// Gauge returns the current value of a gauge.
func (r *Recorder) Gauge(name string) int64 {
	if r == nil {
		return 0
	}
	return r.root.Gauge(name)
}

// Observe records one duration into histogram name.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.root.Observe(name, d)
}

// Hist returns the named histogram, or nil.
func (r *Recorder) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.root.Hist(name)
}

// Root returns the recorder's registry.
func (r *Recorder) Root() *Registry {
	if r == nil {
		return nil
	}
	return r.root
}

// SetTraceDropSource does nothing: the scheduler keeps no trace that
// could drop. It stays for the benchmark adapter, which calls it.
func (r *Recorder) SetTraceDropSource(any) {}

// Emit appends a milestone stamped at the current virtual time,
// or counts it dropped once milestoneCap events are kept.
func (r *Recorder) Emit(kind Kind, actor, detail string) {
	if r == nil {
		return
	}
	if len(r.milestones) >= milestoneCap {
		r.milestonesDropped++
		return
	}
	r.milestones = append(r.milestones, Event{At: r.now(), Kind: kind, Actor: actor, Detail: detail})
}

// Emitf is Emit with a formatted detail string. It formats on every
// call, so it belongs on lifecycle paths only: per-event traffic is
// counted, never traced.
func (r *Recorder) Emitf(kind Kind, actor, format string, args ...interface{}) {
	if r == nil {
		return
	}
	r.Emit(kind, actor, fmt.Sprintf(format, args...))
}

// Enabled reports whether a recorder is attached (use to gate argument
// construction on hot paths).
func (r *Recorder) Enabled() bool { return r != nil }

// TraceDropped returns how many lifecycle events were dropped at
// capacity.
func (r *Recorder) TraceDropped() int64 {
	if r == nil {
		return 0
	}
	return r.milestonesDropped
}

// Milestones returns the milestones (role, rule, divergence, stall,
// fault, ring block/discard/reset), in emission order.
func (r *Recorder) Milestones() []Event {
	if r == nil {
		return nil
	}
	return append([]Event(nil), r.milestones...)
}

// HistogramSnapshot is the JSON shape of one histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	MaxNS   int64   `json:"max_ns"`
	MinNS   int64   `json:"min_ns"`
	MeanNS  int64   `json:"mean_ns"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot is a point-in-time export of the whole registry,
// JSON-serializable for the benchtool's machine-readable output.
type Snapshot struct {
	Counters     map[string]int64             `json:"counters"`
	Gauges       map[string]int64             `json:"gauges"`
	Histograms   map[string]HistogramSnapshot `json:"histograms"`
	TraceDropped int64                        `json:"trace_dropped"` // lifecycle events dropped at capacity
	TraceLen     int                          `json:"trace_len"`     // lifecycle events kept
}

// Snapshot exports the registry. Safe on nil (returns empty maps).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.root.snapshotInto(&s)
	s.TraceDropped = r.milestonesDropped
	s.TraceLen = len(r.milestones)
	return s
}

// FormatMetrics renders the registry as a human-readable table.
func (r *Recorder) FormatMetrics() string {
	if r == nil {
		return "(no recorder attached)\n"
	}
	var b strings.Builder
	writeSorted := func(title string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		b.WriteString(title + ":\n")
		keys := make([]string, 0, len(m))
		for k := range m { // maporder: ok — keys are sorted below
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-32s %12d\n", k, m[k])
		}
	}
	writeSorted("counters", r.root.counters)
	writeSorted("gauges", r.root.gauges)
	if len(r.root.hists) > 0 {
		b.WriteString("histograms:\n")
		keys := make([]string, 0, len(r.root.hists))
		for k := range r.root.hists { // maporder: ok — keys are sorted below
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := r.root.hists[k]
			fmt.Fprintf(&b, "  %-32s n=%d mean=%v min=%v p50=%v p90=%v p99=%v max=%v\n",
				k, h.Count, h.Mean(), h.Min, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
		}
	}
	if r.milestonesDropped > 0 {
		fmt.Fprintf(&b, "milestones: %d lifecycle events dropped at capacity\n", r.milestonesDropped)
	}
	if r.spansDropped > 0 {
		fmt.Fprintf(&b, "spans.dropped: %d span events evicted from the store\n", r.spansDropped)
	}
	return b.String()
}

// FormatTimeline renders the milestones as a human-readable timeline,
// ending with how many were dropped at capacity.
func (r *Recorder) FormatTimeline() string {
	if r == nil {
		return "(no recorder attached)\n"
	}
	var b strings.Builder
	for _, e := range r.milestones {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if r.milestonesDropped > 0 {
		fmt.Fprintf(&b, "(%d lifecycle events dropped at capacity)\n", r.milestonesDropped)
	}
	return b.String()
}
