package obs

import "time"

// Span tracing: the causal tier above the flight recorder's point
// events. Where the trace answers "what happened", spans answer "where
// did the time go" — each one is an interval (or an instant) on a named
// track, exportable as Chrome trace_event JSON that loads directly in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Spans are gated twice: a nil recorder costs one pointer comparison
// (as everywhere in obs), and an attached recorder records spans only
// after EnableSpans. The default benchmark scenarios never enable
// spans, which is what keeps the committed golden artifacts
// (BENCH_metrics.json, BENCH_perf.json, table2/fig7) byte-identical —
// span instrumentation throughout the pipeline checks SpansEnabled
// before doing any work.
//
// The taxonomy follows the trace_event format:
//
//   - PhaseSlice ('X'): a complete interval on a track — a task's run
//     slice between two scheduler dispatches.
//   - PhaseBegin/PhaseEnd ('B'/'E'): a nested synchronous interval —
//     e.g. a DSU state transfer inside the runtime's update point.
//   - PhaseAsyncBegin/PhaseAsyncEnd ('b'/'e'): a long-lived arc that
//     other work interleaves with, paired by (track, id) — controller
//     stages, MVE role epochs, fork→promote windows, and in-flight
//     client requests (the request id doubles as the span id).
//   - PhaseInstant ('i'): a point marker; milestones (divergence,
//     stall, fault, ...) are mapped to instants at export time.

// SpanPhase is the trace_event phase of a span event.
type SpanPhase byte

// Span phases (values are the Chrome trace_event ph letters).
const (
	PhaseSlice      SpanPhase = 'X'
	PhaseBegin      SpanPhase = 'B'
	PhaseEnd        SpanPhase = 'E'
	PhaseAsyncBegin SpanPhase = 'b'
	PhaseAsyncEnd   SpanPhase = 'e'
	PhaseInstant    SpanPhase = 'i'
)

// SpanEvent is one recorded span record (virtual-clock timestamps).
type SpanEvent struct {
	Phase  SpanPhase
	At     time.Duration // virtual start time
	Dur    time.Duration // PhaseSlice only
	Track  string        // task name, proc name, or subsystem
	Name   string
	ID     uint64 // async pairing id (async phases only)
	Detail string
}

// asyncSeqBase starts recorder-allocated async ids above the uint32
// range so they can never collide with client request ids, which share
// the async id space on the "request" track.
const asyncSeqBase = uint64(1) << 32

// EnableSpans turns on span recording. Until it is called every span
// method is a no-op after one boolean check, and all span-gated
// instrumentation across the pipeline (dsu, vos, request attribution)
// stays dark — which is what keeps un-spanned runs byte-identical to
// the committed golden artifacts.
func (r *Recorder) EnableSpans() {
	if r == nil {
		return
	}
	r.spansOn = true
	if r.spanCap <= 0 {
		r.spanCap = defaultSpanCap
	}
}

// SpansEnabled reports whether span recording is on. Instrumentation
// sites gate on this before constructing span arguments.
func (r *Recorder) SpansEnabled() bool { return r != nil && r.spansOn }

func (r *Recorder) emitSpan(e SpanEvent) {
	if len(r.spans) < r.spanCap {
		r.spans = append(r.spans, e)
		return
	}
	// Overwrite the oldest slot (a circular tail).
	r.spans[r.spanStart] = e
	r.spanStart = (r.spanStart + 1) % r.spanCap
	r.spansDropped++
}

// Slice records a complete interval [start, end] on a track (trace_event
// 'X'). The scheduler's dispatch hook uses it for task run slices.
func (r *Recorder) Slice(track, name string, start, end time.Duration) {
	if !r.SpansEnabled() {
		return
	}
	if end < start {
		end = start
	}
	r.emitSpan(SpanEvent{Phase: PhaseSlice, At: start, Dur: end - start, Track: track, Name: name})
}

// BeginSpan opens a synchronous nested span on a track ('B'). Pair with
// EndSpan on the same track; nesting is by emission order, as in the
// trace_event format.
func (r *Recorder) BeginSpan(track, name, detail string) {
	if !r.SpansEnabled() {
		return
	}
	r.emitSpan(SpanEvent{Phase: PhaseBegin, At: r.now(), Track: track, Name: name, Detail: detail})
}

// EndSpan closes the innermost open synchronous span on a track ('E').
func (r *Recorder) EndSpan(track, name string) {
	if !r.SpansEnabled() {
		return
	}
	r.emitSpan(SpanEvent{Phase: PhaseEnd, At: r.now(), Track: track, Name: name})
}

// BeginAsync opens a long-lived async span and returns the id EndAsync
// must be called with. Async spans may overlap freely; viewers pair
// them by (track, id).
func (r *Recorder) BeginAsync(track, name, detail string) uint64 {
	if !r.SpansEnabled() {
		return 0
	}
	r.asyncSeq++
	id := asyncSeqBase + r.asyncSeq
	r.BeginAsyncID(track, name, detail, id)
	return id
}

// BeginAsyncID opens an async span under a caller-chosen id — used for
// request spans, where the client's request id is the natural span id.
func (r *Recorder) BeginAsyncID(track, name, detail string, id uint64) {
	if !r.SpansEnabled() {
		return
	}
	r.emitSpan(SpanEvent{Phase: PhaseAsyncBegin, At: r.now(), Track: track, Name: name, ID: id, Detail: detail})
}

// EndAsync closes the async span opened under id on the given track.
func (r *Recorder) EndAsync(track, name string, id uint64) {
	if !r.SpansEnabled() {
		return
	}
	r.emitSpan(SpanEvent{Phase: PhaseAsyncEnd, At: r.now(), Track: track, Name: name, ID: id})
}

// InstantSpan records a point marker on a track ('i').
func (r *Recorder) InstantSpan(track, name, detail string) {
	if !r.SpansEnabled() {
		return
	}
	r.emitSpan(SpanEvent{Phase: PhaseInstant, At: r.now(), Track: track, Name: name, Detail: detail})
}

// Spans returns the retained span events in emission order (oldest
// surviving first).
func (r *Recorder) Spans() []SpanEvent {
	if r == nil || len(r.spans) == 0 {
		return nil
	}
	out := make([]SpanEvent, 0, len(r.spans))
	for i := 0; i < len(r.spans); i++ {
		out = append(out, r.spans[(r.spanStart+i)%len(r.spans)])
	}
	return out
}

// SpansDropped returns how many span events the bounded store evicted.
func (r *Recorder) SpansDropped() int64 {
	if r == nil {
		return 0
	}
	return r.spansDropped
}

// chromeEvent is one trace_event record on the wire.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	ID   string            `json:"id,omitempty"`
	S    string            `json:"s,omitempty"`  // instant scope
	BP   string            `json:"bp,omitempty"` // flow binding point ("e" on flow finish)
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the trace_event JSON object format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePid is the single process id all tracks live under.
const chromePid = 1

// ExportChromeTrace renders the recorded spans plus the milestone
// timeline (as instant events) in Chrome trace_event JSON — load the
// output in https://ui.perfetto.dev or chrome://tracing. Each distinct
// track becomes a named thread; tids are assigned in order of first
// appearance, so the export is fully deterministic. Safe on nil and on
// a recorder without spans enabled (exports whatever is retained,
// possibly just milestones). The process metadata event is emitted
// even then, so every export is a valid trace viewers and
// ValidateChromeTrace accept.
func (r *Recorder) ExportChromeTrace() ([]byte, error) {
	return exportTrace([]traceProcess{{pid: chromePid, name: "mvedsua", rec: r}}, nil)
}
