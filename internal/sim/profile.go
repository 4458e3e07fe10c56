package sim

import "time"

// SliceProfiler receives exact virtual-time attribution from a
// Scheduler. Unlike a sampling profiler, every virtual nanosecond a
// task holds the CPU is delivered exactly once, split into segments at
// label-stack changes, so the segments of one scheduler tile its
// timeline: Σ segment widths + idle = makespan, with no sampling error.
//
// The interface is structural on purpose: internal/obs implements it
// without sim importing obs, preserving the layering (obs observes sim,
// never the other way around).
//
// Both methods are called in scheduler context (between dispatches, or
// from the running task itself at a label boundary) and must not block
// or touch the scheduler: a profiler is a pure observer, exactly like
// Scheduler.OnSlice.
type SliceProfiler interface {
	// ProfileSlice charges the half-open CPU interval [start, end) to
	// the task under the given label stack. labels is the task's live
	// stack — implementations must copy what they keep.
	ProfileSlice(task string, labels []string, start, end time.Duration)

	// ProfileWait charges the half-open off-CPU interval [start, end)
	// to the task: time it spent blocked (ring waits, lockstep drains)
	// or doing sleep-modeled parallel work (follower replay, parallel
	// state transformation). Off-CPU intervals overlap other tasks'
	// slices, so they form a separate accounting dimension from
	// ProfileSlice and are excluded from the sums-to-makespan
	// invariant.
	ProfileWait(task string, labels []string, wait string, start, end time.Duration)
}

// SetProfiler attaches (or, with nil, detaches) a slice profiler. It is
// the profiler's one switch: PushLabel, PopLabel and ChargeWait do
// nothing until a sink is attached, so chokepoints call them
// unconditionally. Like OnSlice it is observation-only: attaching a
// profiler changes neither the clock nor any scheduling decision, so a
// profiled run replays the exact schedule of a bare one.
func (s *Scheduler) SetProfiler(p SliceProfiler) { s.profiler = p }

// Profiled reports whether the task's scheduler has a profiler attached.
// Only per-syscall chokepoints need it, to skip their label pushes on
// the unprofiled hot path; everything else calls the label methods
// unconditionally.
func (t *Task) Profiled() bool { return t.s.profiler != nil }

// flushSegment closes the open CPU segment of the currently running
// task at the present clock and starts the next one. Called by dispatch
// at slice end and by PushLabel/PopLabel at label boundaries, so each
// delivered segment carries the one label stack that was live for its
// whole width.
func (s *Scheduler) flushSegment(t *Task) {
	if s.clock > s.segStart {
		s.profiler.ProfileSlice(t.name, t.labels, s.segStart, s.clock)
	}
	s.segStart = s.clock
}

// PushLabel pushes a profiling label onto the task's attribution stack.
// With no profiler attached this is a no-op (a few ns), so chokepoints
// may call it unconditionally on hot paths. Pushing from outside the
// running task is allowed (the new stack takes effect at the task's
// next segment); pushing from inside first flushes the open segment so
// the preceding virtual time keeps the old stack.
func (t *Task) PushLabel(label string) {
	if t.s.profiler == nil {
		return
	}
	if t.s.current == t {
		t.s.flushSegment(t)
	}
	t.labels = append(t.labels, label)
}

// PopLabel pops the most recent profiling label. Safe in deferred
// cleanup paths: it never re-raises the killed sentinel (unlike
// Yield/Advance) and popping an empty stack is a no-op.
func (t *Task) PopLabel() {
	if t.s.profiler == nil {
		return
	}
	if t.s.current == t {
		t.s.flushSegment(t)
	}
	if n := len(t.labels); n > 0 {
		t.labels = t.labels[:n-1]
	}
}

// ChargeWait attributes the off-CPU interval [start, now) to the task
// under its current label stack plus the wait label. Chokepoints call
// it after a Block or Sleep episode, passing the virtual time observed
// before parking. A no-op without a profiler.
func (t *Task) ChargeWait(wait string, start time.Duration) {
	if t.s.profiler == nil {
		return
	}
	if end := t.s.clock; end > start {
		t.s.profiler.ProfileWait(t.name, t.labels, wait, start, end)
	}
}
