// Package mve implements the multi-version execution monitor — the
// reproduction's counterpart of Varan (Hosek & Cadar, ASPLOS'15) as
// extended by MVEDSUA (§3.1, §4 of the paper).
//
// One Monitor supervises up to two processes (version instances):
//
//   - In single-leader mode the sole process runs against the virtual OS
//     with lightweight interception: every syscall is observed (and
//     charged an interception cost) and kernel state relevant to a later
//     fork is tracked, but nothing is recorded.
//
//   - In leader/follower mode the leader executes syscalls natively and
//     records (call, result) events into the ring buffer; the follower
//     validates its own syscall stream against those events — after the
//     divergence-rewrite rules have been applied — and receives the
//     leader's recorded results instead of touching the OS.
//
// Promotion (§3.2, t4-t5) is initiated with RequestPromote: the leader
// appends a promotion control event and immediately becomes a follower;
// when the updated follower drains the buffer and reaches that event, it
// takes over as leader. Any mismatch between a follower syscall and the
// (rewritten) recorded stream raises a Divergence, which MVEDSUA's
// controller turns into a rollback or a promotion.
//
// Recording and replaying an event allocates nothing in steady state.
// Payload bytes move under the ring's rule that the taker owns what it
// takes (see internal/ringbuf): the leader hands its live call and result
// to the ring, which copies them only if it appends; a follower owns the
// event it drained, passes the result's data on to its application
// without another copy, and gives the call's payload — needed only for
// the comparison — back to the ring when the event retires. Whatever
// outlives that moment (a Divergence report) holds bytes of its own.
package mve

import (
	"fmt"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// Role is a process's current MVE role.
type Role int

// Roles.
const (
	RoleSingleLeader Role = iota // alone, lightweight interception
	RoleLeader                   // executing natively, recording
	RoleFollower                 // replaying and validating
	RoleRetired                  // handed leadership to a promoted canary; parked until reaped
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleSingleLeader:
		return "single-leader"
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	case RoleRetired:
		return "retired"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Costs models the virtual-time overheads of the monitor's machinery.
// Zero values make monitoring free, which functional tests use; the
// benchmark harness installs constants calibrated against the paper's
// Table 2 (see internal/bench).
type Costs struct {
	// Intercept is charged to every syscall in single-leader mode
	// (Varan's binary-rewriting interception and kernel-state tracking).
	Intercept time.Duration
	// Record is charged to every leader syscall in leader/follower mode
	// (interception + ring-buffer registration + cross-core signalling).
	Record time.Duration
	// Replay is the follower's per-event processing time. It is modelled
	// as parallel work: the follower sleeps in virtual time rather than
	// charging the shared clock, so catch-up overlaps leader service —
	// the effect behind the paper's Figure 7.
	Replay time.Duration
	// LockstepSync, when Lockstep is enabled, is charged to the leader
	// for every syscall while it waits for the follower to consume the
	// event (the MUC/Mx execution model the paper compares against).
	LockstepSync time.Duration
}

// FullPolicy selects what the leader does when the ring buffer is full:
// the paper's default is to block until the follower drains entries
// (reintroducing the Figure 7 pause once the buffer is undersized), but
// a production deployment can instead discard the lagging follower so
// the update degrades rather than the service (§3.3's "followers that
// lag too far behind the leader are discarded").
type FullPolicy int

// Full-buffer policies.
const (
	// FullBlock parks the leader until the follower frees a slot.
	FullBlock FullPolicy = iota
	// FullDiscard raises a Stall (reason "buffer-full") instead of
	// blocking; the controller reacts by dropping the follower.
	FullDiscard
)

// String returns the policy name.
func (p FullPolicy) String() string {
	switch p {
	case FullBlock:
		return "block"
	case FullDiscard:
		return "discard-follower"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Stall describes a follower that stopped consuming the event stream —
// the non-crashing failure class (infinite loops, silent hangs) that
// timeout-based detection catches where divergence checking cannot
// (§3.3, §6.2 "some DSU errors cause the program to hang").
type Stall struct {
	Proc   string
	Reason string // "no-progress" (watchdog) or "buffer-full" (discard policy)
	// Stalled is how long the follower made no progress (no-progress
	// stalls; zero for buffer-full).
	Stalled time.Duration
	// Pending is the ring-buffer occupancy at detection time.
	Pending int
	// Dropped is the ring buffer's discard count at detection time:
	// non-zero only on the buffer-full (discard-policy) path, so a
	// discarded follower is distinguishable from a merely hung one.
	Dropped int
}

// String formats the stall for logs.
func (st Stall) String() string {
	if st.Reason == "buffer-full" {
		return fmt.Sprintf("stall in %s: ring buffer full (%d pending, %d dropped)", st.Proc, st.Pending, st.Dropped)
	}
	return fmt.Sprintf("stall in %s: no progress for %v (%d pending)", st.Proc, st.Stalled, st.Pending)
}

// Divergence describes a follower syscall that did not match the
// (rewritten) leader stream.
type Divergence struct {
	Proc     string       // name of the diverging follower
	Seq      uint64       // sequence number of the expected event
	Expected sysabi.Event // what the leader's (rewritten) stream promised
	Got      sysabi.Call  // what the follower actually issued
	Reason   string
}

// String formats the divergence for logs.
func (d Divergence) String() string {
	return fmt.Sprintf("divergence in %s at #%d: expected %s, got %s (%s)",
		d.Proc, d.Seq, d.Expected.Call, d.Got, d.Reason)
}

// Stats aggregates monitor activity counters.
type Stats struct {
	// Intercepted counts single-leader-mode syscalls.
	Intercepted int64
	// Recorded counts events the leader registered on the ring buffer.
	Recorded int64
	// Replayed counts expected events validated by followers.
	Replayed int64
	// Rewritten counts rule firings across all followers.
	Rewritten int64
	// Promotions counts completed leader/follower swaps.
	Promotions int64
	// Stalls counts follower stalls raised (watchdog or buffer-full).
	Stalls int64
}

// Monitor coordinates the two version processes.
type Monitor struct {
	sched  *sim.Scheduler
	kernel *vos.Kernel
	costs  Costs

	// ring is the one recorded stream: the leader appends, and every
	// consumer proc (duo follower, demoted leader, fleet variant, canary)
	// reads through its own cursor.
	ring     *ringbuf.MultiBuffer
	leader   *Proc
	follower *Proc

	// Fleet mode (K>=1 variants, see fleet.go): failures are judged by
	// majority quorum instead of the duo's binary keep-or-rollback.
	variants []*Proc
	canary   *Proc

	// Lockstep forces the leader to wait for the follower after every
	// recorded event, reproducing the MUC/Mx baseline's behaviour.
	Lockstep bool

	// FullPolicy selects the leader's behaviour on a full ring buffer.
	// The zero value (FullBlock) preserves the paper's semantics.
	FullPolicy FullPolicy

	// WatchdogDeadline, when positive, arms a follower-liveness watchdog:
	// a follower that consumes no events for this much virtual time while
	// work is pending raises a Stall. Zero disables the watchdog. The
	// deadline must comfortably exceed the per-event Replay cost, or a
	// merely-slow follower is mistaken for a hung one.
	WatchdogDeadline time.Duration

	// StallJudge, when set, replaces the watchdog's built-in
	// stalled >= deadline comparison: each poll tick passes the
	// follower's no-progress age and pending-entry count to the judge,
	// and a true verdict raises the Stall. The core controllers install
	// a health-engine-backed judge here whose follower-liveness rule
	// reproduces the built-in comparison exactly, so the two paths are
	// behaviorally identical; a custom judge can substitute any policy.
	StallJudge func(proc string, stalledFor time.Duration, pending int) bool

	// OnStall is invoked when the watchdog declares a follower hung or
	// the discard policy hits a full buffer. The handler decides what to
	// do (MVEDSUA's controller rolls the update back); with no handler
	// the stall is only logged and counted.
	OnStall func(Stall)

	// OnDivergence is invoked (from the follower's task) when the
	// follower diverges. The follower then parks until killed; the
	// handler decides whether to roll back or promote.
	OnDivergence func(Divergence)

	// OnPromoted is invoked when a promotion completes: the old follower
	// has drained the buffer and taken over as leader (§3.2 t5).
	OnPromoted func(newLeader *Proc)

	// OnVerdict is invoked when a fleet variant fails (divergence or
	// stall raised from inside the monitor) with the quorum's decision.
	// Crash verdicts are computed by FailVariant at the caller's request
	// instead, since crash detection lives outside the monitor. The
	// handler owns the consequences (eject-and-respawn, canary rollback,
	// or fleet abort); with no handler the verdict is only logged.
	OnVerdict func(Verdict)

	promoteRequested bool
	divergences      []Divergence

	// Coarse monitor event log. Disabled by default: logf formats (and
	// retains) nothing unless EnableEventLog was called, mirroring the
	// obs.Recorder.Enabled gate, so hot paths that narrate (divergences,
	// promotions, rule hits) don't pay fmt.Sprintf for a log nobody
	// reads. When enabled, retention is bounded: the newest logCap lines
	// are kept and older ones are counted in eventsDropped.
	logEnabled    bool
	logCap        int
	events        []string // circular once len == logCap
	eventsStart   int      // index of the oldest retained line
	eventsDropped int64

	// Stats aggregates monitor activity for reporting.
	Stats Stats

	// rec is the optional flight recorder; nil costs one pointer check
	// per instrumented operation. Set via SetRecorder.
	rec *obs.Recorder

	// promoWait parks a demoted leader between writing the promotion
	// event (t4) and the new leader taking over (t5): during that window
	// the buffer still holds events meant for the old follower, and the
	// demoted process must not steal them.
	promoWait sim.WaitQueue
}

// New returns a monitor bound to the scheduler and kernel, with the given
// ring-buffer capacity for leader/follower phases.
func New(kernel *vos.Kernel, bufCap int, costs Costs) *Monitor {
	return &Monitor{
		sched:  kernel.Scheduler(),
		kernel: kernel,
		costs:  costs,
		ring:   ringbuf.NewMulti(kernel.Scheduler(), bufCap),
	}
}

// Buffer exposes the ring buffer (read-only use: occupancy metrics).
func (m *Monitor) Buffer() *ringbuf.MultiBuffer { return m.ring }

// SetRecorder attaches a flight recorder to the monitor and its ring
// buffer. A nil recorder detaches (the default: zero hot-path cost
// beyond one pointer check).
func (m *Monitor) SetRecorder(rec *obs.Recorder) {
	m.rec = rec
	m.ring.Rec = rec
}

// Recorder returns the attached flight recorder, or nil.
func (m *Monitor) Recorder() *obs.Recorder { return m.rec }

// Divergences returns the divergences observed so far.
func (m *Monitor) Divergences() []Divergence { return m.divergences }

// DefaultEventLogCap bounds the event log when EnableEventLog is called
// with capacity <= 0.
const DefaultEventLogCap = 512

// EnableEventLog turns the coarse monitor event log on, retaining at
// most capacity lines (DefaultEventLogCap when <= 0). When the log
// overflows, the oldest lines are discarded and counted; EventLog always
// returns the newest tail. Call before starting procs to capture the
// full lifecycle.
func (m *Monitor) EnableEventLog(capacity int) {
	if capacity <= 0 {
		capacity = DefaultEventLogCap
	}
	m.logEnabled = true
	m.logCap = capacity
}

// EventLogEnabled reports whether logf currently retains anything.
func (m *Monitor) EventLogEnabled() bool { return m.logEnabled }

// EventLog returns the retained tail of the monitor event log, oldest
// first.
func (m *Monitor) EventLog() []string {
	if len(m.events) < m.logCap || m.eventsStart == 0 {
		return m.events
	}
	out := make([]string, 0, len(m.events))
	out = append(out, m.events[m.eventsStart:]...)
	out = append(out, m.events[:m.eventsStart]...)
	return out
}

// EventLogDropped returns how many log lines were evicted by the cap.
func (m *Monitor) EventLogDropped() int64 { return m.eventsDropped }

func (m *Monitor) logf(format string, args ...interface{}) {
	if !m.logEnabled {
		return
	}
	line := fmt.Sprintf("[%8.3fs] ", m.sched.Now().Seconds()) + fmt.Sprintf(format, args...)
	if len(m.events) < m.logCap {
		m.events = append(m.events, line)
		return
	}
	// Overwrite the oldest line, keeping the newest logCap.
	m.events[m.eventsStart] = line
	m.eventsStart = (m.eventsStart + 1) % m.logCap
	m.eventsDropped++
}

// Proc is one version instance's view of the system: it implements
// sysabi.Dispatcher and routes syscalls according to its current role.
type Proc struct {
	m      *Monitor
	name   string
	role   Role
	engine *dsl.Engine

	// Follower-side replay state, one stream per logical thread, indexed
	// by TID (see tidStream).
	//
	// Cross-thread ordering: follower threads additionally validate in
	// the leader's *global* event order (each group's first raw
	// sequence number must equal globalNext before its thread may
	// proceed). Shared-state operations sit between a thread's
	// syscalls, so replaying the leader's syscall interleaving also
	// reproduces its shared-state interleaving — the mechanism that
	// lets MVE handle multithreaded programs (§3.1, "with some
	// limitations").
	streams     []*tidStream
	pulling     bool     // one thread pulls from the buffer at a time
	promoteSeen bool     // promotion entry seen; drain then switch
	globalNext  uint64   // next raw seq to retire (leader order)
	ahead       []uint64 // raw seqs retired ahead of globalNext (see retire)

	// crashPromote marks a promotion forced by a leader crash: the
	// recorded stream is trusted only up to the crash point, so the
	// first mismatch is the truncation point, not a divergence.
	crashPromote bool

	diverged bool
	kstate   KernelState

	// cursor is this proc's position in the ring while it follows,
	// opened whenever the proc enters RoleFollower. Closing it (eject,
	// promotion) frees its retention.
	cursor *ringbuf.Cursor

	// variant marks a fleet variant (AttachVariant): its failures go to
	// the quorum and its promotion commits at once, where the duo
	// follower's raise OnDivergence and demote the old leader.
	variant bool

	// failed marks a fleet variant that diverged, crashed or stalled;
	// quorum verdicts count failed vs attached variants.
	failed bool

	// divergeCount counts this variant's divergences. A canary with
	// DivergenceBudget > 0 absorbs that many divergences (adopting the
	// leader's recorded result and continuing) before one becomes fatal;
	// the canary gate reads the count at the end of the window.
	divergeCount int

	// DivergenceBudget is the number of divergences a canary variant may
	// absorb before the monitor raises a rollback verdict. Zero (the
	// default, and always for non-canary variants) makes the first
	// divergence fatal.
	DivergenceBudget int

	// progress counts consumption steps (buffer pulls and validated
	// events) while this proc follows; the liveness watchdog samples it.
	progress int64

	// drain is the reusable scratch slice of the consumer's batched ring
	// drains.
	drain []ringbuf.Entry

	// Per-request latency attribution (span mode only — every use is
	// gated on obs.Recorder.SpansEnabled): reqDrainAt maps a tagged
	// response event's request id to the instant the follower drained it
	// from the ring. (The in-flight request a serving thread has open is
	// in its tidStream.)
	reqDrainAt map[uint64]time.Duration

	// roleSpanID/roleSpanName track this proc's open role-epoch async
	// span (span mode only).
	roleSpanID   uint64
	roleSpanName string

	// scope is this proc's per-process registry (scope mode only —
	// every use is gated on obs.Recorder.ScopesEnabled), mirroring the
	// dispatch/replay/divergence counters so per-variant timelines and
	// cross-scope merges are possible without touching the shared root.
	scope *obs.Registry

	// Syscalls counts calls dispatched through this proc.
	Syscalls int
}

// KernelState is the kernel-side state Varan tracks during single-leader
// mode so that a follower can be attached later (§4: logical PIDs,
// event-poll descriptors, and the fd table).
type KernelState struct {
	LogicalPID int64
	OpenFDs    map[int]bool
	EpollFDs   map[int]bool
	Listeners  map[int]int64 // fd -> port
}

// Clone deep-copies the tracked kernel state (given to a fork).
func (ks KernelState) Clone() KernelState {
	// maporder: ok — map-to-map copies; the result is order-independent.
	out := KernelState{LogicalPID: ks.LogicalPID}
	out.OpenFDs = make(map[int]bool, len(ks.OpenFDs))
	for fd := range ks.OpenFDs { // maporder: ok — map copy
		out.OpenFDs[fd] = true
	}
	out.EpollFDs = make(map[int]bool, len(ks.EpollFDs))
	for fd := range ks.EpollFDs { // maporder: ok — map copy
		out.EpollFDs[fd] = true
	}
	out.Listeners = make(map[int]int64, len(ks.Listeners))
	for fd, port := range ks.Listeners { // maporder: ok — map copy
		out.Listeners[fd] = port
	}
	return out
}

func newKernelState() KernelState {
	return KernelState{
		OpenFDs:   make(map[int]bool),
		EpollFDs:  make(map[int]bool),
		Listeners: make(map[int]int64),
	}
}

func newProc(m *Monitor, name string, role Role) *Proc {
	return &Proc{
		m:          m,
		name:       name,
		role:       role,
		kstate:     newKernelState(),
		reqDrainAt: make(map[uint64]time.Duration),
	}
}

// StartSingleLeader registers the initial process in single-leader mode
// and returns its dispatcher.
func (m *Monitor) StartSingleLeader(name string) *Proc {
	p := newProc(m, name, RoleSingleLeader)
	m.leader = p
	m.logf("%s started as single leader", name)
	m.rec.Emit(obs.KindRole, name, "started as single leader")
	p.setRoleSpan("single-leader")
	return p
}

// AttachFollower switches to leader/follower mode: the current leader
// starts recording and the returned Proc validates against the rules in
// rules (which may be nil for identity). The follower inherits a clone of
// the leader's tracked kernel state, as a forked process would.
func (m *Monitor) AttachFollower(name string, rules *dsl.RuleSet) *Proc {
	if m.leader == nil {
		panic("mve: AttachFollower without a leader")
	}
	if m.follower != nil {
		panic("mve: follower already attached")
	}
	if len(m.variants) > 0 {
		panic("mve: duo follower and fleet variants are exclusive")
	}
	m.ring.Reset()
	f := m.attach(name, rules)
	m.follower = f
	m.leader.role = RoleLeader
	m.logf("%s attached as follower of %s (buffer %d entries)", name, m.leader.name, m.ring.Cap())
	m.rec.Emitf(obs.KindRole, name, "attached as follower of %s (buffer %d entries)", m.leader.name, m.ring.Cap())
	m.leader.setRoleSpan("leader")
	f.setRoleSpan("follower")
	m.startWatchdog(f)
	return f
}

// attach builds a consumer proc for AttachFollower and AttachVariant: a
// cursor at the stream's current end, validation starting at the next
// recorded event, and a clone of the leader's tracked kernel state, as a
// forked process would have.
func (m *Monitor) attach(name string, rules *dsl.RuleSet) *Proc {
	p := newProc(m, name, RoleFollower)
	p.engine = dsl.NewEngine(rules)
	p.kstate = m.leader.kstate.Clone()
	p.follow()
	return p
}

// follow opens p's cursor at the stream's current end; p validates from
// the next recorded event on.
func (p *Proc) follow() {
	p.cursor = p.m.ring.OpenCursor(p.name)
	p.globalNext = p.m.ring.NextSeq()
}

// startWatchdog arms a liveness watchdog over consumer f: if f consumes
// no events for WatchdogDeadline of virtual time while entries are
// pending, the watchdog raises a Stall and exits. The watchdog also
// exits silently once f stops being a supervised consumer (promotion,
// rollback, commit, eject), so each pairing carries its own watchdog.
//
// The watchdog is strictly per-variant: it samples f's own progress
// counter against f's own stream, and the progress counter ticks on
// every drain — full or partial — so any batch f pulls resets its
// timer. A sibling variant draining the shared recorded stream at a
// different rate contributes nothing to f's progress and can neither
// mask a stalled f nor be masked by a busy f.
func (m *Monitor) startWatchdog(f *Proc) {
	if m.WatchdogDeadline <= 0 {
		return
	}
	deadline := m.WatchdogDeadline
	poll := deadline / 8
	if poll <= 0 {
		poll = deadline
	}
	m.sched.Go("mve/watchdog:"+f.name, func(t *sim.Task) {
		last := f.progress
		lastAt := t.Now()
		for {
			t.Sleep(poll)
			if f.role != RoleFollower || f.cursor.Closed() {
				return
			}
			if f.progress != last {
				last, lastAt = f.progress, t.Now()
				continue
			}
			if f.cursor.Empty() && f.queuesEmpty() {
				// Nothing to consume: an idle follower is not stalled.
				lastAt = t.Now()
				continue
			}
			if stalled := t.Now() - lastAt; m.judgeStall(f.name, stalled, f.cursor.Len(), deadline) {
				m.raiseStall(Stall{Proc: f.name, Reason: "no-progress", Stalled: stalled, Pending: f.cursor.Len()})
				return
			}
		}
	})
}

// judgeStall decides whether a follower's no-progress age warrants a
// stall: the installed StallJudge when present, the deadline compare
// otherwise.
func (m *Monitor) judgeStall(proc string, stalledFor time.Duration, pending int, deadline time.Duration) bool {
	if m.StallJudge != nil {
		return m.StallJudge(proc, stalledFor, pending)
	}
	return stalledFor >= deadline
}

// raiseStall records and dispatches a follower stall.
func (m *Monitor) raiseStall(st Stall) {
	m.Stats.Stalls++
	m.logf("%s", st)
	m.rec.Inc(obs.CMVEStalls)
	m.rec.Emit(obs.KindStall, st.Proc, st.String())
	if m.OnStall != nil {
		m.OnStall(st)
	}
}

// Leader returns the current leader proc.
func (m *Monitor) Leader() *Proc { return m.leader }

// Follower returns the current follower proc, or nil.
func (m *Monitor) Follower() *Proc { return m.follower }

// RequestPromote asks the leader to demote itself at its next syscall:
// it appends a promotion event and becomes the follower; the old follower
// becomes leader when it consumes that event (§3.2, t4-t5).
func (m *Monitor) RequestPromote() {
	if m.follower == nil {
		return
	}
	m.promoteRequested = true
	m.logf("promotion requested")
}

// MarkLeaderCrashed flags the pending promotion as crash-driven: the
// dead leader's recorded stream may end mid-request, so the follower
// replays the matching prefix for state catch-up and treats the first
// mismatch as the truncation point instead of a divergence (§3.2,
// "handling old-version errors"). Call synchronously from the crash
// handler, before scheduling PromoteNow, so the follower cannot observe
// the truncated tail first.
func (m *Monitor) MarkLeaderCrashed() {
	if m.follower != nil {
		m.follower.crashPromote = true
	}
}

// PromoteNow appends the promotion event on behalf of a leader that can
// no longer do it itself (e.g. it crashed). Must run from a sim task.
func (m *Monitor) PromoteNow(t *sim.Task) {
	if m.follower == nil {
		return
	}
	m.promoteRequested = false
	m.leader.setRoleSpan("follower")
	m.leader.demote(t)
	m.logf("promotion event injected")
}

// demote turns the leader into a follower (§3.2 t4): it appends the
// promotion event and then opens its cursor, so the demoted process
// starts validating at the new leader's first recorded event and can
// never read the pre-promotion tail meant for the process taking over.
func (p *Proc) demote(t *sim.Task) {
	p.role = RoleFollower
	p.m.ring.Put(t, ringbuf.Entry{Kind: ringbuf.KindPromote})
	p.follow()
}

// DropFollower terminates leader/follower mode, discarding the follower.
// The caller is responsible for killing the follower's tasks. The leader
// reverts to single-leader interception. Used for rollback (§3.2) and for
// dropping the outdated follower at t6.
func (m *Monitor) DropFollower() {
	if m.follower == nil {
		return
	}
	m.logf("follower %s dropped", m.follower.name)
	m.rec.Emitf(obs.KindRole, m.follower.name, "follower dropped (%d events dropped by discard policy)", m.ring.Dropped)
	m.follower.endRoleSpan()
	m.follower = nil
	m.promoteRequested = false
	m.ring.Close()
	if m.leader != nil {
		m.leader.role = RoleSingleLeader
		m.leader.promoteSeen = false
		m.leader.setRoleSpan("single-leader")
	}
	// A leader parked mid-promotion resumes as single leader.
	m.promoWait.WakeAll(m.sched)
}

// Role returns p's current role.
func (p *Proc) Role() Role { return p.role }

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Diverged reports whether this proc has raised a divergence.
func (p *Proc) Diverged() bool { return p.diverged }

// KernelStateSnapshot returns a copy of the tracked kernel state.
func (p *Proc) KernelStateSnapshot() KernelState { return p.kstate.Clone() }

// Invoke implements sysabi.Dispatcher, routing by role.
func (p *Proc) Invoke(t *sim.Task, call sysabi.Call) sysabi.Result {
	p.Syscalls++
	for {
		switch p.role {
		case RoleSingleLeader:
			return p.invokeSingle(t, call)
		case RoleLeader:
			if p.m.promoteRequested && p.m.follower != nil {
				// Demote: register the promotion event and become a
				// follower before processing this call (§3.2 t4).
				p.m.promoteRequested = false
				p.demote(t)
				p.m.logf("%s demoted itself; awaiting new leader", p.name)
				p.m.rec.Emit(obs.KindRole, p.name, "demoted itself; awaiting new leader")
				p.setRoleSpan("follower")
				continue
			}
			return p.invokeLeader(t, call)
		case RoleFollower:
			res, again := p.invokeFollower(t, call)
			if again {
				continue
			}
			return res
		case RoleRetired:
			// Leadership moved to a promoted canary; this process is done —
			// it parks until the controller reaps it.
			p.parkForever(t)
		default:
			panic("mve: bad role")
		}
	}
}

func (p *Proc) trackKernelState(call sysabi.Call, res sysabi.Result) {
	if !res.OK() {
		return
	}
	switch call.Op {
	case sysabi.OpGetPID:
		p.kstate.LogicalPID = res.Ret
	case sysabi.OpSocket:
		p.kstate.OpenFDs[int(res.Ret)] = true
		p.kstate.Listeners[int(res.Ret)] = call.Args[0]
	case sysabi.OpAccept, sysabi.OpConnect, sysabi.OpOpen:
		p.kstate.OpenFDs[int(res.Ret)] = true
	case sysabi.OpEpollCreate:
		p.kstate.OpenFDs[int(res.Ret)] = true
		p.kstate.EpollFDs[int(res.Ret)] = true
	case sysabi.OpClose:
		delete(p.kstate.OpenFDs, call.FD)
		delete(p.kstate.EpollFDs, call.FD)
		delete(p.kstate.Listeners, call.FD)
	}
}

// scoped returns this proc's per-process registry when scope mirroring
// is on (nil otherwise — itself safe to record into). The registry is
// created lazily under the scope "proc:<name>".
func (p *Proc) scoped() *obs.Registry {
	if !p.m.rec.ScopesEnabled() {
		return nil
	}
	if p.scope == nil {
		p.scope = p.m.rec.Child("proc:" + p.name)
	}
	return p.scope
}

// profiling reports whether profiler chokepoints are live (nil-safe,
// off by default: golden runs never reach the label pushes below).
func (p *Proc) profiling() bool { return p.m.rec.ProfilingEnabled() }

// roleLabel maps the proc onto the profiler's role vocabulary. The
// canary is a follower whose divergences are budgeted; it gets its own
// label so fleet profiles separate canary validation from replica
// validation.
func (p *Proc) roleLabel() string {
	if p == p.m.canary {
		return obs.LblCanary
	}
	switch p.role {
	case RoleFollower:
		return obs.LblFollower
	case RoleRetired:
		return obs.LblRetired
	default:
		return obs.LblLeader
	}
}

func (p *Proc) invokeSingle(t *sim.Task, call sysabi.Call) sysabi.Result {
	if p.profiling() {
		t.PushLabel(obs.LblLeader)
		t.PushLabel(obs.LblService)
		defer t.PopLabel()
		defer t.PopLabel()
	}
	p.m.Stats.Intercepted++
	if p.m.costs.Intercept > 0 {
		t.Advance(p.m.costs.Intercept)
	}
	if rec := p.m.rec; rec.Enabled() {
		rec.Inc(obs.CSyscallsSingle)
		start := t.Now()
		res := p.m.kernel.Invoke(t, call)
		rec.Observe(obs.HSyscallSingle, t.Now()-start)
		if sc := p.scoped(); sc != nil {
			sc.Inc(obs.CSyscallsSingle)
			sc.Observe(obs.HSyscallSingle, t.Now()-start)
		}
		rec.Emitf(obs.KindSyscall, p.name, "%s = %d/%v", call, res.Ret, res.Err)
		p.trackKernelState(call, res)
		if rec.SpansEnabled() {
			p.trackRequest(t, call, res, nil)
		}
		return res
	}
	res := p.m.kernel.Invoke(t, call)
	p.trackKernelState(call, res)
	return res
}

func (p *Proc) invokeLeader(t *sim.Task, call sysabi.Call) sysabi.Result {
	if p.profiling() {
		t.PushLabel(obs.LblLeader)
		t.PushLabel(obs.LblService)
		defer t.PopLabel()
		defer t.PopLabel()
	}
	if p.m.costs.Record > 0 {
		t.Advance(p.m.costs.Record)
	}
	rec := p.m.rec
	start := t.Now()
	res := p.m.kernel.Invoke(t, call)
	if rec.Enabled() {
		rec.Inc(obs.CSyscallsLeader)
		rec.Observe(obs.HSyscallLeader, t.Now()-start)
		rec.Emitf(obs.KindSyscall, p.name, "%s = %d/%v", call, res.Ret, res.Err)
		if sc := p.scoped(); sc != nil {
			sc.Inc(obs.CSyscallsLeader)
			sc.Observe(obs.HSyscallLeader, t.Now()-start)
		}
	}
	p.trackKernelState(call, res)
	// The entry shares the live call's and result's payloads: the ring
	// copies them when (and only when) it really appends, so nothing is
	// copied for an event it refuses.
	e := ringbuf.Entry{Kind: ringbuf.KindSyscall, Event: sysabi.Event{Call: call, Result: res}}
	if rec.SpansEnabled() {
		// Stamps the recorded event's call with the request id (the live
		// call is untouched, so validation semantics cannot change).
		p.trackRequest(t, call, res, &e.Event)
	}
	ring := p.m.ring
	if p.m.FullPolicy == FullDiscard {
		if !ring.TryAppend(e) {
			// A consumer lags too far behind: degrade the update, not
			// the service. The stall handler (controller) drops the duo
			// follower — or, in fleet mode, ejects the laggiest variant,
			// whose pinned retention is what filled the ring. The leader
			// proceeds with its result regardless.
			if lag := p.m.laggiest(); lag != nil && !ring.Closed() {
				p.m.raiseStall(Stall{Proc: lag.name, Reason: "buffer-full",
					Pending: ring.Len(), Dropped: ring.Dropped})
			}
			return res
		}
		p.m.Stats.Recorded++
		p.m.rec.Inc(obs.CMVERecorded)
		return res
	}
	// Blocking policy: Put parks the leader on a full buffer. It fails
	// only if the buffer was closed underneath us — the watchdog rescued
	// a leader blocked behind a hung follower — in which case the event is
	// dropped along with the follower.
	if !ring.Put(t, e) {
		return res
	}
	p.m.Stats.Recorded++
	p.m.rec.Inc(obs.CMVERecorded)
	if p.m.Lockstep {
		if p.m.costs.LockstepSync > 0 {
			t.Advance(p.m.costs.LockstepSync)
		}
		// Wait for every consumer to drain this event (MUC/Mx model). The
		// blocking wait replaces a yield-per-scheduler-round poll: the
		// leader still resumes at the same virtual instant (the drain
		// that empties the buffer, or teardown closing it), but without
		// burning a dispatch per poll while the follower catches up.
		if p.m.follower != nil || len(p.m.variants) > 0 {
			p.m.ring.WaitDrained(t)
		}
	}
	return res
}

// invokeFollower validates one follower syscall. The second return value
// requests re-dispatch after a role change (promotion).
func (p *Proc) invokeFollower(t *sim.Task, call sysabi.Call) (sysabi.Result, bool) {
	if p.profiling() {
		t.PushLabel(p.roleLabel())
		t.PushLabel(obs.LblValidate)
		defer t.PopLabel()
		defer t.PopLabel()
	}
	if p.diverged {
		p.parkForever(t)
	}
	// A freshly demoted leader waits here until the promotion event has
	// been consumed and the new leader has taken over.
	for p.m.leader == p {
		t.Block(&p.m.promoWait)
		if p.role != RoleFollower {
			return sysabi.Result{}, true
		}
	}
	// Model the follower's per-event processing as parallel work. With
	// profiling on, the sleep-modeled interval is charged to the off-CPU
	// validate dimension — this is the per-event cost that scales with
	// the variant count K in fleet profiles.
	if p.m.costs.Replay > 0 {
		if p.profiling() {
			start := t.Now()
			t.Sleep(p.m.costs.Replay)
			t.ChargeWait(obs.LblValidate, start)
		} else {
			t.Sleep(p.m.costs.Replay)
		}
	}
	st := p.stream(call.TID)
	var exp sysabi.Event
	var identity bool
	for {
		for st.exp.len() == 0 {
			if roleChanged := p.fillExpected(t, call.TID, st); roleChanged || p.role != RoleFollower {
				return sysabi.Result{}, true
			}
		}
		g := st.exp.front()
		// Honour the leader's global interleaving: a new group may only
		// start when its first raw event is the oldest unretired one.
		if g.idx == 0 && g.seq != p.globalNext {
			t.Block(&st.wait)
			if p.role != RoleFollower {
				return sysabi.Result{}, true
			}
			continue
		}
		if identity = g.events == nil; identity {
			exp = g.one
		} else {
			exp = g.events[g.idx]
		}
		g.idx++
		p.m.Stats.Replayed++
		p.progress++
		if rec := p.m.rec; rec.Enabled() {
			rec.Inc(obs.CMVEReplayed)
			rec.Inc(obs.CSyscallsFollower)
			rec.Emitf(obs.KindValidate, p.name, "#%d expect %s, got %s", exp.Seq, exp.Call, call)
			if sc := p.scoped(); sc != nil {
				sc.Inc(obs.CMVEReplayed)
				sc.Inc(obs.CSyscallsFollower)
			}
		}
		if identity || g.idx >= len(g.events) {
			p.retire(g)
			st.exp.pop(1)
			p.wakeAllTIDs()
		}
		break
	}
	if reason, ok := compare(exp, call); !ok {
		if p.crashPromote {
			// The leader died mid-request: its stream is valid only up to
			// the crash point, and this mismatch is where the truncation
			// bites. Discard the garbage tail, complete the promotion, and
			// re-dispatch the in-flight call natively.
			p.m.logf("%s: crashed leader's stream truncated at #%d (%s); promoting", p.name, exp.Seq, reason)
			p.discardTail(t, st)
			if p.role == RoleFollower {
				p.becomeLeader()
			}
			return sysabi.Result{}, true
		}
		// The report outlives this event — a canary inside its budget goes
		// on to retire it — so it owns its bytes.
		d := Divergence{Proc: p.name, Seq: exp.Seq, Got: call.Clone(), Reason: reason,
			Expected: sysabi.Event{Seq: exp.Seq, Call: exp.Call.Clone(), Result: exp.Result.Clone()}}
		p.m.divergences = append(p.m.divergences, d)
		p.m.logf("%s diverged: %s", p.name, d)
		p.m.rec.Inc(obs.CMVEDivergences)
		p.m.rec.Emit(obs.KindDivergence, p.name, d.String())
		p.scoped().Inc(obs.CMVEDivergences)
		if p.variant {
			// Fleet variant: count it, and let a canary inside its budget
			// absorb the mismatch — it adopts the leader's recorded result
			// below and keeps validating, so the gate can measure a
			// divergence *rate* instead of dying on the first disagreement.
			p.divergeCount++
			if p == p.m.canary && p.divergeCount <= p.DivergenceBudget {
				p.m.rec.Inc(obs.CFleetDivsTolerated)
				p.m.logf("%s: divergence %d/%d absorbed by canary budget", p.name, p.divergeCount, p.DivergenceBudget)
			} else {
				p.diverged = true
				v := p.m.failVariant(p, "divergence", &d)
				if p.m.OnVerdict != nil {
					p.m.OnVerdict(v)
				}
				p.parkForever(t)
			}
		} else {
			p.diverged = true
			if p.m.OnDivergence != nil {
				p.m.OnDivergence(d)
			}
			p.parkForever(t)
		}
	}
	if rec := p.m.rec; rec.SpansEnabled() && exp.Call.ReqID != 0 {
		// Validation-lag component, and the end of the request's async
		// span: the follower has now confirmed the response the client
		// already received.
		if drainedAt, ok := p.reqDrainAt[exp.Call.ReqID]; ok {
			delete(p.reqDrainAt, exp.Call.ReqID)
			rec.Observe(obs.HReqValidateLag, t.Now()-drainedAt)
		}
		rec.EndAsync("request", reqSpanName(exp.Call.ReqID), exp.Call.ReqID)
	}
	// If a promotion is pending and this was the last queued event,
	// complete the switch so the next syscall executes natively.
	if p.promoteSeen && p.queuesEmpty() {
		p.becomeLeader()
	}
	// The event is retired. This proc was its taker and owns its bytes:
	// the call's payload, needed only for the comparison above, goes back
	// to the ring, and so does a read's data once it is copied into the
	// buffer the application offered (sysabi.Call.Buf) — a follower's
	// read(2) fills the follower's own memory. With no offer, or one too
	// small for what the leader read, the data passes to the application
	// as it is. (A rule-emitted event carries buffers of its own.)
	if identity {
		p.m.ring.RecycleBytes(exp.Call.Buf)
		if d := exp.Result.Data; len(d) > 0 && cap(call.Buf) >= len(d) &&
			(call.Op == sysabi.OpRead || call.Op == sysabi.OpFRead) {
			exp.Result.Data = append(call.Buf[:0], d...)
			p.m.ring.RecycleBytes(d)
		}
	}
	return exp.Result, false
}

// fillExpected makes progress towards having an expected event for tid
// (whose stream is st): it transforms buffered raw events or pulls more
// entries from the ring buffer (demultiplexing them to the owning
// threads). It reports true if the proc's role changed (promotion
// consumed).
func (p *Proc) fillExpected(t *sim.Task, tid int, st *tidStream) bool {
	for {
		if p.role != RoleFollower {
			return true
		}
		// Complete a pending promotion once every queue has drained.
		if p.promoteSeen && p.queuesEmpty() {
			p.becomeLeader()
			return true
		}
		// Transform this thread's raw stream if we have enough of it.
		need := 1
		if raw := st.raw.window(); len(raw) > 0 {
			need = p.engine.NeedsLookahead(raw[0].Call.Op)
			if len(raw) >= need || p.promoteSeen {
				p.transform(tid, st, raw)
				return false
			}
		}
		if p.promoteSeen {
			// Nothing buffered for this thread and no more pulls: wait
			// for the global switch performed by the last drainer.
			t.Block(&st.wait)
			continue
		}
		// Pull more entries from the buffer — up to this thread's
		// lookahead shortfall in one batched drain, so a multi-event
		// rewrite rule costs one scheduler round-trip instead of one per
		// event. The bound matters: draining beyond the shortfall would
		// pull entries earlier than the unbatched path did, changing
		// producer-blocking instants and with them the virtual-time
		// timeline the golden artifacts pin down. Only one thread pulls
		// at a time; the others wait to be fed.
		if p.pulling {
			t.Block(&st.wait)
			continue
		}
		want := 1
		if n := st.raw.len(); n > 0 {
			want = need - n
		}
		p.pulling = true
		p.drain = p.cursor.DrainUpTo(t, p.drain[:0], want)
		p.pulling = false
		p.progress += int64(len(p.drain))
		if len(p.drain) == 0 {
			// Buffer closed: the duo is being torn down. Wake peers so
			// they observe the teardown too, then park. (The progress
			// tick mirrors the per-pull accounting of the unbatched
			// path, which charged the failed pull too.)
			p.progress++
			p.wakeAllTIDs()
			p.parkForever(t)
		}
		for i := range p.drain {
			e := &p.drain[i]
			switch e.Kind {
			case ringbuf.KindPromote:
				p.promoteSeen = true
				p.wakeAllTIDs()
			case ringbuf.KindShutdown:
				p.wakeAllTIDs()
				p.parkForever(t)
			default:
				etid := e.Event.Call.TID
				if rec := p.m.rec; rec.SpansEnabled() && e.Event.Call.ReqID != 0 {
					// Ring-queueing component: append instant -> this drain.
					rec.Observe(obs.HReqRingWait, t.Now()-e.PutAt)
					p.reqDrainAt[e.Event.Call.ReqID] = t.Now()
				}
				est := p.stream(etid)
				est.raw.push(e.Event)
				if etid != tid {
					est.wait.WakeAll(p.m.sched)
				}
			}
		}
	}
}

// transform rewrites the front of tid's raw window (non-empty, and long
// enough for every rule that could start there) into one expected group.
func (p *Proc) transform(tid int, st *tidStream, raw []sysabi.Event) {
	expected, consumed, fired := p.engine.Transform(raw)
	g := expGroup{seq: raw[0].Seq}
	if fired == nil {
		g.one = raw[0]
	} else {
		if p.m.rec.SpansEnabled() {
			carryReqIDs(raw[:consumed], expected)
		}
		p.m.Stats.Rewritten++
		p.m.logf("rule %q rewrote %d event(s) into %d for tid %d", fired.Name, consumed, len(expected), tid)
		p.m.rec.Inc(obs.CRuleHits)
		p.m.rec.Emitf(obs.KindRuleHit, p.name, "rule %q rewrote %d event(s) into %d for tid %d",
			fired.Name, consumed, len(expected), tid)
		for i := range expected {
			expected[i].Seq = g.seq
		}
		g.events = expected
		for i := 1; i < consumed; i++ {
			g.more = append(g.more, raw[i].Seq)
		}
		// The emitted events carry bytes of their own, so the consumed
		// ones, which no application will see, go back to the ring.
		for i := 0; i < consumed; i++ {
			p.m.ring.Recycle(&raw[i])
		}
	}
	st.raw.pop(consumed)
	st.exp.push(g)
}

// discardTail drops everything still queued for validation and then
// consumes (and discards) ring entries up to the promotion event. Only
// meaningful during a crash promotion: the entries past the crash point
// are garbage, but this proc must still reach the promotion event to
// take over. (The demoted process cannot misread them: its cursor opens
// past the promotion event.) Respects the one-puller discipline, so it
// composes with sibling follower threads blocked in fillExpected.
func (p *Proc) discardTail(t *sim.Task, st *tidStream) {
	for !p.promoteSeen {
		if p.role != RoleFollower {
			return // a sibling completed the switch already
		}
		if p.pulling {
			t.Block(&st.wait)
			continue
		}
		// Unlike fillExpected, the drain here is unbounded: everything
		// pending is garbage to be discarded, so taking it all in one
		// call removes the same entries at the same virtual instant a
		// one-at-a-time loop would (consecutive non-blocking pulls never
		// yield between entries).
		p.pulling = true
		p.drain = p.cursor.DrainInto(t, p.drain[:0])
		p.pulling = false
		if len(p.drain) == 0 {
			// Buffer closed underneath us: rollback/teardown won the race.
			p.wakeAllTIDs()
			p.parkForever(t)
		}
		for i := range p.drain {
			if p.drain[i].Kind == ringbuf.KindPromote {
				p.promoteSeen = true
			}
			// Raw syscall events past the crash point are dropped unreplayed.
			p.m.ring.Recycle(&p.drain[i].Event)
		}
	}
	p.dropQueued()
	p.reqDrainAt = make(map[uint64]time.Duration)
	p.wakeAllTIDs()
}

func (p *Proc) becomeLeader() {
	if p.variant {
		p.becomeFleetLeader()
		return
	}
	m := p.m
	m.logf("%s promoted to leader", p.name)
	m.rec.Inc(obs.CMVEPromotions)
	m.rec.Emit(obs.KindRole, p.name, "promoted to leader")
	p.setRoleSpan("leader")
	old := m.leader
	m.leader = p
	m.follower = old
	p.role = RoleLeader
	// Fully drained; from here the demoted process's cursor alone
	// decides retention.
	p.cursor.Close()
	p.promoteSeen = false
	p.crashPromote = false
	p.wakeAllTIDs()
	// The demoted process validates the new leader's stream with no
	// rewrite rules unless the controller installed a reverse set.
	if old != nil && old.engine == nil {
		old.engine = dsl.NewEngine(nil)
	}
	m.promoWait.WakeAll(m.sched)
	m.Stats.Promotions++
	// The demoted process now consumes the stream; it gets its own
	// liveness watchdog (the previous one retires when it observes the
	// role swap).
	if old != nil {
		m.startWatchdog(old)
	}
	if m.OnPromoted != nil {
		m.OnPromoted(p)
	}
}

// reqOpen tracks an in-flight tagged client request on one logical
// thread of the serving leader (span mode only). Request ids are never
// zero, so the zero value means no request is open.
type reqOpen struct {
	id uint64
	at time.Duration
}

func reqSpanName(id uint64) string { return fmt.Sprintf("req-%d", id) }

// carryReqIDs copies request tags from the consumed raw output events
// onto the transformed expected output events, in order. Rewrite rules
// rebuild events from scratch, which drops the observability-only
// ReqID field; pairing the Nth tagged output in with the Nth untagged
// output out keeps per-request attribution intact across rewrites.
func carryReqIDs(raw, expected []sysabi.Event) {
	var ids []uint64
	for _, e := range raw {
		if e.Call.HasOutput() && e.Call.ReqID != 0 {
			ids = append(ids, e.Call.ReqID)
		}
	}
	if len(ids) == 0 {
		return
	}
	j := 0
	for i := range expected {
		if j >= len(ids) {
			return
		}
		if expected[i].Call.HasOutput() && expected[i].Call.ReqID == 0 {
			expected[i].Call.ReqID = ids[j]
			j++
		}
	}
}

// trackRequest attributes per-request latency. Callers gate on
// rec.SpansEnabled. A tagged inbound read opens the request on the
// reading thread and begins its async span (the request id is the span
// id); the thread's next response write closes the leader-service
// component. In leader mode the *recorded* response event is stamped
// with the request id — the live call is never modified — so the
// follower's validation path can later observe ring wait and
// validation lag and close the span. In single-leader mode (ev == nil)
// nothing validates, so the span ends at the write.
func (p *Proc) trackRequest(t *sim.Task, call sysabi.Call, res sysabi.Result, ev *sysabi.Event) {
	rec := p.m.rec
	if res.ReqID != 0 && call.IsInput() {
		p.stream(call.TID).req = reqOpen{id: res.ReqID, at: t.Now()}
		rec.BeginAsyncID("request", reqSpanName(res.ReqID), "", res.ReqID)
		return
	}
	if !call.HasOutput() {
		return
	}
	st := p.stream(call.TID)
	open := st.req
	if open.id == 0 {
		return
	}
	st.req = reqOpen{}
	rec.Inc(obs.CReqTracked)
	rec.Observe(obs.HReqService, t.Now()-open.at)
	if ev != nil {
		ev.Call.ReqID = open.id
	} else {
		rec.EndAsync("request", reqSpanName(open.id), open.id)
	}
}

// setRoleSpan rolls p's role-epoch async span over to a new role (span
// mode only): the open epoch ends and the next begins, so each proc's
// track shows its single-leader / leader / follower eras end to end.
func (p *Proc) setRoleSpan(role string) {
	rec := p.m.rec
	if !rec.SpansEnabled() {
		return
	}
	if p.roleSpanID != 0 {
		rec.EndAsync(p.name, p.roleSpanName, p.roleSpanID)
	}
	p.roleSpanName = "role:" + role
	p.roleSpanID = rec.BeginAsync(p.name, p.roleSpanName, "")
}

// endRoleSpan closes p's open role epoch (e.g. the follower was
// dropped).
func (p *Proc) endRoleSpan() {
	rec := p.m.rec
	if !rec.SpansEnabled() || p.roleSpanID == 0 {
		return
	}
	rec.EndAsync(p.name, p.roleSpanName, p.roleSpanID)
	p.roleSpanID = 0
}

// SetReverseRules installs the updated-leader-stage rule set on the
// demoted follower (§3.3.2). Call before RequestPromote.
func (m *Monitor) SetReverseRules(rules *dsl.RuleSet) {
	if m.leader != nil {
		m.leader.engine = dsl.NewEngine(rules)
	}
}

// parkForever blocks the calling task until it is killed.
func (p *Proc) parkForever(t *sim.Task) {
	var q sim.WaitQueue
	for {
		t.Block(&q)
	}
}

// compare checks a follower call against the expected (rewritten) event.
// The comparison contract mirrors Varan's: identical op; identical target
// object; byte-identical output payloads. Input calls need not match on
// incidental parameters like requested read size.
func compare(exp sysabi.Event, got sysabi.Call) (string, bool) {
	e := exp.Call
	if e.Op != got.Op {
		return fmt.Sprintf("syscall mismatch: %v vs %v", e.Op, got.Op), false
	}
	switch got.Op {
	case sysabi.OpWrite, sysabi.OpFWrite:
		if e.FD != got.FD {
			return fmt.Sprintf("fd mismatch: %d vs %d", e.FD, got.FD), false
		}
		if string(e.Buf) != string(got.Buf) {
			return fmt.Sprintf("output mismatch: %q vs %q", trim(e.Buf), trim(got.Buf)), false
		}
	case sysabi.OpRead, sysabi.OpFRead, sysabi.OpAccept, sysabi.OpClose, sysabi.OpEpollWait:
		if e.FD != got.FD {
			return fmt.Sprintf("fd mismatch: %d vs %d", e.FD, got.FD), false
		}
	case sysabi.OpEpollCtl:
		if e.FD != got.FD || e.Args != got.Args {
			return "epoll_ctl args mismatch", false
		}
	case sysabi.OpSocket, sysabi.OpConnect:
		if e.Args[0] != got.Args[0] {
			return fmt.Sprintf("port mismatch: %d vs %d", e.Args[0], got.Args[0]), false
		}
	case sysabi.OpOpen:
		if e.Path != got.Path || e.Args[0] != got.Args[0] {
			return fmt.Sprintf("open mismatch: %q vs %q", e.Path, got.Path), false
		}
	case sysabi.OpStat, sysabi.OpUnlink, sysabi.OpListDir:
		if e.Path != got.Path {
			return fmt.Sprintf("path mismatch: %q vs %q", e.Path, got.Path), false
		}
	}
	return "", true
}

func trim(b []byte) string {
	if len(b) > 40 {
		return string(b[:40]) + "..."
	}
	return string(b)
}
