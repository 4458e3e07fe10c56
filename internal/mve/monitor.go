// Package mve implements the multi-version execution monitor — the
// reproduction's counterpart of Varan (Hosek & Cadar, ASPLOS'15) as
// extended by MVEDSUA (§3.1, §4 of the paper).
//
// One Monitor supervises a leader and the set of processes consuming its
// recorded stream (Volckaert et al.'s one replication buffer with N
// symmetric consumers):
//
//   - With the set empty the leader runs against the virtual OS with
//     lightweight interception (single-leader mode): every syscall is
//     observed and charged Varan's interception cost, but nothing is
//     recorded and the ring is closed. No kernel-state shadow is kept
//     for a later fork: a follower is an App.Fork copy that shares the
//     virtual OS's fd table.
//
//   - The first consumer attached (AttachVariant, AttachCandidate) resets
//     the ring and switches the leader to recording (call, result) events
//     into it; every consumer validates its own syscall stream against
//     those events through a cursor of its own — after its
//     divergence-rewrite rules have been applied — and receives the
//     leader's recorded results instead of touching the OS. The last
//     consumer detached (EjectVariant) closes the ring and reverts the
//     leader to single-leader interception.
//
// At most one consumer is the candidate: the one process on the other
// version — the paper's updated follower, a fleet's canary, and after a
// demoting promotion the old leader. Promote (§3.2, t4-t5) appends a
// promotion control entry on the leader's behalf; when the candidate has
// drained the stream up to it, it leaves the set and takes over. The
// policy decides what becomes of the old leader: demoted, it joins the
// set behind the promotion entry as the new candidate and validates the
// new leader in reverse; retired, it parks until reaped — or until the
// candidate is detached first and leadership falls back to it.
//
// Every consumer failure — a mismatch between its syscall and the
// (rewritten) recorded stream, a crash, a stall — renders a Verdict
// (quorum.go); MVEDSUA's controller owns the consequences.
//
// Recording and replaying an event allocates nothing in steady state.
// Payload bytes move under the ring's rule that the taker owns what it
// takes (see internal/ringbuf): the leader hands its live call and result
// to the ring, which copies them only if it appends; a follower owns the
// event it drained, passes the result's data on to its application
// without another copy, and gives the call's payload — needed only for
// the comparison — back to the ring when the event retires. A rewrite
// rule moves the payloads it forwards into the events it emits (see
// internal/dsl), so the follower owns an emitted event's bytes the same
// way. Whatever outlives that moment (a Divergence report) holds bytes of
// its own.
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
	RoleRetired                  // handing leadership to the candidate; parked until reaped, or until it is detached first
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
	// Intercept is charged to every syscall in single-leader mode: the
	// price of Varan's binary-rewriting interception and kernel-state
	// tracking. The simulation tracks nothing; it only charges the cost.
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
	Proc   *Proc  // the stalled consumer
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
		return fmt.Sprintf("stall in %s: ring buffer full (%d pending, %d dropped)", st.Proc.name, st.Pending, st.Dropped)
	}
	return fmt.Sprintf("stall in %s: no progress for %v (%d pending)", st.Proc.name, st.Stalled, st.Pending)
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

// Monitor coordinates the leader and the consumers of its stream.
type Monitor struct {
	sched  *sim.Scheduler
	kernel *vos.Kernel
	costs  Costs

	// ring is the one recorded stream: the leader appends, and every
	// consumer reads through its own cursor. It is open exactly while
	// variants is non-empty.
	ring   *ringbuf.MultiBuffer
	leader *Proc

	// variants are the attached consumers, in attach order; candidate is
	// the one of them on the other version, or nil (see lifecycle.go).
	variants  []*Proc
	candidate *Proc

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

	// OnStall is invoked when the watchdog declares a follower hung or
	// the discard policy hits a full buffer. The handler decides what to
	// do (MVEDSUA's controller rolls the update back); with no handler
	// the stall is only recorded and counted.
	OnStall func(Stall)

	// OnPromoted is invoked when a promotion completes: the candidate
	// has drained the buffer and taken over as leader (§3.2 t5).
	OnPromoted func(newLeader *Proc)

	// OnVerdict is invoked (from the consumer's task) when a consumer
	// diverges fatally, with the quorum's decision; the consumer then
	// parks until killed. Crash and stall verdicts are computed by
	// FailVariant at the caller's request instead, since their detection
	// reaches the monitor from outside. The handler owns the consequences
	// (rollback or commit, eject-and-respawn, fleet abort); with no
	// handler the divergence is only recorded.
	OnVerdict func(Verdict)

	divergences []Divergence

	// Stats aggregates monitor activity for reporting.
	Stats Stats

	// rec is the optional flight recorder; nil costs one pointer check
	// per instrumented operation. Set via SetRecorder.
	rec *obs.Recorder

	// promoWait parks the old leader between the promotion entry (t4)
	// and the candidate taking over (t5): during that window the buffer
	// still holds events meant for the candidate, which a demoted process
	// must not steal and a retired one has no business serving. The
	// takeover wakes a demoted leader; detaching the candidate first
	// wakes either, to lead again.
	promoWait sim.WaitQueue
}

// New returns a monitor bound to the scheduler and kernel, with the given
// ring-buffer capacity. The ring starts closed: nobody consumes it yet.
func New(kernel *vos.Kernel, bufCap int, costs Costs) *Monitor {
	m := &Monitor{
		sched:  kernel.Scheduler(),
		kernel: kernel,
		costs:  costs,
		ring:   ringbuf.NewMulti(kernel.Scheduler(), bufCap),
	}
	m.ring.Close()
	return m
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

// Divergences returns the divergences observed so far.
func (m *Monitor) Divergences() []Divergence { return m.divergences }

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

	// cursor is this proc's position in the ring while it follows,
	// opened whenever the proc enters RoleFollower. Closing it (eject,
	// promotion) frees its retention.
	cursor *ringbuf.Cursor

	// failed marks a consumer that diverged, crashed or stalled; quorum
	// verdicts count failed vs attached consumers.
	failed bool

	// divergeCount counts this consumer's divergences. A candidate with a
	// budget absorbs that many (adopting the leader's recorded result and
	// continuing) before one becomes fatal; the canary gate reads the
	// count at the end of its window.
	divergeCount int

	// budget is the number of divergences this proc may absorb while it
	// is the candidate (AttachCandidate). Zero makes the first one fatal,
	// as every other consumer's is.
	budget int

	// canary marks a candidate attached beside replicas: it validates
	// under a profiler label of its own, so fleet profiles separate
	// canary validation from replica validation. Alone there is nothing
	// to tell it apart from.
	canary bool

	// progress counts consumption steps (buffer pulls and validated
	// events) while this proc follows; the liveness watchdog samples it.
	progress int64

	// drain is the reusable scratch slice of the consumer's batched ring
	// drains.
	drain []ringbuf.Entry

	// rulesHit holds the rules whose first hit in this process is already
	// a rule.hit milestone (recorder attached only).
	rulesHit map[*dsl.Rule]bool

	// Per-request latency attribution (every use is gated on
	// obs.Recorder.Enabled): reqDrainAt maps a tagged response event's
	// request id to the instant the follower drained it from the ring.
	// (The in-flight request a serving thread has open is in its
	// tidStream.)
	reqDrainAt map[uint64]time.Duration

	// roleSpanID/roleSpanName track this proc's open role-epoch async
	// span (span mode only).
	roleSpanID   uint64
	roleSpanName string
}

func newProc(m *Monitor, name string, role Role) *Proc {
	return &Proc{
		m:          m,
		name:       name,
		role:       role,
		reqDrainAt: make(map[uint64]time.Duration),
	}
}

// Leader returns the current leader proc.
func (m *Monitor) Leader() *Proc { return m.leader }

// Role returns p's current role.
func (p *Proc) Role() Role { return p.role }

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Invoke implements sysabi.Dispatcher, routing by role.
func (p *Proc) Invoke(t *sim.Task, call sysabi.Call) sysabi.Result {
	for {
		switch p.role {
		case RoleSingleLeader:
			return p.invokeSingle(t, call)
		case RoleLeader:
			return p.invokeLeader(t, call)
		case RoleFollower:
			res, again := p.invokeFollower(t, call)
			if again {
				continue
			}
			return res
		case RoleRetired:
			// Leadership is moving to the candidate: this process parks
			// until the controller reaps it — or until the candidate is
			// detached before taking over, and it leads again.
			t.Block(&p.m.promoWait)
		default:
			panic("mve: bad role")
		}
	}
}

// roleLabel maps the proc onto the profiler's role vocabulary.
func (p *Proc) roleLabel() string {
	switch p.role {
	case RoleFollower:
		if p.canary {
			return obs.LblCanary
		}
		return obs.LblFollower
	case RoleRetired:
		return obs.LblRetired
	default:
		return obs.LblLeader
	}
}

// parkForever blocks the calling task until it is killed.
func (p *Proc) parkForever(t *sim.Task) {
	var q sim.WaitQueue
	for {
		t.Block(&q)
	}
}
