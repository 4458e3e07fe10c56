// Package core implements MVEDSUA itself: the controller that combines
// the DSU framework (internal/dsu, the Kitsune counterpart) with the MVE
// monitor (internal/mve, the Varan counterpart) to deliver low-latency,
// error-tolerant dynamic updates (§3 of the paper).
//
// One Controller drives the paper's Figure 2 stage machine over a
// variant set: a leader, K >= 0 same-version replicas, and at most one
// candidate — the one process on the other version (the updated
// follower or canary before promotion, the demoted old leader after it).
//
//	SingleLeader ──Update()──▶ OutdatedLeader ──promote──▶ UpdatedLeader ──Commit()──▶ SingleLeader
//	      ▲                         │ divergence/crash/Rollback()               │ old-version divergence
//	      └─────────────────────────┴─────────────────────────────────────────┘
//
// Updates are applied on a candidate forked while the leader keeps
// serving; the candidate catches up through the ring buffer; errors of
// the updated version roll the update back with no state loss; crashes
// of the old version promote the new one.
//
// Replicas (NewFleet, K >= 1) validate the leader continuously. A failed
// one is judged by quorum: a minority is ejected and respawned from the
// leader at its next quiescence, touching neither client traffic nor an
// update in flight; a majority indicts the leader's own stream and
// aborts the fleet (StageAborted: the leader serves solo from then on).
// A crash of a leader that has replicas is only recorded (failing over
// mid-request needs the duo's crash-truncation replay generalized to N
// consumers), so K = 0 remains the recovery story for leader crashes.
//
// The gate decides who promotes, and with it what promotion makes of the
// old leader (mve.PromotePolicy). New builds the operator's: Promote and
// Commit are called, and between them the demoted old version validates
// the new one in reverse. NewFleet builds the timed canary gate: the
// candidate is observed for CanaryGate.Window, then promoted if its
// divergence count, lag and validation latency pass, else rolled back;
// the old leader retires, the promotion commits at once and K fresh
// replicas respawn from the new leader. Everything else — attach, detach,
// failure verdicts, trains, retries, and the stages, counters, notes and
// spans that report them — is one path.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// Stage is the controller's position in the Figure 2 lifecycle.
type Stage int

// Stages.
const (
	StageSingleLeader   Stage = iota // t0-t1, t6-: one version; replicas, if any, validate it
	StageOutdatedLeader              // t1-t4: old version leads, the candidate validates
	StagePromoting                   // t4-t5: promotion requested, buffer draining
	StageUpdatedLeader               // t5-t6: new version leads, old follows
	StageAborted                     // majority verdict: the leader serves solo, for good
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageSingleLeader:
		return "single-leader"
	case StageOutdatedLeader:
		return "outdated-leader"
	case StagePromoting:
		return "promoting"
	case StageUpdatedLeader:
		return "updated-leader"
	case StageAborted:
		return "aborted"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Kind says what a timeline entry records; only the kinds some reader
// tells apart have one. Stage, train, commit and rollback entries are
// transitions: each bumps core.transitions and emits a stage milestone.
type Kind int

// Kinds.
const (
	KindStage     Kind = iota // any other transition: deploy, fork, promotion, retry, abandon, crash, eject, respawn, abort
	KindTrain                 // a train hop queued or requested, or the train flushed
	KindCommit                // an update committed, by the operator or a §3.2 error rule
	KindRollback              // an update rolled back
	KindViolation             // a tripped threshold, with the reason as Note
	KindVerdict               // a failure verdict, recorded before the controller acts on it
)

// Event is one entry of the controller's timeline: the one typed record
// of a run's lifecycle, in the order the controller decided it. The
// Figure 6 experiment annotates throughput curves with these. Note is
// the operator's wording; readers tell entries apart by Kind.
type Event struct {
	At      time.Duration
	Stage   Stage
	Kind    Kind
	Note    string
	Subject string      // a violation's: "canary-gate" or the stalled proc
	Rule    string      // a violation's threshold, e.g. "follower-liveness"
	Verdict mve.Verdict // a verdict entry's
}

// Config configures the controller.
type Config struct {
	// BufferEntries sizes the MVE ring buffer (the paper evaluates 2^10,
	// 2^20 and 2^24; its steady-state default is 256).
	BufferEntries int
	// Costs are the MVE monitoring costs (see mve.Costs).
	Costs mve.Costs
	// DSU is the template for per-process DSU runtimes. Dispatcher,
	// TakeUpdate, ParallelXform and OnOutcome are owned by the
	// controller and overwritten.
	DSU dsu.Config
	// RetryInterval re-attempts updates that failed with a quiescence
	// timeout (§6.2 retried every 500ms). Zero disables retry. Retry n
	// waits RetryInterval × 2^(n-1), capped at RetryMaxInterval, so a
	// persistently busy service is probed ever more gently.
	RetryInterval time.Duration
	// RetryMaxInterval caps the exponential backoff between retries.
	// Zero defaults to 8× RetryInterval; setting it equal to
	// RetryInterval restores the paper's fixed-interval behaviour.
	RetryMaxInterval time.Duration
	// MaxRetries bounds timing-error retries. Zero means 8, matching the
	// paper's observed maximum.
	MaxRetries int
	// RetryOnRollback also retries updates that were rolled back by a
	// divergence (used for nondeterministic, timing-induced divergences
	// such as the LibEvent dispatch-order mismatch of §6.2; deterministic
	// failures should be fixed and resubmitted instead).
	RetryOnRollback bool
	// WatchdogDeadline arms the monitor's follower-liveness watchdog: a
	// follower that consumes no ring-buffer event for this much virtual
	// time while work is pending raises a stall, which the controller
	// handles like a divergence. Zero disables the watchdog.
	WatchdogDeadline time.Duration
	// BufferFullPolicy selects the leader's behaviour on a full ring
	// buffer: mve.FullBlock (default) pauses it until the follower
	// drains — the paper's Figure 7 semantics — while mve.FullDiscard
	// keeps the leader running and sacrifices the lagging follower.
	BufferFullPolicy mve.FullPolicy
	// WrapDispatcher, if non-nil, wraps each process's syscall
	// dispatcher as the process is created, with its role at creation
	// time ("leader", "follower", "variant" or "canary") and its proc
	// name. This is the sysabi chokepoint hook the chaos layer
	// (internal/chaos) uses to inject faults without the controller
	// knowing about it.
	WrapDispatcher func(role, name string, d sysabi.Dispatcher) sysabi.Dispatcher
	// Recorder, if non-nil, is the flight recorder every layer of this
	// controller's pipeline (monitor, ring buffer, stage machine) emits
	// metrics and trace events into. Nil disables observation at the
	// cost of one pointer check per instrumented operation.
	Recorder *obs.Recorder
}

// validate panics on configurations that cannot mean what the caller
// intended. It runs in New, so a bad config fails loudly at deploy time
// instead of surfacing as a silent no-retry or a zero-capacity buffer.
func (cfg Config) validate() {
	if cfg.BufferEntries < 0 {
		panic(fmt.Sprintf("core.Config: BufferEntries = %d; must be > 0 (zero selects the default of 256)", cfg.BufferEntries))
	}
	if cfg.RetryInterval < 0 {
		panic(fmt.Sprintf("core.Config: RetryInterval = %v; must be >= 0", cfg.RetryInterval))
	}
	if cfg.RetryMaxInterval < 0 {
		panic(fmt.Sprintf("core.Config: RetryMaxInterval = %v; must be >= 0", cfg.RetryMaxInterval))
	}
	if cfg.RetryMaxInterval > 0 && cfg.RetryMaxInterval < cfg.RetryInterval {
		panic(fmt.Sprintf("core.Config: RetryMaxInterval (%v) below RetryInterval (%v); the backoff cap cannot undercut the base interval", cfg.RetryMaxInterval, cfg.RetryInterval))
	}
	if cfg.WatchdogDeadline < 0 {
		panic(fmt.Sprintf("core.Config: WatchdogDeadline = %v; must be >= 0", cfg.WatchdogDeadline))
	}
	if cfg.MaxRetries < 0 {
		panic(fmt.Sprintf("core.Config: MaxRetries = %d; must be >= 0", cfg.MaxRetries))
	}
	if cfg.MaxRetries > 0 && cfg.RetryInterval <= 0 {
		panic("core.Config: MaxRetries is set but retries are disabled (RetryInterval is zero)")
	}
	if cfg.RetryOnRollback && cfg.RetryInterval <= 0 {
		panic("core.Config: RetryOnRollback requires RetryInterval > 0")
	}
}

// variant is the bookkeeping of one replica or of the candidate.
type variant struct {
	id   string // respawn slot (config id), or the candidate's role
	name string // unique proc name ("r1#2@2.0.0", "proc2@2.0.1")
	proc *mve.Proc
	rt   *dsu.Runtime
}

// Controller is the MVEDSUA orchestrator for one service.
type Controller struct {
	sched *sim.Scheduler
	cfg   FleetConfig
	mon   *mve.Monitor

	// gated is the one thing the constructor decides: NewFleet's timed
	// canary gate, which retires the old leader, or New's operator gate,
	// which demotes it. Besides the gate (Promote's refusal, the window
	// timer, handleCrash's missing failover) it selects only what the
	// artifacts pin: the candidate's id, proc names, and whether the
	// optional fleet counter group is published.
	gated bool

	stage     Stage
	leaderRT  *dsu.Runtime        // runtime of the process currently leading
	live      map[string]*variant // attached replicas and candidate, by proc name
	candidate *variant            // the one process on the other version, or nil
	pending   *dsu.Version
	queued    []*dsu.Version // update train: hops waiting behind pending
	retries   int
	closed    bool // Shutdown ran; every helper task winds down

	spawned  map[string]int // incarnations per slot id
	respawnQ []string       // slot ids awaiting the next leader barrier
	rearming bool
	gateGen  int // invalidates stale gate timers

	timeline []Event
	rec      *obs.Recorder

	// Open async spans (span mode only): the current stage's arc on the
	// "controller" track, and the fork→promote update window.
	stageSpanID    uint64
	stageSpanName  string
	updateSpanID   uint64
	updateSpanName string

	// OnStage, if non-nil, observes every timeline entry as written,
	// violations and verdicts included.
	OnStage func(Event)
	// OnVerdict, if non-nil, observes every verdict after the controller
	// has acted on it.
	OnVerdict func(mve.Verdict)
}

// New builds a controller with no replicas and the operator as the
// gate (the paper's leader/follower duo) on the kernel's scheduler.
func New(kernel *vos.Kernel, cfg Config) *Controller {
	cfg.validate()
	return newController(kernel, FleetConfig{Config: cfg})
}

// newController builds the state machine for a validated config.
func newController(kernel *vos.Kernel, cfg FleetConfig) *Controller {
	if cfg.BufferEntries == 0 {
		cfg.BufferEntries = 256
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 8
	}
	if cfg.RetryMaxInterval == 0 {
		cfg.RetryMaxInterval = 8 * cfg.RetryInterval
	}
	c := &Controller{
		sched:   kernel.Scheduler(),
		cfg:     cfg,
		mon:     mve.New(kernel, cfg.BufferEntries, cfg.Costs),
		gated:   cfg.Canary.Window > 0,
		live:    make(map[string]*variant),
		spawned: make(map[string]int),
		rec:     cfg.Recorder,
	}
	c.mon.SetRecorder(cfg.Recorder)
	c.mon.WatchdogDeadline = cfg.WatchdogDeadline
	c.mon.FullPolicy = cfg.BufferFullPolicy
	c.mon.OnVerdict = func(v mve.Verdict) {
		c.applyVerdict(v, "divergence: "+v.Div.Reason, "outdated follower diverged; committed "+v.Proc)
	}
	c.mon.OnPromoted = c.handlePromoted
	c.mon.OnStall = c.handleStall
	// Chain with any previously installed crash handler so several
	// controllers can share one scheduler (e.g. one per cluster node).
	prev := c.sched.OnCrash
	c.sched.OnCrash = func(info sim.CrashInfo) {
		if !c.handleCrash(info) && prev != nil {
			prev(info)
		}
	}
	return c
}

// Monitor exposes the underlying MVE monitor.
func (c *Controller) Monitor() *mve.Monitor { return c.mon }

// Stage returns the current lifecycle stage.
func (c *Controller) Stage() Stage { return c.stage }

// LeaderRuntime returns the DSU runtime of the current leader process.
func (c *Controller) LeaderRuntime() *dsu.Runtime { return c.leaderRT }

// FollowerRuntime returns the DSU runtime of the candidate (the updated
// follower or canary, after promotion the demoted old leader), or nil.
func (c *Controller) FollowerRuntime() *dsu.Runtime {
	if c.candidate == nil {
		return nil
	}
	return c.candidate.rt
}

// Timeline returns the controller's history.
func (c *Controller) Timeline() []Event { return c.timeline }

// record appends ev to the timeline at the current time and stage.
func (c *Controller) record(ev Event) {
	ev.At, ev.Stage = c.sched.Now(), c.stage
	c.timeline = append(c.timeline, ev)
	if c.OnStage != nil {
		c.OnStage(ev)
	}
}

// transition moves to stage and records the step as a kind entry.
func (c *Controller) transition(stage Stage, kind Kind, note string) {
	c.stage = stage
	c.rec.Inc(obs.CCoreTransitions)
	c.rec.Emit(obs.KindStage, stage.String(), note)
	if c.rec.SpansEnabled() {
		// Roll the Figure 2 stage machine's async arc over to the new
		// stage, so the controller track shows each stage end to end.
		if c.stageSpanID != 0 {
			c.rec.EndAsync("controller", c.stageSpanName, c.stageSpanID)
		}
		c.stageSpanName = "stage:" + stage.String()
		c.stageSpanID = c.rec.BeginAsync("controller", c.stageSpanName, note)
	}
	c.record(Event{Kind: kind, Note: note})
}

// beginUpdateSpan opens the fork→promote window arc for version name
// (span mode only).
func (c *Controller) beginUpdateSpan(name string) {
	if !c.rec.SpansEnabled() {
		return
	}
	c.endUpdateSpan()
	c.updateSpanName = "update:" + name
	c.updateSpanID = c.rec.BeginAsync("controller", c.updateSpanName, "fork -> promote window")
}

// endUpdateSpan closes the open fork→promote window arc, if any
// (promotion completed, or the update rolled back or aborted first).
func (c *Controller) endUpdateSpan() {
	if c.updateSpanID == 0 {
		return
	}
	c.rec.EndAsync("controller", c.updateSpanName, c.updateSpanID)
	c.updateSpanID = 0
}

// procName mints the next proc name for slot id.
func (c *Controller) procName(id, version string) string {
	format := "%s#%d@%s"
	if !c.gated {
		id, format = "proc", "%s%d@%s"
	}
	c.spawned[id]++
	return fmt.Sprintf(format, id, c.spawned[id], version)
}

// newRuntime builds the DSU runtime of a freshly created proc: the
// dispatcher wrapped by the configured hook (chaos layer) with the
// process's role at creation time, which a later promotion does not
// change, and no update hooks (the leading runtime gets SetUpdateHooks).
// Task names and crash ownership hang off the runtime's name: the role,
// or the proc name for roles several processes hold at once.
func (c *Controller) newRuntime(role string, proc *mve.Proc, app dsu.App, parallelXform bool) *dsu.Runtime {
	cfg := c.cfg.DSU
	cfg.Name = role
	if role == "variant" || role == "canary" {
		cfg.Name = proc.Name()
	}
	cfg.Dispatcher = proc
	if c.cfg.WrapDispatcher != nil {
		cfg.Dispatcher = c.cfg.WrapDispatcher(role, proc.Name(), proc)
	}
	cfg.ParallelXform = parallelXform
	cfg.TakeUpdate = nil
	cfg.OnOutcome = nil
	if reset := cfg.OnAbort; reset != nil {
		// The hook aligns the leader with its fresh candidate. Replicas
		// replay the stream and never see it: with any attached it would
		// trade the candidate's divergence for theirs, so it is skipped.
		cfg.OnAbort = func(app dsu.App) {
			if len(c.mon.Variants()) < 2 {
				reset(app)
			}
		}
	}
	cfg.Rec = c.rec
	return dsu.NewRuntime(c.sched, app, cfg)
}

// Start deploys app as the single leader (Figure 2, t0) plus one
// cold-started replica per configured variant id, and returns the
// leader's DSU runtime. The replicas attach before the leader's first
// syscall, so each one validates the leader's entire execution from the
// top (the Mx-style cold duo, generalized to K cursors over one recorded
// stream).
func (c *Controller) Start(app dsu.App) *dsu.Runtime {
	proc := c.mon.StartSingleLeader(c.procName("leader", app.Version()))
	var replicas []*variant
	for _, id := range c.cfg.Variants {
		replicas = append(replicas, c.attach(id, app.Version(), nil, false))
	}
	c.leaderRT = c.newRuntime("leader", proc, app, false)
	c.leaderRT.SetUpdateHooks(c.takeUpdate, c.updateOutcome, false)
	c.leaderRT.Start()
	note := "deployed " + app.Version()
	for _, fv := range replicas {
		fv.rt = c.newRuntime("variant", fv.proc, app.Fork(), false)
		fv.rt.Start()
	}
	if k := len(replicas); k > 0 {
		note += fmt.Sprintf(" with %d variants", k)
	}
	c.transition(StageSingleLeader, KindStage, note)
	return c.leaderRT
}

// Update requests a dynamic update to v (Figure 2, t1). The update is
// taken at the leader's next full quiescence: MVEDSUA forks a candidate,
// applies the update there, and begins validating it. Returns false if
// another update is already pending or the controller is mid-update;
// callers shipping a version train should use QueueUpdate instead.
func (c *Controller) Update(v *dsu.Version) bool {
	if c.closed || c.stage != StageSingleLeader || c.pending != nil {
		return false
	}
	c.arm(v)
	return true
}

// arm makes v the pending update and asks the leader to take it.
func (c *Controller) arm(v *dsu.Version) {
	c.pending = v
	c.retries = 0
	c.rec.Inc(obs.CCoreUpdates)
	c.requestUpdate(v)
}

// requestUpdate hands v to the leader runtime — unless v stopped being
// the pending update while the request waited for the attempt slot.
func (c *Controller) requestUpdate(v *dsu.Version) {
	c.whenSlotFree("canary-fork@"+v.Name, func() bool {
		return c.pending != v || c.leaderRT.RequestUpdate(v)
	})
}

// atBarrier requests fn at the current leader's quiescence.
func (c *Controller) atBarrier(name string, fn func(t *sim.Task)) {
	c.whenSlotFree(name, func() bool { return c.leaderRT.RequestBarrier(fn) })
}

// whenSlotFree runs try once per virtual millisecond until it succeeds:
// the leader runtime holds one attempt or barrier at a time, and a
// respawn barrier may hold the slot when an update or promotion asks.
func (c *Controller) whenSlotFree(name string, try func() bool) {
	if try() {
		return
	}
	c.sched.Go("barrier-wait:"+name, func(t *sim.Task) {
		for !c.closed && !try() {
			t.Sleep(time.Millisecond)
		}
	})
}

// QueueUpdate requests v, queueing it behind any in-flight update
// instead of dropping it: versions form a train and each hop starts the
// moment the previous one commits. Returns 0 when v was requested
// immediately, otherwise v's position in the train (1 = next up), or -1
// when the controller takes no more updates (aborted or shut down). A
// rollback or abandoned hop flushes the rest of the train — later hops
// assume the earlier ones' state shape, so skipping one is never safe.
func (c *Controller) QueueUpdate(v *dsu.Version) int {
	if c.Update(v) {
		return 0
	}
	if c.closed || c.stage == StageAborted {
		return -1
	}
	c.queued = append(c.queued, v)
	c.transition(c.stage, KindTrain, fmt.Sprintf("queued update %s (train depth %d)", v.Name, len(c.queued)))
	return len(c.queued)
}

// QueuedUpdates reports how many train hops wait behind the in-flight
// update (the pending one itself is not counted).
func (c *Controller) QueuedUpdates() int { return len(c.queued) }

// armNext starts the next queued train hop once the controller is back
// in single-leader mode with no update pending.
func (c *Controller) armNext() {
	if c.stage != StageSingleLeader || c.pending != nil || len(c.queued) == 0 {
		return
	}
	v := c.queued[0]
	c.queued = c.queued[1:]
	c.transition(c.stage, KindTrain, fmt.Sprintf("train: requesting %s (%d more queued)", v.Name, len(c.queued)))
	c.arm(v)
}

// flushTrain drops every queued train hop after a failed one. Later
// hops transform from the state shape the failed hop would have left
// behind, so they cannot be applied out of order.
func (c *Controller) flushTrain(why string) {
	if len(c.queued) == 0 {
		return
	}
	n := len(c.queued)
	c.queued = nil
	c.transition(c.stage, KindTrain, fmt.Sprintf("update train flushed after %s (%d queued hop(s) dropped)", why, n))
}

// takeUpdate is the leader's DSU consultation hook: fork and abort.
func (c *Controller) takeUpdate(t *sim.Task, rt *dsu.Runtime, v *dsu.Version) dsu.TakeAction {
	if c.stage != StageSingleLeader || c.pending != v {
		// Superseded (abort, abandoned hop, Shutdown) between the request
		// and this quiescence: decline without forking.
		return dsu.TakeAbort
	}
	// Runs in the leader's task at quiescence: the fork + candidate
	// launch is the update's in-band moment, so a profiler attributes it
	// to the xform dimension.
	t.PushLabel(obs.LblXform)
	defer t.PopLabel()
	// The update was requested when the leader runtime armed it, not
	// when quiescence finally decided it here; thread the real request
	// time into the candidate's update record.
	reqAt, _ := rt.PendingSince()
	forked := rt.App().Fork()
	id := "follower"
	if c.gated {
		id = "canary"
	}
	fv := c.attach(id, v.Name, v.Rules, true)
	c.beginUpdateSpan(v.Name)
	fv.rt = c.newRuntime(fv.id, fv.proc, forked, true)
	// A failed state transformation surfaces as OutcomeFailed on the
	// candidate's runtime; it is rolled back like any other new-version
	// error instead of the transform error crashing the whole scheduler.
	fv.rt.SetUpdateHooks(nil, func(rec dsu.UpdateRecord) {
		if rec.Outcome == dsu.OutcomeFailed && c.candidate == fv {
			c.Rollback(fmt.Sprintf("state transformation to %s failed: %v", rec.Version, rec.Err))
		}
	}, true)
	fv.rt.StartUpdatedFromAt(forked, v, reqAt)
	c.candidate = fv
	if !c.gated {
		c.transition(StageOutdatedLeader, KindStage, "forked follower for "+v.Name)
	} else {
		c.transition(StageOutdatedLeader, KindStage, fmt.Sprintf("canary %s forked; observing for %v", fv.name, c.cfg.Canary.Window))
		c.gateGen++
		gen := c.gateGen
		c.sched.Go("canary-gate@"+v.Name, func(t *sim.Task) {
			t.Sleep(c.cfg.Canary.Window)
			c.evaluateGate(gen)
		})
	}
	return dsu.TakeAbort
}

// attach opens the monitor-side slot for a new process of slot id — a
// same-version replica, or the candidate that will run the update with
// its adaptation rules; the caller forks and starts the process.
func (c *Controller) attach(id, version string, rules *dsl.RuleSet, candidate bool) *variant {
	fv := &variant{id: id, name: c.procName(id, version)}
	if candidate {
		fv.proc = c.mon.AttachCandidate(fv.name, rules, c.cfg.Canary.MaxDivergences)
	} else {
		fv.proc = c.mon.AttachVariant(fv.name, rules)
	}
	c.live[fv.name] = fv
	c.fleetSize()
	return fv
}

// detach ejects p from the monitor's consumer set, if it is still in it;
// the caller kills the process.
func (c *Controller) detach(p *mve.Proc, reason string) {
	if c.mon.EjectVariant(p, reason) {
		c.fleetSize()
	}
}

// fleetSize publishes the fleet's size after an attach, a detach or a
// takeover. The fleet counter group is optional, and duo artifacts omit it.
func (c *Controller) fleetSize() {
	if c.gated {
		c.rec.SetGauge(obs.GFleetVariants, int64(len(c.mon.Variants())))
	}
}

// updateOutcome observes the leader runtime's update records to retry
// timing errors.
func (c *Controller) updateOutcome(rec dsu.UpdateRecord) {
	if rec.Outcome != dsu.OutcomeTimedOut {
		return
	}
	v := c.pending
	if v == nil || c.cfg.RetryInterval <= 0 || c.retries >= c.cfg.MaxRetries {
		c.pending = nil
		c.transition(c.stage, KindStage, "update "+rec.Version+" abandoned after timeout")
		c.flushTrain("abandoning " + rec.Version)
		return
	}
	c.retries++
	c.scheduleRetry(v, c.retries, "update "+rec.Version+" timed out")
}

// retryDelay returns the capped exponential backoff before retry n
// (1-based): RetryInterval × 2^(n-1), clamped to RetryMaxInterval.
// Doubling a time.Duration (an int64) wraps negative after ~63
// doublings, so an overflowed value is treated as "past the cap": a
// huge RetryMaxInterval with a large retry count must clamp, never
// schedule a negative (i.e. immediate) retry.
func (c *Controller) retryDelay(n int) time.Duration {
	d := c.cfg.RetryInterval
	for i := 1; i < n; i++ {
		d *= 2
		if d <= 0 || d >= c.cfg.RetryMaxInterval {
			return c.cfg.RetryMaxInterval
		}
	}
	if d > c.cfg.RetryMaxInterval {
		return c.cfg.RetryMaxInterval
	}
	return d
}

// scheduleRetry records retry n of v in the timeline (with its backoff
// delay, so recovery cadence is auditable) and arms a task that
// re-requests the update once the delay elapses — unless the controller
// has moved on in the meantime.
func (c *Controller) scheduleRetry(v *dsu.Version, n int, why string) {
	delay := c.retryDelay(n)
	c.rec.Inc(obs.CCoreRetries)
	c.rec.Emitf(obs.KindRetry, v.Name, "%s; retry %d scheduled with %v backoff", why, n, delay)
	c.transition(c.stage, KindStage, fmt.Sprintf("%s; retry %d of %s in %v", why, n, v.Name, delay))
	c.sched.Go(fmt.Sprintf("retry%d@%s", n, v.Name), func(t *sim.Task) {
		t.Sleep(delay)
		if c.closed || c.stage != StageSingleLeader {
			return
		}
		if c.pending == nil {
			c.pending = v // reclaim after a rollback cleared it
		}
		c.requestUpdate(v) // a no-op if a different update superseded this one
	})
}

// Retries returns how many timing-error retries the current (or last)
// update needed.
func (c *Controller) Retries() int { return c.retries }

// Promote exposes the updated version to clients (Figure 2, t4). The
// demotion is performed at the leader's next full quiescence — §5.3's
// observation that update points serve "for swapping leader and
// follower" too — so no leader thread is mid-syscall when the promotion
// event is written, and both processes switch at equivalent program
// points. Reverse rules from the pending version are installed on the
// to-be-demoted leader. A gated controller refuses: its window decides.
func (c *Controller) Promote() bool {
	if c.gated || c.closed || c.stage != StageOutdatedLeader {
		return false
	}
	c.mon.SetReverseRules(c.pending.ReverseRules)
	if !c.leaderRT.RequestBarrier(func(t *sim.Task) {
		c.mon.Promote(t, mve.PromoteDemote)
	}) {
		return false
	}
	c.transition(StagePromoting, KindStage, "promotion requested")
	return true
}

// handlePromoted fires when the candidate has taken over (t5). A demoted
// old leader stays on as the new candidate, validating in reverse until
// Commit. A retired one has nothing left to do: the gate did the
// validating, so the promotion commits at once, the retired leader and
// the replicas superseded at the promotion barrier are reaped, and K
// fresh ones respawn.
func (c *Controller) handlePromoted(newLeader *mve.Proc) {
	fv := c.candidate
	if fv == nil || fv.proc != newLeader {
		return
	}
	retired := c.leaderRT
	c.leaderRT = fv.rt
	delete(c.live, fv.name)
	c.endUpdateSpan()
	if old := c.mon.Candidate(); old != nil {
		c.candidate = &variant{name: old.Name(), proc: old, rt: retired}
		c.live[old.Name()] = c.candidate
		c.transition(StageUpdatedLeader, KindStage, newLeader.Name()+" now leads")
		// If the demoted process is already dead (promotion after an
		// old-version crash), there is nothing left to validate against:
		// commit immediately so the buffer does not fill up unconsumed.
		if retired.LiveThreads() == 0 {
			c.Commit()
		}
		return
	}
	c.candidate = nil
	stale := c.live
	c.live = make(map[string]*variant)
	c.fleetSize()
	c.rec.Inc(obs.CCanaryPromotions)
	c.commit(newLeader.Name() + " promoted; respawning fleet")
	c.sched.Go("reap-retired", func(t *sim.Task) {
		killAll(stale)
		reap(t, retired)
		c.respawnQ = append(c.respawnQ, c.cfg.Variants...)
		c.armRespawn()
	})
}

// Commit finalizes the update (Figure 2, t6): the outdated follower is
// terminated and the updated version continues as single leader.
func (c *Controller) Commit() bool {
	if c.stage != StageUpdatedLeader {
		return false
	}
	c.commit("update committed")
	return true
}

// commit ends the update with the new version in charge, whether the
// operator asked (Commit), the canary gate promoted, or the demoted
// leader stalled, diverged or crashed and left nothing to validate
// against: the candidate, if any, is reaped, the updated version
// continues as single leader, and the next train hop is armed.
func (c *Controller) commit(note string) {
	c.dropCandidate(note)
	c.pending = nil
	c.rec.Inc(obs.CCoreCommits)
	// The promoted runtime now leads: future updates must fork again.
	c.leaderRT.SetUpdateHooks(c.takeUpdate, c.updateOutcome, false)
	c.transition(StageSingleLeader, KindCommit, note)
	c.armNext()
}

// Rollback abandons the update (any time before promotion completes):
// the candidate is terminated and the leader carries on as if the update
// had never been requested. No state is lost — the leader kept serving
// throughout (§3.2 "handling new-version errors").
func (c *Controller) Rollback(reason string) bool {
	if c.closed || (c.stage != StageOutdatedLeader && c.stage != StagePromoting) {
		return false
	}
	c.dropCandidate(reason)
	c.requeueSuperseded()
	v := c.pending
	c.pending = nil
	c.gateGen++ // cancel any open window
	c.rec.Inc(obs.CCoreRollbacks)
	c.endUpdateSpan()
	c.transition(StageSingleLeader, KindRollback, "rolled back: "+reason)
	c.flushTrain("rollback of " + v.Name)
	if c.cfg.RetryOnRollback && c.retries < c.cfg.MaxRetries {
		c.retries++
		c.scheduleRetry(v, c.retries, "rollback")
	}
	return true
}

// dropCandidate kills the candidate's process and detaches it from the
// monitor. If it was the last consumer the leader serves alone again —
// even one that had retired for it.
func (c *Controller) dropCandidate(reason string) {
	fv := c.candidate
	if fv == nil {
		return
	}
	c.candidate = nil
	delete(c.live, fv.name)
	fv.rt.KillAll()
	c.detach(fv.proc, reason)
}

// requeueSuperseded reaps the replicas a retiring promotion ejected at
// its barrier, when the candidate then failed before taking over, and
// queues their slots for the leader that carries on.
func (c *Controller) requeueSuperseded() {
	var names []string
	for name := range c.live { // maporder: ok — names are sorted below
		if c.mon.VariantByName(name) == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		c.live[name].rt.KillAll()
		c.respawnQ = append(c.respawnQ, c.live[name].id)
		delete(c.live, name)
	}
	c.armRespawn()
}

// handleStall reacts to the monitor's liveness signals — a consumer hung
// (watchdog) or hopelessly lagging (discard policy) is as unusable as
// one that diverged or crashed — unless it is already failed or gone.
// Every watchdog stall is a tripped follower-liveness deadline and is
// recorded as one; a buffer-full stall trips no threshold.
func (c *Controller) handleStall(st mve.Stall) {
	if st.Reason == "no-progress" {
		c.record(Event{Kind: KindViolation, Subject: st.Proc, Rule: "follower-liveness",
			Note: fmt.Sprintf("no progress for %v (deadline %v)", st.Stalled, c.cfg.WatchdogDeadline)})
	}
	if p := c.mon.VariantByName(st.Proc); p != nil && !p.Failed() {
		c.applyVerdict(c.mon.FailVariant(p, "stall"),
			"stall: "+st.String(), "outdated follower stalled ("+st.Reason+"); committed")
	}
}

// handleCrash classifies a task crash by owner and stage, reporting
// whether this controller owned the crashed task.
func (c *Controller) handleCrash(info sim.CrashInfo) bool {
	fv, mine := c.owner(info)
	if !mine {
		return false
	}
	switch {
	case fv != nil:
		// A replica: the quorum decides. The candidate before promotion
		// (new-code or state-transform error): roll back, clients never
		// notice (§6.2). After it: drop it, surviving threads too.
		if !fv.proc.Failed() {
			c.applyVerdict(c.mon.FailVariant(fv.proc, "crash"),
				fmt.Sprintf("follower crashed: %v", info.Value), "outdated follower crashed; committed")
		}
	case c.gated:
		c.transition(c.stage, KindStage, fmt.Sprintf("leader crashed (%v); fleet leader failover not implemented", info.Value))
	case c.stage == StageOutdatedLeader:
		// The old version crashed while leading — likely an old-version
		// bug fixed by the update: promote the new version (§3.2
		// "handling old-version errors"). The crashed leader's stream may
		// be truncated mid-request; the monitor must not read the cut as
		// a divergence and roll back to a corpse.
		c.promoteOnCrash("promote-on-crash", fmt.Sprintf("leader crashed (%v); promoting follower", info.Value))
	case c.stage == StageUpdatedLeader:
		// The new version crashed while leading, before the operator
		// committed: the outdated follower is still warm and in sync,
		// so promote it back — the update is effectively rolled back
		// with no state loss (the symmetric case of §3.2's old-version
		// recovery). The train, if any, dies with the update: the revert
		// puts the old version back in charge, and later hops transform
		// from the crashed version's state shape.
		c.flushTrain("new-leader crash")
		c.promoteOnCrash("revert-on-crash", fmt.Sprintf("new leader crashed (%v); reverting to old version", info.Value))
	}
	return true
}

// promoteOnCrash hands leadership to the follower on behalf of a leader
// that just crashed, then finishes the crashed process off: a crash is
// process-fatal, so threads that survived the crashing one (a
// multithreaded server losing one worker) die with it. Once nothing of
// it is left to validate against, the promotion commits (here or in
// handlePromoted, whichever runs second) — otherwise the demoted remnant
// wedges validation behind its dead threads' events and eventually
// stalls the new leader on a full buffer.
func (c *Controller) promoteOnCrash(task, note string) {
	c.mon.MarkLeaderCrashed()
	rt := c.leaderRT
	c.sched.Go(task, func(t *sim.Task) {
		c.mon.Promote(t, mve.PromoteDemote)
		reap(t, rt)
		if c.stage == StageUpdatedLeader && c.FollowerRuntime() == rt {
			c.Commit()
		}
	})
	c.transition(StagePromoting, KindStage, note)
}

// reap kills rt and waits until it is really empty: killed tasks unwind
// when next scheduled.
func reap(t *sim.Task, rt *dsu.Runtime) {
	rt.KillAll()
	for rt.LiveThreads() > 0 {
		t.Yield()
	}
}

// owner finds the attached process a crashed task belonged to: a live
// variant (the candidate is one), or — nil, true — the leader.
func (c *Controller) owner(info sim.CrashInfo) (*variant, bool) {
	// maporder: ok — at most one variant owns the crashed task, so the
	// search result does not depend on iteration order.
	for _, fv := range c.live {
		if runtimeOwns(fv.rt, info) {
			return fv, true
		}
	}
	return nil, runtimeOwns(c.leaderRT, info)
}

// runtimeOwns reports whether a crashed task belongs to rt. Runtime
// tasks are named "<cfgname>/<thread>@<version>"; crashed tasks are
// matched by name prefix since the task may already be deregistered by
// the time the crash is reported.
func runtimeOwns(rt *dsu.Runtime, info sim.CrashInfo) bool {
	return rt != nil && strings.HasPrefix(info.Task, rt.Config().Name+"/")
}

// Shutdown tears the service down for harness teardown: replicas and
// candidate are detached from the monitor (releasing ring cursors and
// stopping watchdogs), every runtime, the leader's included, is killed,
// and every task the controller spawned ends at its next wake-up. This
// is not a lifecycle operation — no verdicts are put to the quorum,
// nothing is respawned, and the stage stays what it was.
func (c *Controller) Shutdown() {
	c.closed = true
	c.gateGen++
	c.pending = nil
	c.queued = nil
	c.respawnQ = nil
	for _, p := range c.mon.Variants() {
		c.detach(p, "shutdown")
	}
	killAll(c.live)
	c.candidate = nil
	c.live = make(map[string]*variant)
	if c.leaderRT != nil {
		c.leaderRT.KillAll()
	}
}

// killAll kills the runtimes of vars in name order. Kill moves blocked
// tasks straight onto the run queue, so any loop that kills runtimes
// must iterate deterministically — killing in map-iteration order would
// make the post-teardown dispatch order differ run to run (the same
// discipline as dsu.Runtime.KillAll).
func killAll(vars map[string]*variant) {
	names := make([]string, 0, len(vars))
	for name := range vars { // maporder: ok — names are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vars[name].rt.KillAll()
	}
}
