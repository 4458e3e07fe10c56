// Package core implements MVEDSUA itself: the controller that combines
// the DSU framework (internal/dsu, the Kitsune counterpart) with the MVE
// monitor (internal/mve, the Varan counterpart) to deliver low-latency,
// error-tolerant dynamic updates (§3 of the paper).
//
// The controller drives the paper's Figure 2 stage machine:
//
//	SingleLeader ──Update()──▶ OutdatedLeader ──Promote()──▶ UpdatedLeader ──Commit()──▶ SingleLeader
//	      ▲                         │ divergence/crash/Rollback()                │ old-version divergence
//	      └─────────────────────────┴──────────────────────────────────────────┘
//
// Updates are applied on a forked follower while the leader keeps
// serving; the follower catches up through the ring buffer; divergences
// and crashes of the updated version roll the update back with no state
// loss; crashes of the old version promote the new one.
package core

import (
	"fmt"
	"time"

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
	StageSingleLeader   Stage = iota // t0-t1, t6-: one version, light interception
	StageOutdatedLeader              // t1-t4: old version leads, new follows
	StagePromoting                   // t4-t5: demotion written, buffer draining
	StageUpdatedLeader               // t5-t6: new version leads, old follows
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
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Event is one entry of the controller's timeline (stage changes,
// rollbacks, retries); the Figure 6 experiment annotates throughput
// curves with these.
type Event struct {
	At    time.Duration
	Stage Stage
	Note  string
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
	// Lockstep switches the monitor to the MUC/Mx lockstep model
	// (comparison baseline only).
	Lockstep bool
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
	// time ("leader" or "follower") and its proc name. This is the
	// sysabi chokepoint hook the chaos layer (internal/chaos) uses to
	// inject faults without the controller knowing about it.
	WrapDispatcher func(role, name string, d sysabi.Dispatcher) sysabi.Dispatcher
	// Recorder, if non-nil, is the flight recorder every layer of this
	// controller's pipeline (monitor, ring buffer, stage machine) emits
	// metrics and trace events into. Nil disables observation at the
	// cost of one pointer check per instrumented operation.
	Recorder *obs.Recorder
	// Scope, if non-empty, additionally mirrors the controller's
	// lifecycle counters (transitions, updates, commits, rollbacks,
	// retries) into Recorder.Child(Scope). The sharded runtime places
	// one controller per connection group and labels each with its
	// shard ("shard0", "shard1", …), so per-shard ledgers can be
	// reported next to the obs.Registry.MergeInto aggregate. Empty —
	// the default, and every golden run — records nothing extra.
	Scope string
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

// Controller is the MVEDSUA orchestrator for one service.
type Controller struct {
	sched  *sim.Scheduler
	kernel *vos.Kernel
	cfg    Config
	mon    *mve.Monitor

	stage      Stage
	leaderRT   *dsu.Runtime // runtime of the process currently leading
	otherRT    *dsu.Runtime // runtime of the follower process (either stage)
	pending    *dsu.Version
	queued     []*dsu.Version // update train: hops waiting behind pending
	retries    int
	nextProcID int

	timeline []Event
	rec      *obs.Recorder
	scope    *obs.Registry // Config.Scope child; nil when unscoped
	health   *HealthEngine // follower-liveness rules behind the watchdog

	// Open async spans (span mode only): the current stage's arc on the
	// "controller" track, and the fork→promote update window.
	stageSpanID    uint64
	stageSpanName  string
	updateSpanID   uint64
	updateSpanName string

	// OnCrash, if non-nil, observes crashes the controller already
	// handled (rollbacks/promotions) as well as unhandled ones.
	OnCrash func(sim.CrashInfo, bool)
	// OnStage, if non-nil, observes stage transitions.
	OnStage func(Event)
}

// New builds a controller on the kernel's scheduler.
func New(kernel *vos.Kernel, cfg Config) *Controller {
	cfg.validate()
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
		sched:  kernel.Scheduler(),
		kernel: kernel,
		cfg:    cfg,
		mon:    mve.New(kernel, cfg.BufferEntries, cfg.Costs),
		stage:  StageSingleLeader,
		rec:    cfg.Recorder,
	}
	if cfg.Scope != "" {
		c.scope = cfg.Recorder.Child(cfg.Scope)
	}
	c.mon.SetRecorder(cfg.Recorder)
	c.mon.Lockstep = cfg.Lockstep
	c.mon.WatchdogDeadline = cfg.WatchdogDeadline
	if cfg.WatchdogDeadline > 0 {
		c.health = NewHealthEngine("core", c.rec,
			[]HealthRule{FollowerLivenessRule(cfg.WatchdogDeadline)})
		c.mon.StallJudge = c.health.StallJudge()
	}
	c.mon.FullPolicy = cfg.BufferFullPolicy
	c.mon.OnDivergence = c.handleDivergence
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

// wrapDispatcher applies the configured dispatcher hook (chaos layer)
// around a freshly created proc. The role reflects the process's role at
// creation time; it does not change if the process is later promoted.
func (c *Controller) wrapDispatcher(role string, proc *mve.Proc) sysabi.Dispatcher {
	if c.cfg.WrapDispatcher == nil {
		return proc
	}
	return c.cfg.WrapDispatcher(role, proc.Name(), proc)
}

// Monitor exposes the underlying MVE monitor.
func (c *Controller) Monitor() *mve.Monitor { return c.mon }

// Health exposes the controller's health engine (nil when no watchdog
// is armed). SLO scenarios enable verdict emission on it.
func (c *Controller) Health() *HealthEngine { return c.health }

// Recorder returns the attached flight recorder, or nil.
func (c *Controller) Recorder() *obs.Recorder { return c.rec }

// Stage returns the current lifecycle stage.
func (c *Controller) Stage() Stage { return c.stage }

// LeaderRuntime returns the DSU runtime of the current leader process.
func (c *Controller) LeaderRuntime() *dsu.Runtime { return c.leaderRT }

// FollowerRuntime returns the DSU runtime of the follower process, or nil.
func (c *Controller) FollowerRuntime() *dsu.Runtime { return c.otherRT }

// Timeline returns the stage-transition history.
func (c *Controller) Timeline() []Event { return c.timeline }

func (c *Controller) transition(stage Stage, note string) {
	c.stage = stage
	ev := Event{At: c.sched.Now(), Stage: stage, Note: note}
	c.timeline = append(c.timeline, ev)
	c.rec.Inc(obs.CCoreTransitions)
	c.scope.Inc(obs.CCoreTransitions)
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
	if c.OnStage != nil {
		c.OnStage(ev)
	}
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
// (promotion completed, or the update rolled back first).
func (c *Controller) endUpdateSpan() {
	if !c.rec.SpansEnabled() || c.updateSpanID == 0 {
		return
	}
	c.rec.EndAsync("controller", c.updateSpanName, c.updateSpanID)
	c.updateSpanID = 0
}

// Start deploys app in single-leader mode (Figure 2, t0) and returns the
// leader's DSU runtime.
func (c *Controller) Start(app dsu.App) *dsu.Runtime {
	proc := c.mon.StartSingleLeader(c.procName(app.Version()))
	cfg := c.cfg.DSU
	cfg.Name = "leader"
	cfg.Dispatcher = c.wrapDispatcher("leader", proc)
	cfg.ParallelXform = false
	cfg.TakeUpdate = c.takeUpdate
	cfg.OnOutcome = c.updateOutcome
	cfg.Rec = c.rec
	c.leaderRT = dsu.NewRuntime(c.sched, app, cfg)
	c.leaderRT.Start()
	c.transition(StageSingleLeader, "deployed "+app.Version())
	return c.leaderRT
}

func (c *Controller) procName(version string) string {
	c.nextProcID++
	return fmt.Sprintf("proc%d@%s", c.nextProcID, version)
}

// Update requests a dynamic update to v (Figure 2, t1). The update is
// taken at the leader's next full quiescence: MVEDSUA forks a follower,
// applies the update there, and begins validating it. Returns false if
// another update is already pending or the controller is mid-update;
// callers shipping a version train should use QueueUpdate instead.
func (c *Controller) Update(v *dsu.Version) bool {
	if c.stage != StageSingleLeader || c.pending != nil {
		return false
	}
	c.pending = v
	c.retries = 0
	c.rec.Inc(obs.CCoreUpdates)
	c.scope.Inc(obs.CCoreUpdates)
	return c.leaderRT.RequestUpdate(v)
}

// QueueUpdate requests v, queueing it behind any in-flight update
// instead of dropping it: versions form a train and each hop starts the
// moment the previous one commits. Returns 0 when v was requested
// immediately, otherwise v's position in the train (1 = next up). A
// rollback or abandoned hop flushes the rest of the train — later hops
// assume the earlier ones' state shape, so skipping one is never safe.
func (c *Controller) QueueUpdate(v *dsu.Version) int {
	if c.Update(v) {
		return 0
	}
	c.queued = append(c.queued, v)
	c.transition(c.stage, fmt.Sprintf("queued update %s (train depth %d)", v.Name, len(c.queued)))
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
	c.pending = v
	c.retries = 0
	c.rec.Inc(obs.CCoreUpdates)
	c.scope.Inc(obs.CCoreUpdates)
	c.transition(c.stage, fmt.Sprintf("train: requesting %s (%d more queued)", v.Name, len(c.queued)))
	c.leaderRT.RequestUpdate(v)
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
	c.transition(c.stage, fmt.Sprintf("update train flushed after %s (%d queued hop(s) dropped)", why, n))
}

// takeUpdate is the leader's DSU consultation hook: fork and abort.
func (c *Controller) takeUpdate(t *sim.Task, rt *dsu.Runtime, v *dsu.Version) dsu.TakeAction {
	// Runs in the leader's task at quiescence: the fork + follower
	// launch is the update's in-band moment, so attribute it to the
	// xform dimension when profiling is on.
	if c.rec.ProfilingEnabled() {
		t.PushLabel(obs.LblXform)
		defer t.PopLabel()
	}
	// The update was requested when the leader runtime armed it, not
	// when quiescence finally decided it here; thread the real request
	// time into the follower's update record.
	reqAt, ok := rt.PendingSince()
	if !ok {
		reqAt = c.sched.Now()
	}
	forked := rt.App().Fork()
	proc := c.mon.AttachFollower(c.procName(v.Name), v.Rules)
	c.beginUpdateSpan(v.Name)
	cfg := c.cfg.DSU
	cfg.Name = "follower"
	cfg.Dispatcher = c.wrapDispatcher("follower", proc)
	cfg.ParallelXform = true
	cfg.TakeUpdate = nil
	cfg.OnOutcome = c.followerOutcome
	cfg.Rec = c.rec
	c.otherRT = dsu.NewRuntime(c.sched, forked, cfg)
	c.otherRT.StartUpdatedFromAt(forked, v, reqAt)
	c.transition(StageOutdatedLeader, "forked follower for "+v.Name)
	return dsu.TakeAbort
}

// followerOutcome observes the forked follower runtime's update records.
// A failed state transformation surfaces here as OutcomeFailed — the MVE
// rollback path then sees a failed follower and reverts to the leader,
// instead of the transform error crashing the whole scheduler.
func (c *Controller) followerOutcome(rec dsu.UpdateRecord) {
	if rec.Outcome != dsu.OutcomeFailed {
		return
	}
	c.Rollback(fmt.Sprintf("state transformation to %s failed: %v", rec.Version, rec.Err))
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
		c.transition(c.stage, "update "+rec.Version+" abandoned after timeout")
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
	c.scope.Inc(obs.CCoreRetries)
	c.rec.Emitf(obs.KindRetry, v.Name, "%s; retry %d scheduled with %v backoff", why, n, delay)
	c.transition(c.stage, fmt.Sprintf("%s; retry %d of %s in %v", why, n, v.Name, delay))
	c.sched.Go(fmt.Sprintf("retry%d@%s", n, v.Name), func(t *sim.Task) {
		t.Sleep(delay)
		if c.stage != StageSingleLeader {
			return
		}
		if c.pending == nil {
			c.pending = v // reclaim after a rollback cleared it
		}
		if c.pending != v {
			return // a different update superseded this one
		}
		c.leaderRT.RequestUpdate(v)
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
// to-be-demoted leader.
func (c *Controller) Promote() bool {
	if c.stage != StageOutdatedLeader {
		return false
	}
	if c.pending != nil {
		c.mon.SetReverseRules(c.pending.ReverseRules)
	}
	if !c.leaderRT.RequestBarrier(func(t *sim.Task) {
		c.mon.PromoteNow(t)
	}) {
		return false
	}
	c.transition(StagePromoting, "promotion requested")
	return true
}

// handlePromoted fires when the updated version has taken over (t5).
func (c *Controller) handlePromoted(newLeader *mve.Proc) {
	c.leaderRT, c.otherRT = c.otherRT, c.leaderRT
	c.endUpdateSpan()
	c.transition(StageUpdatedLeader, newLeader.Name()+" now leads")
	// If the demoted process is already dead (promotion after an
	// old-version crash), there is nothing left to validate against:
	// commit immediately so the buffer does not fill up unconsumed.
	if c.otherRT == nil || c.otherRT.LiveThreads() == 0 {
		c.Commit()
	}
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

// commit ends the updated-leader stage with the new version in charge,
// whether the operator asked (Commit) or the outdated follower stalled,
// diverged or crashed and left nothing to validate against: the whole
// follower process is reaped, the updated version continues as single
// leader, and the next train hop, if any, is armed.
func (c *Controller) commit(note string) {
	if c.otherRT != nil {
		c.otherRT.KillAll()
	}
	c.mon.DropFollower()
	c.otherRT = nil
	c.pending = nil
	c.rec.Inc(obs.CCoreCommits)
	c.scope.Inc(obs.CCoreCommits)
	// The promoted runtime now leads: future updates must fork again.
	c.leaderRT.SetUpdateHooks(c.takeUpdate, c.updateOutcome, false)
	c.transition(StageSingleLeader, note)
	c.armNext()
}

// Rollback abandons the update (any time before Commit): the follower is
// terminated and the leader reverts to single-leader mode. No state is
// lost — the leader kept serving throughout (§3.2 "handling new-version
// errors").
func (c *Controller) Rollback(reason string) bool {
	if c.stage != StageOutdatedLeader && c.stage != StagePromoting {
		return false
	}
	if c.otherRT != nil {
		c.otherRT.KillAll()
	}
	c.mon.DropFollower()
	c.otherRT = nil
	v := c.pending
	c.pending = nil
	c.rec.Inc(obs.CCoreRollbacks)
	c.scope.Inc(obs.CCoreRollbacks)
	c.endUpdateSpan()
	c.transition(StageSingleLeader, "rolled back: "+reason)
	flushed := "rollback"
	if v != nil {
		flushed = "rollback of " + v.Name
	}
	c.flushTrain(flushed)
	if c.cfg.RetryOnRollback && v != nil && c.cfg.RetryInterval > 0 && c.retries < c.cfg.MaxRetries {
		c.retries++
		c.scheduleRetry(v, c.retries, "rollback")
	}
	return true
}

// handleStall reacts to the monitor's liveness signals. A follower that
// stopped consuming events — hung (watchdog) or hopelessly lagging
// (discard policy) — is as unusable as one that produced wrong ones, so
// the stall is handled exactly like a divergence in the same stage, and
// the outcome lands in the timeline.
func (c *Controller) handleStall(st mve.Stall) {
	switch c.stage {
	case StageOutdatedLeader, StagePromoting:
		c.Rollback("stall: " + st.String())
	case StageUpdatedLeader:
		c.commit("outdated follower stalled (" + st.Reason + "); committed")
	}
}

// handleDivergence reacts to MVE divergences according to the stage:
//   - outdated leader stage: the updated follower is wrong → roll back.
//   - updated leader stage: the outdated follower disagrees with the new
//     version's exposed semantics → terminate the outdated follower.
func (c *Controller) handleDivergence(d mve.Divergence) {
	switch c.stage {
	case StageOutdatedLeader, StagePromoting:
		c.Rollback("divergence: " + d.Reason)
	case StageUpdatedLeader:
		c.commit("outdated follower diverged; committed " + d.Proc)
	}
}

// reapCrashed finishes off a crashed-but-promoted-away runtime: a crash
// is process-fatal, so threads that survived the crashing one (e.g. a
// multithreaded server losing one worker) die with the process. Once
// nothing of it is left to validate against, the promotion commits —
// without this, the demoted remnant wedges validation behind its dead
// threads' events and eventually stalls the new leader on a full
// buffer.
func (c *Controller) reapCrashed(t *sim.Task, rt *dsu.Runtime) {
	rt.KillAll()
	// Killed tasks unwind when next scheduled; wait until the runtime is
	// really empty so the commit check (here or in handlePromoted,
	// whichever runs second) sees the truth.
	for rt.LiveThreads() > 0 {
		t.Yield()
	}
	if c.stage == StageUpdatedLeader && c.otherRT == rt {
		c.Commit()
	}
}

// handleCrash classifies a task crash by owner and stage, reporting
// whether this controller owned the crashed task.
func (c *Controller) handleCrash(info sim.CrashInfo) bool {
	handled := false
	mine := runtimeOwns(c.leaderRT, info) || runtimeOwns(c.otherRT, info)
	switch {
	case runtimeOwns(c.otherRT, info) && (c.stage == StageOutdatedLeader || c.stage == StagePromoting):
		// The updated follower crashed (new-code or state-transform
		// error): roll back, clients never notice (§6.2).
		c.Rollback(fmt.Sprintf("follower crashed: %v", info.Value))
		handled = true
	case runtimeOwns(c.otherRT, info) && c.stage == StageUpdatedLeader:
		// The outdated follower crashed after promotion: drop it, its
		// surviving threads included.
		c.commit("outdated follower crashed; committed")
		handled = true
	case runtimeOwns(c.leaderRT, info) && c.stage == StageOutdatedLeader:
		// The old version crashed while leading — likely an old-version
		// bug fixed by the update: promote the new version (§3.2
		// "handling old-version errors"). The crashed leader's stream may
		// be truncated mid-request; the monitor must not read the cut as
		// a divergence and roll back to a corpse.
		c.mon.MarkLeaderCrashed()
		rt := c.leaderRT
		c.sched.Go("promote-on-crash", func(t *sim.Task) {
			c.mon.PromoteNow(t)
			c.reapCrashed(t, rt)
		})
		c.transition(StagePromoting, fmt.Sprintf("leader crashed (%v); promoting follower", info.Value))
		handled = true
	case runtimeOwns(c.leaderRT, info) && c.stage == StageUpdatedLeader:
		// The new version crashed while leading, before the operator
		// committed: the outdated follower is still warm and in sync,
		// so promote it back — the update is effectively rolled back
		// with no state loss (the symmetric case of §3.2's old-version
		// recovery).
		// The train, if any, dies with the update: the revert puts the
		// old version back in charge, and later hops transform from the
		// crashed version's state shape.
		c.flushTrain("new-leader crash")
		c.mon.MarkLeaderCrashed()
		rt := c.leaderRT
		c.sched.Go("revert-on-crash", func(t *sim.Task) {
			c.mon.PromoteNow(t)
			c.reapCrashed(t, rt)
		})
		c.transition(StagePromoting, fmt.Sprintf("new leader crashed (%v); reverting to old version", info.Value))
		handled = true
	}
	if mine && c.OnCrash != nil {
		c.OnCrash(info, handled)
	}
	return mine
}
