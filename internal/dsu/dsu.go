// Package dsu implements the dynamic software updating framework — the
// reproduction's counterpart of Kitsune (Hayden et al., OOPSLA'12), with
// the MVEDSUA extensions of §4 of the paper:
//
//   - Programs are whole versions. An update loads the next version,
//     transforms the running state with a programmer-supplied state
//     transformer, and restarts the program's main loop in the new
//     version ("control migration"), with Updating() reporting true so
//     initialization is skipped.
//
//   - Updates are only taken at programmer-chosen update points, and only
//     once every live thread has quiesced at one. A quiescence timeout
//     turns a wrongly-timed update into a failed (retryable) update
//     rather than a hang — the paper's timing-error class.
//
//   - Before taking an update the runtime consults a TakeUpdate hook.
//     MVEDSUA's controller uses it to fork execution: the leader aborts
//     the update (running an abort callback, e.g. to reset LibEvent
//     state) while the update proceeds on the forked follower.
//
//   - Optionally, epoll_wait acts as an implicit update point — the
//     extension §5.3 adds for LibEvent-structured programs like
//     Memcached, where the event loop owns the threads.
package dsu

import (
	"fmt"
	"sort"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// App is one version of an updatable application. Implementations hold
// all program state (including fd numbers), so Fork can stand in for
// process fork and Xform for state transformation.
type App interface {
	// Version returns the version name of this instance.
	Version() string
	// Main runs the application. It is called once at cold start with
	// env.Updating() == false, and re-entered after every dynamic update
	// with env.Updating() == true, in which case it must skip
	// initialization that already happened (control migration).
	Main(env *Env)
	// Fork returns a copy of the application's state that nothing the
	// original does afterwards can change, nor the other way round — a
	// deep copy, or one whose parts are shared until either side writes
	// them. It is the process-fork substitute used when MVEDSUA splits
	// execution.
	Fork() App
}

// Version describes an installable update: how to build the new program
// and how to migrate state into it.
type Version struct {
	// Name of the version being installed (e.g. "2.0.1").
	Name string
	// Xform transforms the old instance's state into a new-version
	// instance (the paper's xform arrow, Figure 3). A panicking or
	// erroring Xform models the state-transformation-error class.
	Xform func(old App) (App, error)
	// XformCost estimates the virtual time the transformation needs,
	// typically proportional to state size (Figure 7's experiment).
	XformCost func(old App) time.Duration
	// Rules are the forward rewrite rules for the outdated-leader stage
	// (old version leads, this version follows); ReverseRules serve the
	// updated-leader stage after promotion.
	Rules        *dsl.RuleSet
	ReverseRules *dsl.RuleSet
	// LazyXform marks an update whose Xform installs a per-entry lazy
	// migration instead of walking the whole heap: the app transforms
	// entries on first touch, and after applying the update the runtime
	// starts a background sweep task that migrates the cold tail in
	// batches (the app must implement LazyApp).
	LazyXform bool
}

// LazyApp is implemented by apps that support lazy (on-access) state
// transformation. After a Version with LazyXform is applied, the
// runtime runs a background sweep that drains PendingLazy via SweepLazy
// while the app migrates hot entries on first touch, charging that work
// to the touching request through Env.ChargeLazyXform.
type LazyApp interface {
	App
	// PendingLazy returns how many entries still await migration.
	PendingLazy() int
	// SweepLazy migrates up to max pending entries, returning how many
	// migrated and the virtual-time cost to charge for the batch.
	SweepLazy(max int) (migrated int, cost time.Duration)
}

// Decision is what an update point tells the calling thread to do.
type Decision int

// Decisions.
const (
	Continue Decision = iota // keep running this version
	Exit                     // unwind: the process updated
)

// TakeAction is the verdict of the TakeUpdate consultation hook.
type TakeAction int

// TakeUpdate verdicts.
const (
	TakeInPlace TakeAction = iota // apply the update in this process (plain Kitsune)
	TakeAbort                     // abort here; MVEDSUA forked the update elsewhere
)

// Outcome classifies how an update attempt ended.
type Outcome int

// Update outcomes.
const (
	OutcomeApplied  Outcome = iota // state transformed, new version running here
	OutcomeForked                  // aborted here after forking to a follower
	OutcomeTimedOut                // quiescence timeout (timing error)
	OutcomeFailed                  // state transformation errored on a forked follower
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeApplied:
		return "applied"
	case OutcomeForked:
		return "forked"
	case OutcomeTimedOut:
		return "timed-out"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// UpdateRecord is the audit trail of one update attempt.
type UpdateRecord struct {
	Version     string
	Outcome     Outcome
	RequestedAt time.Duration
	DecidedAt   time.Duration
	// Err carries the state-transformation error for OutcomeFailed
	// records; nil otherwise.
	Err error
}

// Config configures a Runtime.
type Config struct {
	// Name identifies the runtime in task names and logs.
	Name string
	// Dispatcher executes the application's syscalls (the vOS kernel
	// directly, or an MVE proc).
	Dispatcher sysabi.Dispatcher
	// UpdateCheckCost is charged at every update point (Kitsune's
	// steady-state overhead, 0-3% in the paper's Table 2).
	UpdateCheckCost time.Duration
	// QuiesceTimeout bounds how long threads wait for full quiescence
	// before declaring the attempt a timing error. Default 1s.
	QuiesceTimeout time.Duration
	// EpollWaitIsUpdatePoint treats every epoll_wait as an update point,
	// bounding each kernel wait so pending updates are noticed (§5.3).
	EpollWaitIsUpdatePoint bool
	// EpollUpdateInterval is the bounded wait used when
	// EpollWaitIsUpdatePoint is set. Default 10ms.
	EpollUpdateInterval time.Duration
	// TakeUpdate, if non-nil, is consulted once all threads have
	// quiesced. MVEDSUA's controller forks the follower here and returns
	// TakeAbort on the leader. Nil means plain Kitsune: TakeInPlace.
	TakeUpdate func(t *sim.Task, rt *Runtime, v *Version) TakeAction
	// OnAbort runs on this process after an aborted update, before
	// threads resume — the hook §5.3's Memcached uses to reset LibEvent
	// round-robin state so leader and follower stay in sync.
	OnAbort func(app App)
	// ParallelXform makes the state transformation cost elapse as
	// parallel time (the process runs on its own core, e.g. a follower)
	// instead of stalling service. Plain in-place updates leave it false
	// so the transformation pause is visible, as with Kitsune.
	ParallelXform bool
	// OnOutcome, if non-nil, observes every update attempt's record as
	// it is written. MVEDSUA's controller uses it to retry timing
	// errors.
	OnOutcome func(UpdateRecord)
	// Rec, if non-nil, receives update-point counters, quiescence-wait
	// and state-transfer histograms, lazy-migration counters, and
	// spans. Every metric records whenever a recorder is attached;
	// spans additionally require Rec.SpansEnabled().
	Rec *obs.Recorder
}

// Runtime is the per-process DSU runtime: it owns the app instance, its
// threads, and the update protocol.
type Runtime struct {
	cfg   Config
	sched *sim.Scheduler
	app   App

	// threads and tasks are keyed by a unique per-thread uid: logical
	// TIDs restart at 0 after each update (so they match across
	// versions), while old-generation threads may still be unwinding.
	threads  map[int]*Env
	tasks    map[int]*sim.Task
	nextUID  int
	nextTID  int
	gen      int // update generation, increments on each applied update
	quiesceQ sim.WaitQueue

	attempt *attempt    // the one pending update or barrier; trains queue in core.Controller
	sweeps  []*sim.Task // live lazy-migration sweep tasks
}

// attempt tracks one in-flight update request, or a quiescence barrier
// (barrier != nil): a function to run once every thread has quiesced,
// after which all threads continue in the same version. MVEDSUA uses
// barriers to swap leader and follower safely — the §5.3 observation
// that epoll_wait update points work "for establishing quiescence when
// updating originally, and for swapping leader and follower".
type attempt struct {
	v           *Version
	barrier     func(t *sim.Task)
	requestedAt time.Duration
	quiesced    int
	decided     bool
	exit        bool // verdict for waiting threads
}

// NewRuntime returns a runtime for the given initial application.
func NewRuntime(sched *sim.Scheduler, app App, cfg Config) *Runtime {
	if cfg.QuiesceTimeout == 0 {
		cfg.QuiesceTimeout = time.Second
	}
	if cfg.EpollUpdateInterval == 0 {
		cfg.EpollUpdateInterval = 10 * time.Millisecond
	}
	return &Runtime{
		cfg:     cfg,
		sched:   sched,
		app:     app,
		threads: make(map[int]*Env),
		tasks:   make(map[int]*sim.Task),
	}
}

// App returns the currently-running application instance.
func (rt *Runtime) App() App { return rt.app }

// Generation returns how many updates have been applied in this process.
func (rt *Runtime) Generation() int { return rt.gen }

// LiveThreads returns the number of registered application threads.
func (rt *Runtime) LiveThreads() int { return len(rt.threads) }

// Start launches the application's main thread (cold start) and returns
// its task.
func (rt *Runtime) Start() *sim.Task {
	return rt.launch(rt.app, false)
}

// StartForked boots this runtime as a freshly-forked same-version
// replica of a running process: no state transformation — the forked
// state is already current — but the main loop enters with
// Updating() == true, as any process resuming from transferred state
// does (its descriptors and tables came with the fork; a cold Main
// would recreate them). This is how the core controller respawns an
// ejected variant from the leader at a quiescence barrier.
func (rt *Runtime) StartForked(app App) *sim.Task {
	rt.app = app
	return rt.launch(app, true)
}

// StartUpdatedFromAt boots this runtime as a freshly-forked follower that
// immediately applies the pending update: it transforms old's state
// (charging the transformation cost) and enters the new version's main
// loop with Updating() == true. Returns the main thread's task.
//
// This is the follower half of MVEDSUA's fork-based update (§3.2, t1-t2).
// requestedAt is when the update was requested on the forking process,
// so the record's RequestedAt→DecidedAt gap reflects the real wait for
// quiescence rather than collapsing to zero.
//
// A failing state transformation does not crash the simulation: the
// attempt is recorded as OutcomeFailed (with the error) and the main
// loop never starts — the MVE layer sees a failed follower and rolls
// the update back (§3.2 "handling new-version errors").
func (rt *Runtime) StartUpdatedFromAt(old App, v *Version, requestedAt time.Duration) *sim.Task {
	return rt.spawn("main", v.Name, func(task *sim.Task) {
		newApp, err := rt.applyXform(task, old, v)
		if err != nil {
			rt.record(UpdateRecord{
				Version: v.Name, Outcome: OutcomeFailed, Err: err,
				RequestedAt: requestedAt, DecidedAt: rt.sched.Now(),
			})
			return
		}
		rt.app = newApp
		rt.gen++
		rt.record(UpdateRecord{
			Version: v.Name, Outcome: OutcomeApplied,
			RequestedAt: requestedAt, DecidedAt: rt.sched.Now(),
		})
		if v.LazyXform {
			rt.startLazySweep(newApp)
		}
		rt.runMain(task, newApp, true)
	})
}

// applyXform charges the transformation cost and runs v's state
// transformer on old. The transfer duration lands in the HDSUXform
// histogram whenever a recorder is attached; only span tracing adds the
// surrounding span.
func (rt *Runtime) applyXform(task *sim.Task, old App, v *Version) (App, error) {
	rec := rt.cfg.Rec
	traced := rec.SpansEnabled()
	track := "dsu:" + rt.cfg.Name
	start := rt.sched.Now()
	if traced {
		rec.BeginSpan(track, "xform:"+v.Name, "state transfer")
	}
	if v.XformCost != nil {
		rt.spendXform(task, v.XformCost(old))
	}
	newApp, err := v.Xform(old)
	rec.Observe(obs.HDSUXform, rt.sched.Now()-start)
	if traced {
		rec.EndSpan(track, "xform:"+v.Name)
	}
	return newApp, err
}

// startLazySweep spawns the background migration task for a LazyXform
// update just applied as app: it drains the cold tail in bounded
// batches, pausing between bursts so service traffic interleaves. Each
// burst's cost is spent like Xform cost (spendXform), in whatever mode
// the runtime is in at that burst, and the task exits when the tail is
// drained or the app is superseded by another update. The task is not a
// registered app thread: it never counts toward quiescence, so a queued
// next update is not blocked by its own predecessor's cleanup.
func (rt *Runtime) startLazySweep(app App) {
	la, ok := app.(LazyApp)
	if !ok {
		return
	}
	rec := rt.cfg.Rec
	t := rt.spawn("lazy-sweep", app.Version(), func(task *sim.Task) {
		for rt.app == app {
			n, cost := la.SweepLazy(lazySweepBatch)
			if n > 0 {
				rec.Add(obs.CDSUXformSwept, int64(n))
				rec.SetGauge(obs.GDSUXformPending, int64(la.PendingLazy()))
				rt.spendXform(task, cost)
			}
			if la.PendingLazy() == 0 {
				return
			}
			task.Sleep(lazySweepInterval)
		}
	})
	rt.sweeps = append(rt.sweeps, t)
}

// A lazy sweep migrates at most lazySweepBatch entries per burst — small
// enough that an in-place burst stays far below typical client latency
// budgets regardless of keyspace size — and pauses lazySweepInterval
// between bursts.
const (
	lazySweepBatch    = 64
	lazySweepInterval = time.Millisecond
)

// spendXform spends d of state-transformation work on task under the
// xform profiling label. In follower mode (ParallelXform) the work runs
// on its own core: it sleeps, stalling no one, and a profiler charges it
// to the off-CPU xform dimension. Otherwise it runs in place and service
// pauses (the Kitsune pause). The mode is read per call, so a runtime
// that SetUpdateHooks switches back to in-place — a promoted leader —
// stalls service from its next charge on, lazy sweep bursts included.
func (rt *Runtime) spendXform(task *sim.Task, d time.Duration) {
	if d <= 0 {
		return
	}
	task.PushLabel(obs.LblXform)
	if rt.cfg.ParallelXform {
		start := task.Now()
		task.Sleep(d)
		task.ChargeWait(obs.LblXform, start)
	} else {
		task.Advance(d)
	}
	task.PopLabel()
}

// launch spawns the main thread for app.
func (rt *Runtime) launch(app App, updating bool) *sim.Task {
	return rt.spawn("main", app.Version(), func(task *sim.Task) {
		rt.runMain(task, app, updating)
	})
}

// spawn starts one of the runtime's tasks, named
// "<runtime>/<thread>@<version>" for display and owned by rt, so a crash
// of it reports rt as its owner.
func (rt *Runtime) spawn(thread, version string, fn func(*sim.Task)) *sim.Task {
	t := rt.sched.Go(rt.cfg.Name+"/"+thread+"@"+version, fn)
	t.SetOwner(rt)
	return t
}

// runMain registers the calling task as logical thread 0 and runs Main.
func (rt *Runtime) runMain(task *sim.Task, app App, updating bool) {
	rt.nextTID = 0
	env := rt.register(task, updating)
	defer rt.deregister(env)
	app.Main(env)
}

func (rt *Runtime) register(task *sim.Task, updating bool) *Env {
	tid := rt.nextTID
	rt.nextTID++
	rt.nextUID++
	env := &Env{rt: rt, task: task, tid: tid, uid: rt.nextUID, updating: updating}
	rt.threads[env.uid] = env
	rt.tasks[env.uid] = task
	return env
}

func (rt *Runtime) deregister(env *Env) {
	delete(rt.threads, env.uid)
	delete(rt.tasks, env.uid)
	// A thread exiting during quiescence may complete it.
	if att := rt.attempt; att != nil && !att.decided && att.quiesced >= len(rt.threads) {
		rt.quiesceQ.WakeAll(rt.sched)
	}
}

// KillAll kills every live application thread and lazy-sweep task
// (follower teardown on rollback). Safe to call from any task. Threads
// are killed in thread-id order: Kill moves blocked tasks straight onto
// the run queue, so killing in map-iteration order would make the
// teardown dispatch order — and with it the whole subsequent schedule —
// differ run to run.
func (rt *Runtime) KillAll() {
	tids := make([]int, 0, len(rt.tasks))
	for tid := range rt.tasks { // maporder: ok — tids are sorted below
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		rt.tasks[tid].Kill()
	}
	for _, t := range rt.sweeps {
		if !t.Done() {
			t.Kill()
		}
	}
	rt.sweeps = nil
}

// SetUpdateHooks rebinds the runtime's update-time behaviour. MVEDSUA's
// controller calls this when a follower runtime is promoted to leader:
// its next update must fork (TakeUpdate) rather than apply in place, its
// transformations stall service again (in-place), and its outcomes feed
// the retry logic.
func (rt *Runtime) SetUpdateHooks(
	take func(t *sim.Task, rt *Runtime, v *Version) TakeAction,
	onOutcome func(UpdateRecord),
	parallelXform bool,
) {
	rt.cfg.TakeUpdate = take
	rt.cfg.OnOutcome = onOutcome
	rt.cfg.ParallelXform = parallelXform
}

// record hands an update record to the OnOutcome observer, its one
// reader; the runtime keeps none.
func (rt *Runtime) record(r UpdateRecord) {
	if rt.cfg.OnOutcome != nil {
		rt.cfg.OnOutcome(r)
	}
}

// RequestUpdate makes v the pending update; threads will take it at their
// next update points. Returns false if an update is already pending.
func (rt *Runtime) RequestUpdate(v *Version) bool {
	if rt.attempt != nil {
		return false
	}
	rt.attempt = &attempt{v: v, requestedAt: rt.sched.Now()}
	return true
}

// PendingSince returns when the in-flight attempt was requested (false
// if nothing is pending). MVEDSUA's controller threads this through to
// the forked follower so its update record carries the real request
// time.
func (rt *Runtime) PendingSince() (time.Duration, bool) {
	if rt.attempt == nil {
		return 0, false
	}
	return rt.attempt.requestedAt, true
}

// RequestBarrier schedules fn to run once all threads have quiesced at
// update points; the threads then continue in the current version.
// Unlike updates, barriers do not time out: they wait for quiescence as
// long as it takes. Returns false if an update or barrier is pending.
func (rt *Runtime) RequestBarrier(fn func(t *sim.Task)) bool {
	if rt.attempt != nil {
		return false
	}
	rt.attempt = &attempt{barrier: fn, requestedAt: rt.sched.Now()}
	return true
}

// Env is one application thread's handle on the DSU runtime. It carries
// the thread's logical id and dispatches its syscalls.
type Env struct {
	rt       *Runtime
	task     *sim.Task
	tid      int // logical thread id, stable across versions
	uid      int // unique registration key within the runtime
	updating bool
	exiting  bool
}

// Task returns the thread's sim task.
func (e *Env) Task() *sim.Task { return e.task }

// Updating reports whether Main was re-entered by a dynamic update and
// should skip initialization (Kitsune's control migration flag).
func (e *Env) Updating() bool { return e.updating }

// Exiting reports whether the thread must unwind out of Main: an update
// was applied.
func (e *Env) Exiting() bool { return e.exiting }

// Go spawns a sibling application thread with the next logical id.
func (e *Env) Go(name string, fn func(*Env)) *sim.Task {
	rt := e.rt
	tid := rt.nextTID
	rt.nextTID++
	rt.nextUID++
	uid := rt.nextUID
	return rt.spawn(name, rt.app.Version(), func(task *sim.Task) {
		env := &Env{rt: rt, task: task, tid: tid, uid: uid, updating: e.updating}
		rt.threads[uid] = env
		rt.tasks[uid] = task
		defer rt.deregister(env)
		fn(env)
	})
}

// ChargeLazyXform bills steps generations of on-access state migration,
// costing d of virtual time, to the calling thread — the hot half of a
// LazyXform update, called by the app just before it answers the request
// that touched the lagging entries. The cost elapses like Xform cost
// does (in-place normally, parallel in follower mode), the touch lands
// in the lazy-migration counters, and in span mode an instant marks the
// request's track so per-request latency attribution sees the charge.
func (e *Env) ChargeLazyXform(steps int, d time.Duration) {
	if steps <= 0 {
		return
	}
	rt := e.rt
	rec := rt.cfg.Rec
	rec.Add(obs.CDSUXformTouched, int64(steps))
	rec.Observe(obs.HDSUXformTouch, d)
	if la, ok := rt.app.(LazyApp); ok {
		rec.SetGauge(obs.GDSUXformPending, int64(la.PendingLazy()))
	}
	if rec.SpansEnabled() {
		rec.InstantSpan("dsu:"+rt.cfg.Name, "xform:touch",
			fmt.Sprintf("%d lazy migration step(s) on access", steps))
	}
	rt.spendXform(e.task, d)
}

// Sys issues a virtual system call on behalf of this thread. If the
// runtime treats epoll_wait as an update point, waits are bounded and the
// pending update is checked between rounds.
func (e *Env) Sys(c sysabi.Call) sysabi.Result {
	c.TID = e.tid
	if c.Op == sysabi.OpEpollWait && e.rt.cfg.EpollWaitIsUpdatePoint {
		for {
			if e.rt.attempt != nil {
				if e.UpdatePoint("epoll_wait") == Exit {
					return sysabi.Result{Err: sysabi.EKILLED}
				}
			}
			bounded := c
			bounded.Args[1] = int64(e.rt.cfg.EpollUpdateInterval)
			r := e.rt.cfg.Dispatcher.Invoke(e.task, bounded)
			if !r.OK() || r.Ret != 0 {
				return r
			}
			// Timed out empty: loop to re-check for a pending update.
		}
	}
	return e.rt.cfg.Dispatcher.Invoke(e.task, c)
}

// UpdatePoint marks a place where this thread is quiescent and an update
// may be applied (Kitsune's update points). It returns Exit when the
// thread must unwind out of Main: the process was updated in place (a
// new main thread is already running the new version).
func (e *Env) UpdatePoint(name string) Decision {
	rt := e.rt
	rt.cfg.Rec.Inc(obs.CDSUUpdatePoints)
	if rt.cfg.UpdateCheckCost > 0 {
		e.task.Advance(rt.cfg.UpdateCheckCost)
	}
	if e.exiting {
		return Exit
	}
	att := rt.attempt
	if att == nil {
		return Continue
	}
	// Quiesce.
	att.quiesced++
	deadline := rt.sched.Now() + rt.cfg.QuiesceTimeout
	for {
		if att.decided {
			break
		}
		if att.quiesced >= len(rt.threads) {
			rt.decide(e, att)
			break
		}
		if att.barrier != nil {
			// Barriers wait for quiescence indefinitely.
			e.task.Block(&rt.quiesceQ)
			continue
		}
		remaining := deadline - rt.sched.Now()
		if remaining <= 0 {
			// Timing error: not all threads quiesced in time. Fail the
			// attempt; the operator may retry (§6.2).
			att.decided = true
			att.exit = false
			rt.observeQuiesce(att)
			rt.record(UpdateRecord{
				Version: att.v.Name, Outcome: OutcomeTimedOut,
				RequestedAt: att.requestedAt, DecidedAt: rt.sched.Now(),
			})
			rt.attempt = nil
			rt.quiesceQ.WakeAll(rt.sched)
			break
		}
		e.task.BlockTimeout(&rt.quiesceQ, remaining)
	}
	att.quiesced--
	if att.exit {
		e.exiting = true
		return Exit
	}
	return Continue
}

// observeQuiesce records how long the attempt waited from the update
// request to the quiescence decision (the paper's wait-for-quiescence
// window).
func (rt *Runtime) observeQuiesce(att *attempt) {
	rt.cfg.Rec.Observe(obs.HDSUQuiesce, rt.sched.Now()-att.requestedAt)
}

// decide runs once per attempt, in the context of the last thread to
// quiesce: it consults the TakeUpdate hook and applies or aborts.
func (rt *Runtime) decide(e *Env, att *attempt) {
	if att.barrier != nil {
		att.barrier(e.task)
		att.decided = true
		att.exit = false
		rt.attempt = nil
		rt.quiesceQ.WakeAll(rt.sched)
		return
	}
	rt.observeQuiesce(att)
	action := TakeInPlace
	if rt.cfg.TakeUpdate != nil {
		action = rt.cfg.TakeUpdate(e.task, rt, att.v)
	}
	switch action {
	case TakeAbort:
		att.decided = true
		att.exit = false
		rt.record(UpdateRecord{
			Version: att.v.Name, Outcome: OutcomeForked,
			RequestedAt: att.requestedAt, DecidedAt: rt.sched.Now(),
		})
		rt.attempt = nil
		if rt.cfg.OnAbort != nil {
			rt.cfg.OnAbort(rt.app)
		}
	default:
		old := rt.app
		newApp, err := rt.applyXform(e.task, old, att.v)
		if err != nil {
			// A broken state transformation crashes the process, as it
			// would with Kitsune (§6.2 "error in the state transformation").
			panic(fmt.Sprintf("dsu: state transformation to %s failed: %v", att.v.Name, err))
		}
		rt.app = newApp
		rt.gen++
		att.decided = true
		att.exit = true
		rt.record(UpdateRecord{
			Version: att.v.Name, Outcome: OutcomeApplied,
			RequestedAt: att.requestedAt, DecidedAt: rt.sched.Now(),
		})
		rt.attempt = nil
		// Control migration: relaunch main in the new version. The old
		// threads unwind as they observe att.exit.
		rt.launch(newApp, true)
		if att.v.LazyXform {
			rt.startLazySweep(newApp)
		}
	}
	rt.quiesceQ.WakeAll(rt.sched)
}
