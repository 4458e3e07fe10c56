package sim

import "time"

// killedPanic is the sentinel used to unwind a task that was killed while
// blocked or yielding. It is recovered by the task wrapper (Task.exit) and
// never escapes the scheduler.
type killedPanic struct{}

// Task is a cooperative thread of execution inside a Scheduler. All Task
// methods must be called from the task's own function (except Kill and
// Done, which may be called from any task).
type Task struct {
	id    int
	name  string
	owner any // who the task works for: a crash report carries it
	s     *Scheduler
	state State
	slot  int // index in s.tasks while the task is live

	// The task's coroutine (see Task.start): dispatch calls next to run
	// the task until it parks, park calls yield to hand the CPU back.
	// Those two are nil once the task is done.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	still  Waiter     // while parked by BlockWhile: its predicate, and
	whileQ *WaitQueue // the queue dispatch puts the task back on

	killed   bool
	crashed  bool
	crashVal interface{}

	// queue the task is currently blocked on, for removal on Kill.
	waitingOn *WaitQueue
	joiners   WaitQueue
	timerIdx  int // while sleeping, 1 + its timer's slot in s.timers; 0 otherwise

	// labels is the profiling attribution stack (see PushLabel). Always
	// empty unless a SliceProfiler is attached to the scheduler.
	labels []string
}

// Name returns the task's name, as passed to Scheduler.Go.
func (t *Task) Name() string { return t.name }

// SetOwner records who t works for — a process runtime, say — so that
// a crash of t reaches its handler with CrashInfo.Owner set to owner.
func (t *Task) SetOwner(owner any) { t.owner = owner }

// ID returns the task's unique id within its scheduler.
func (t *Task) ID() int { return t.id }

// Scheduler returns the scheduler that owns this task.
func (t *Task) Scheduler() *Scheduler { return t.s }

// State returns the task's current lifecycle state.
func (t *Task) State() State { return t.state }

// Done reports whether the task has exited.
func (t *Task) Done() bool { return t.state == StateDone }

// Now returns the current virtual time.
func (t *Task) Now() time.Duration { return t.s.clock }

// park hands control back to the scheduler and waits to be resumed. On
// resume, if the task was killed in the meantime, it unwinds via
// killedPanic so deferred cleanup still runs.
func (t *Task) park() {
	t.yield(struct{}{})
	t.state = StateRunning
	if t.killed {
		panic(killedPanic{})
	}
}

// exit is the deferred tail of the task's coroutine: it classifies how
// the body ended (return, kill, or an application panic that dispatch
// will report as a CrashInfo), retires the task and wakes its joiners.
func (t *Task) exit() {
	if r := recover(); r != nil {
		if _, isKill := r.(killedPanic); !isKill {
			t.crashed = true
			t.crashVal = r
		}
	}
	t.state = StateDone
	t.still, t.whileQ = nil, nil // a killed BlockWhile waiter left them set
	t.s.forget(t)
	t.joiners.WakeAll(t.s)
}

// Yield places the task at the back of the run queue and lets other
// runnable tasks execute first.
func (t *Task) Yield() {
	t.checkCurrent("Yield")
	t.s.enqueue(t)
	t.park()
}

// Advance charges d of virtual work to the clock: the clock moves forward
// and any timers that become due fire (their tasks become runnable behind
// this one). The calling task keeps running.
func (t *Task) Advance(d time.Duration) {
	t.checkCurrent("Advance")
	if d < 0 {
		d = 0
	}
	t.s.advanceTo(t.s.clock + d)
}

// Sleep parks the task until the virtual clock reaches now+d.
func (t *Task) Sleep(d time.Duration) {
	t.checkCurrent("Sleep")
	if d <= 0 {
		t.Yield()
		return
	}
	t.arm(d)
	t.park()
}

// arm puts the task to sleep on a new timer d from now.
func (t *Task) arm(d time.Duration) {
	t.state = StateSleeping
	t.s.nextSeq++
	t.s.timers.push(timer{when: t.s.clock + d, seq: t.s.nextSeq, task: t})
}

// disarm takes the task's timer, if it has one, out of the heap: a
// sleeper woken or killed before its deadline leaves nothing behind.
func (t *Task) disarm() {
	if t.timerIdx != 0 {
		t.s.timers.remove(t.timerIdx - 1)
	}
}

// Block parks the task on q until another task wakes it. The caller must
// re-check its wait condition after Block returns: wakeups can be
// collective (WakeAll).
func (t *Task) Block(q *WaitQueue) {
	t.checkCurrent("Block")
	t.waitOn(q)
	t.park()
}

// waitOn queues the task at the back of q as blocked.
func (t *Task) waitOn(q *WaitQueue) {
	t.state = StateBlocked
	t.waitingOn = q
	q.tasks.push(t)
}

// Waiter is BlockWhile's predicate. The scheduler calls it between slices:
// it may only read state of the task's own scheduler, and never block.
type Waiter interface {
	StillWaiting() bool
}

// BlockWhile parks the task on q until a wake finds w.StillWaiting()
// false: dispatch for dispatch the schedule of
// `for { t.Block(q); if !w.StillWaiting() { break } }`, but a wake that
// finds it true is settled by Scheduler.dispatch, which puts the task
// back on q itself — counted, profiled and reported to OnSlice as the
// loop's empty slice would be, without the two coroutine switches.
// A kill always resumes the task, which unwinds through its defers.
func (t *Task) BlockWhile(q *WaitQueue, w Waiter) {
	t.checkCurrent("BlockWhile")
	t.still, t.whileQ = w, q
	t.waitOn(q)
	t.park()
	t.still, t.whileQ = nil, nil
}

// BlockTimeout parks the task on q until woken or until d elapses. It
// reports whether the task was woken (true) or timed out (false).
func (t *Task) BlockTimeout(q *WaitQueue, d time.Duration) bool {
	t.checkCurrent("BlockTimeout")
	t.waitOn(q)
	t.arm(d) // asleep, but on q: a wake or the timer ends the wait
	t.park()
	// Determine outcome: if still on the queue, it was a timeout.
	timedOut := q.tasks.remove(t)
	t.waitingOn = nil
	return !timedOut
}

// Join blocks until other has exited.
func (t *Task) Join(other *Task) {
	t.checkCurrent("Join")
	for !other.Done() {
		t.Block(&other.joiners)
	}
}

// Kill marks the task for termination. If the task is blocked or sleeping
// it becomes runnable and unwinds the next time it is scheduled; if it is
// currently running it unwinds at its next scheduling point. Killing a
// done task is a no-op.
func (t *Task) Kill() {
	if t.state == StateDone || t.killed {
		return
	}
	t.killed = true
	switch t.state {
	case StateBlocked, StateSleeping:
		// Schedule the task now; a sleeper's timer goes with it.
		t.disarm()
		if t.waitingOn != nil {
			t.waitingOn.tasks.remove(t)
			t.waitingOn = nil
		}
		t.s.enqueue(t)
	}
}

func (t *Task) checkCurrent(op string) {
	if t.s.current != t {
		panic("sim: " + op + " called from outside task " + t.name)
	}
	// A kill issued while this task was running takes effect at its next
	// scheduling point.
	if t.killed {
		panic(killedPanic{})
	}
}

// WaitQueue is an ordered set of tasks blocked on a condition. The zero
// value is ready to use.
type WaitQueue struct {
	tasks taskFIFO
}

// WakeOne makes the oldest parked task runnable. It reports whether a task
// was woken. A BlockTimeout waiter's timer is removed with the wake.
func (q *WaitQueue) WakeOne(s *Scheduler) bool {
	for q.tasks.len() > 0 {
		t := q.tasks.pop()
		if t.state == StateBlocked || t.state == StateSleeping {
			t.waitingOn = nil
			t.disarm()
			s.enqueue(t)
			return true
		}
	}
	return false
}

// WakeAll makes every parked task runnable, preserving FIFO order.
func (q *WaitQueue) WakeAll(s *Scheduler) int {
	n := 0
	for q.WakeOne(s) {
		n++
	}
	return n
}
