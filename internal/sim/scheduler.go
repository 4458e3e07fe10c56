// Package sim provides a deterministic cooperative scheduler with virtual
// time. It is the execution substrate for the whole MVEDSUA reproduction:
// server threads, MVE followers, benchmark clients, and the update
// controller all run as sim tasks inside one Scheduler.
//
// Exactly one task executes at a time; a task runs until it yields, blocks,
// sleeps, or exits. The virtual clock advances only when a running task
// charges work with Advance, or when every task is blocked and the scheduler
// jumps to the earliest pending timer. Runs are therefore bit-for-bit
// reproducible, which the divergence-detection tests rely on.
//
// Every task is a runtime coroutine (iter.Pull, see coro.go): the goroutine
// that called Run resumes the next task with one coroswitch and the task
// parks with another, so a dispatch never passes through the Go scheduler,
// a channel or a futex, and allocates nothing. The package therefore needs
// a Go >= 1.23 toolchain.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// State describes where a task is in its lifecycle.
type State int

// Task lifecycle states.
const (
	StateNew      State = iota // created, not yet started
	StateRunnable              // on the run queue
	StateRunning               // currently executing
	StateBlocked               // parked on a WaitQueue
	StateSleeping              // parked on the timer heap
	StateDone                  // exited
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DeadlockError is returned by Run when live tasks remain but none can make
// progress: every task is blocked on a WaitQueue and no timers are pending.
type DeadlockError struct {
	// Blocked lists the names of the tasks that were stuck.
	Blocked []string
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d tasks blocked: %v", len(e.Blocked), e.Blocked)
}

// CrashInfo records a task that exited by panicking. The scheduler converts
// application panics into CrashInfo values instead of crashing the host
// process; MVEDSUA's fault-tolerance experiments observe crashes this way.
type CrashInfo struct {
	Task  string      // task name, for display
	Owner any         // the task's owner (Task.SetOwner), or nil
	Value interface{} // the recovered panic value
}

// Scheduler owns the virtual clock and all tasks.
type Scheduler struct {
	clock   time.Duration
	nextID  int
	nextSeq int64
	shard   int // index within a ShardedScheduler; 0 for standalone use

	runq   taskFIFO
	timers timerHeap
	tasks  []*Task // the live tasks (not yet done), indexed by Task.slot

	current *Task

	// OnCrash, if non-nil, is invoked (in scheduler context) whenever a
	// task exits via panic. If nil, the panic is re-raised.
	OnCrash func(CrashInfo)

	// OnSlice, if non-nil, observes each dispatch's run slice after the
	// task parks again: the task's name plus the virtual interval it held
	// the CPU. It is a pure observer — called in scheduler context, after
	// the slice ended — so it cannot perturb scheduling or the clock.
	OnSlice func(task string, start, end time.Duration)

	// profiler, if non-nil, receives exact per-segment attribution of
	// every slice (see SetProfiler). segStart tracks the open segment's
	// left edge while a task runs; label pushes flush and restart it.
	profiler SliceProfiler
	segStart time.Duration

	crashes    []CrashInfo
	dispatches int64
	settled    int64 // dispatches that re-parked a BlockWhile waiter
}

// goschedEvery is how many dispatches pass between runtime.Gosched
// calls in dispatch. A coroutine switch never enters the Go scheduler,
// so at GOMAXPROCS=1 a dispatch loop would leave the background GC mark
// worker to run only when sysmon preempts the loop: the heap overshoots
// its goal and the tasks pay for the mark in allocation assists. One
// Gosched per 64 dispatches (~10 µs of dispatching) keeps the collector
// on pace even for tasks that allocate megabytes per slice, and at
// GOMAXPROCS=1 is too rare to measure. With an idle P each one wakes
// that P (≈ 4.5 µs); docs/PERFORMANCE.md "Dispatch path" has both
// measurements.
const goschedEvery = 64

// New returns an empty scheduler with the clock at zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.clock }

// ShardID returns the scheduler's index within its ShardedScheduler, or
// 0 for a standalone scheduler.
func (s *Scheduler) ShardID() int { return s.shard }

// Crashes returns the crashes observed so far, in order.
func (s *Scheduler) Crashes() []CrashInfo { return s.crashes }

// Dispatches returns the number of context switches performed so far: each
// time the scheduler hands the CPU to a task counts as one. Tasks that
// block, sleep, or yield and later resume are dispatched again, so the
// count measures scheduling churn, not task count. It never advances the
// virtual clock and is safe to read at any point.
func (s *Scheduler) Dispatches() int64 { return s.dispatches }

// Settled returns how many of those dispatches found a BlockWhile waiter
// whose predicate still held and parked it again without resuming it.
func (s *Scheduler) Settled() int64 { return s.settled }

// Go creates and starts a new task running fn. The task is appended to the
// run queue; it first executes when the scheduler reaches it. Go may be
// called before Run, or from inside a running task.
func (s *Scheduler) Go(name string, fn func(*Task)) *Task {
	s.nextID++
	t := &Task{
		id:    s.nextID,
		name:  name,
		s:     s,
		state: StateNew,
		slot:  len(s.tasks),
	}
	s.tasks = append(s.tasks, t)
	t.start(fn)
	s.enqueue(t)
	return t
}

func (s *Scheduler) enqueue(t *Task) {
	t.state = StateRunnable
	s.runq.push(t)
}

// forget drops a finished task from the registry, moving the last
// entry into its slot.
func (s *Scheduler) forget(t *Task) {
	last := len(s.tasks) - 1
	moved := s.tasks[last]
	s.tasks[t.slot] = moved
	moved.slot = t.slot
	s.tasks[last] = nil
	s.tasks = s.tasks[:last]
}

// Run executes tasks until none remain, returning nil, or until no task can
// make progress, returning a *DeadlockError.
func (s *Scheduler) Run() error { return s.run(math.MaxInt64) }

// RunFor executes tasks until the virtual clock passes deadline or no tasks
// remain. Tasks still live at the deadline stay parked; Run or RunFor can be
// called again to continue. It returns a *DeadlockError on deadlock.
func (s *Scheduler) RunFor(d time.Duration) error {
	deadline := s.clock + d
	if err := s.run(deadline); err != nil {
		return err
	}
	// The window ends at deadline even when its work ran out sooner.
	s.clock = max(s.clock, deadline)
	return nil
}

// run dispatches tasks until none remain, the clock reaches deadline or
// the next timer lies beyond it.
func (s *Scheduler) run(deadline time.Duration) error {
	for len(s.tasks) > 0 && s.clock < deadline {
		if s.runq.len() == 0 {
			if len(s.timers) == 0 {
				return &DeadlockError{Blocked: s.blockedNames()}
			}
			if s.timers[0].when > deadline {
				return nil
			}
			s.advanceTo(s.timers[0].when)
			continue
		}
		t := s.runq.pop()
		if t.state == StateDone {
			continue
		}
		s.dispatch(t)
	}
	return nil
}

// blockedNames returns the names of the tasks parked on wait queues,
// sorted so the report is deterministic. It runs only when a deadlock
// is being reported — the run queue and the timer heap are both empty,
// so no BlockTimeout is pending and the parked tasks are exactly those
// in StateBlocked — which is why Block and WakeOne keep no set of their
// own to maintain.
func (s *Scheduler) blockedNames() []string {
	var names []string
	for _, t := range s.tasks {
		if t.state == StateBlocked {
			names = append(names, t.name)
		}
	}
	sort.Strings(names)
	return names
}

// hasRunnable reports whether the run queue holds at least one entry.
// Done tasks still queued count (dispatch skips them), so a true result
// means at most that the next run step is cheap, never that it is
// missing — which is what the sharded epoch loop needs.
func (s *Scheduler) hasRunnable() bool { return s.runq.len() > 0 }

// nextTimer returns the earliest pending timer deadline: exactly when
// the next sleeper wakes, since the heap holds one timer per sleeping
// task and nothing else.
func (s *Scheduler) nextTimer() (time.Duration, bool) {
	if len(s.timers) == 0 {
		return 0, false
	}
	return s.timers[0].when, true
}

func (s *Scheduler) dispatch(t *Task) {
	s.dispatches++
	if s.dispatches%goschedEvery == 0 {
		runtime.Gosched()
	}
	s.current = t
	t.state = StateRunning
	sliceStart := s.clock
	if s.profiler != nil {
		s.segStart = sliceStart
	}
	if t.still != nil && !t.killed && t.still.StillWaiting() {
		// What resuming the waiter would do, without the two switches.
		s.settled++
		t.waitOn(t.whileQ)
	} else if _, parked := t.next(); !parked {
		// The task is done. Whoever holds its handle (Go's result) keeps
		// the Task reachable; that must not keep its coroutine and stack.
		t.next, t.yield = nil, nil
	}
	if s.profiler != nil {
		s.flushSegment(t)
	}
	s.current = nil
	if s.OnSlice != nil {
		s.OnSlice(t.name, sliceStart, s.clock)
	}
	if t.state == StateDone && t.crashed {
		info := CrashInfo{Task: t.name, Owner: t.owner, Value: t.crashVal}
		s.crashes = append(s.crashes, info)
		if s.OnCrash != nil {
			s.OnCrash(info)
		} else {
			panic(t.crashVal)
		}
	}
}

// advanceTo moves the clock forward and fires all timers that are due,
// in (when, seq) order, so timers sharing an instant wake in arming order.
func (s *Scheduler) advanceTo(when time.Duration) {
	if when > s.clock {
		s.clock = when
	}
	for len(s.timers) > 0 && s.timers[0].when <= s.clock {
		s.enqueue(s.timers.pop().task)
	}
}

// timer is a sleeping task's wake-up. A task that stops sleeping any
// other way — woken early from BlockTimeout, or killed — takes its
// timer out of the heap (Task.disarm), so every timer is live.
type timer struct {
	when time.Duration
	seq  int64
	task *Task
}

// timerHeap is a binary min-heap of timers by (when, seq), held by
// value: arming a timer writes a slot of the backing array and boxes
// nothing. seq is unique, so the order is total and any correct heap
// pops the same sequence. Each timer's task records the timer's slot
// plus one in timerIdx, which every move keeps current, so a timer is
// removed from the middle in O(log n).
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

// swap exchanges two slots and tells both tasks where their timers went.
func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].task.timerIdx = i + 1
	h[j].task.timerIdx = j + 1
}

// up sifts slot i toward the root.
func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (h timerHeap) down(i int) bool {
	start, n := i, len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			return i > start
		}
		h.swap(i, least)
		i = least
	}
}

// push adds tm and sifts it up to its place.
func (h *timerHeap) push(tm timer) {
	*h = append(*h, tm)
	tm.task.timerIdx = len(*h)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest timer; the heap must not be
// empty.
func (h *timerHeap) pop() timer { return h.remove(0) }

// remove takes the timer in slot i out of the heap and returns it, its
// task's timerIdx cleared.
func (h *timerHeap) remove(i int) timer {
	a := *h
	n := len(a) - 1
	if i != n {
		a.swap(i, n)
	}
	tm := a[n]
	a[n] = timer{} // do not keep the task reachable from the spare slot
	a = a[:n]
	*h = a
	if i < n && !a.down(i) {
		a.up(i)
	}
	tm.task.timerIdx = 0
	return tm
}
