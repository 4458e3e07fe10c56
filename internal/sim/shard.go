package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file implements the sharded parallel runtime: N independent
// Schedulers ("shards"), each with its own virtual clock and task set,
// executing on real OS threads in deterministic lockstep epochs.
//
// The model follows the deterministic-lockstep discipline of the
// multi-variant-execution literature (Volckaert et al., dMVX): work
// that never crosses a shard boundary runs in parallel with no
// synchronization at all, while every cross-shard interaction is forced
// through a single chokepoint — the epoch barrier — where pending
// messages from all shards are sequenced by a (virtual-time, shard-id,
// sequence) total order before delivery. Because that order depends
// only on virtual time and per-shard deterministic state, never on OS
// thread interleaving, a sharded run is bit-for-bit reproducible: the
// run-twice property tests diff every shard's dispatch sequence and
// metrics across runs (including under the race detector) to pin this
// down.
//
// Epoch mechanics: all shards run concurrently for one quantum of
// virtual time (RunFor to a shared boundary), then rendezvous. At the
// barrier the coordinator — the goroutine that called Run, which also
// runs shard 0; shard i > 0 runs on a worker goroutine that
// lives for that call and parks between epochs — collects each shard's
// outbox, merges the messages into the total order, and
// delivers each as a fresh task on its target shard. A message sent in
// epoch E is therefore visible on the target no earlier than the E/E+1
// boundary: cross-shard latency is bounded by one quantum, which is the
// price of running the shards without locks in between. Pick the
// quantum accordingly — it is the cross-shard synchronization grain,
// not a performance tunable for shard-local work.
//
// Virtual clocks stay aligned at barriers: every shard's clock is
// advanced to the epoch boundary before the next epoch starts, so
// timestamps from different shards are comparable: the shards' OnSlice
// observations merge into one globally ordered timeline.

// DefaultQuantum is the epoch length used when NewSharded is given a
// non-positive quantum.
const DefaultQuantum = time.Millisecond

// ShardedScheduler coordinates N per-shard Schedulers running in
// deterministic lockstep epochs on parallel OS threads.
type ShardedScheduler struct {
	quantum  time.Duration
	shards   []*shardState
	boundary time.Duration // virtual time all shards have reached
	inflight []crossMsg    // merged messages awaiting delivery

	// Epoch barrier, live only inside a Run call (startWorkers):
	// epochStart[i-1] hands shard i's worker the next boundary, epochDone
	// counts the workers still running the current epoch.
	epochStart []chan time.Duration
	epochDone  sync.WaitGroup
}

// shardState is the coordinator's bookkeeping for one shard.
type shardState struct {
	id       int
	sched    *Scheduler
	outbox   []crossMsg // appended by tasks during an epoch, drained at the barrier
	sendSeq  int64
	runErr   error
	runPanic interface{}
}

// crossMsg is one cross-shard interaction: a closure to run as a fresh
// task on the target shard, stamped with its deterministic position in
// the global order.
type crossMsg struct {
	when time.Duration // virtual send time on the source shard
	from int           // source shard id
	seq  int64         // per-source sequence number
	to   int
	name string
	fn   func(*Task)
}

// NewSharded returns a ShardedScheduler with n shards (n < 1 is treated
// as 1) and the given epoch quantum (<= 0 selects DefaultQuantum).
// Shard 0 of a 1-shard runtime behaves exactly like a standalone
// Scheduler driven through RunFor — the single-shard path is the N=1
// special case, not a separate code path.
func NewSharded(n int, quantum time.Duration) *ShardedScheduler {
	if n < 1 {
		n = 1
	}
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	ss := &ShardedScheduler{quantum: quantum}
	for i := 0; i < n; i++ {
		sched := New()
		sched.shard = i
		ss.shards = append(ss.shards, &shardState{id: i, sched: sched})
	}
	return ss
}

// Shards returns the number of shards.
func (ss *ShardedScheduler) Shards() int { return len(ss.shards) }

// Quantum returns the epoch length.
func (ss *ShardedScheduler) Quantum() time.Duration { return ss.quantum }

// Shard returns shard i's Scheduler. Building a workload on a shard is
// exactly building it on a Scheduler; tasks never observe the sharding
// unless they use Send.
func (ss *ShardedScheduler) Shard(i int) *Scheduler { return ss.shards[i].sched }

// Go starts fn as a task on shard i.
func (ss *ShardedScheduler) Go(i int, name string, fn func(*Task)) *Task {
	return ss.shards[i].sched.Go(name, fn)
}

// Now returns the virtual time every shard is guaranteed to have
// reached: the last epoch boundary. Individual shard clocks may be
// ahead (a task can Advance past the boundary) but never behind.
func (ss *ShardedScheduler) Now() time.Duration { return ss.boundary }

// Dispatches returns the total context switches across all shards.
func (ss *ShardedScheduler) Dispatches() int64 {
	var n int64
	for _, sh := range ss.shards {
		n += sh.sched.Dispatches()
	}
	return n
}

// Send schedules fn to run as a fresh task named name on shard `to`.
// It must be called from a task (tk) running on one of this runtime's
// shards. Delivery is deterministic but not immediate: the message is
// sequenced at the next epoch barrier by (virtual send time, source
// shard, send sequence), so fn starts on the target shard at most one
// quantum of virtual time after the send. This is the only sanctioned
// way for work on one shard to affect another; sharing memory across
// shards would reintroduce the OS-interleaving nondeterminism the
// barrier exists to exclude.
func (ss *ShardedScheduler) Send(tk *Task, to int, name string, fn func(*Task)) {
	if to < 0 || to >= len(ss.shards) {
		panic(fmt.Sprintf("sim: Send to shard %d of %d", to, len(ss.shards)))
	}
	from := tk.s.shard
	sh := ss.shards[from]
	if sh.sched != tk.s {
		panic("sim: Send from a task outside this ShardedScheduler")
	}
	tk.checkCurrent("Send")
	sh.sendSeq++
	sh.outbox = append(sh.outbox, crossMsg{
		when: tk.s.clock, from: from, seq: sh.sendSeq, to: to, name: name, fn: fn,
	})
}

// Run executes epochs until every shard has drained (no live tasks) and
// no cross-shard messages are pending. It returns a *DeadlockError —
// with shard-qualified task names — when live tasks remain but no shard
// can make progress and no message can ever arrive.
func (ss *ShardedScheduler) Run() error {
	defer ss.startWorkers()()
	for {
		done, err := ss.epoch()
		if err != nil || done {
			return err
		}
	}
}

// epoch runs one lockstep step: deliver pending messages, pick the next
// boundary, run all shards to it in parallel, then collect outboxes.
// It reports whether the runtime is fully drained.
func (ss *ShardedScheduler) epoch() (done bool, err error) {
	ss.deliver()

	anyLive, anyRunnable := false, false
	var earliest time.Duration // next timer or held-back message anywhere
	haveEvent := false
	note := func(when time.Duration) {
		if !haveEvent || when < earliest {
			earliest = when
		}
		haveEvent = true
	}
	for _, sh := range ss.shards {
		if sh.sched.liveTasks() > 0 {
			anyLive = true
		}
		if sh.sched.hasRunnable() {
			anyRunnable = true
		}
		if when, ok := sh.sched.nextTimer(); ok {
			note(when)
		}
	}
	for _, m := range ss.inflight {
		// deliver() released everything due, so these are all future.
		note(m.when)
	}
	if !anyLive && len(ss.inflight) == 0 {
		return true, nil
	}
	if !anyRunnable && !haveEvent {
		// Every live task is parked on a wait queue, no timer can fire,
		// and nothing is in flight: no shard can ever make progress.
		return false, ss.mergedDeadlock()
	}

	next := ss.boundary + ss.quantum
	if !anyRunnable && haveEvent && earliest > next {
		// Nothing can run before the earliest timer or held-back message
		// anywhere; jump the whole fleet straight to it instead of
		// stepping empty epochs.
		next = earliest
	}

	ss.runEpoch(next)

	for _, sh := range ss.shards {
		if sh.runPanic != nil {
			p := sh.runPanic
			sh.runPanic = nil
			panic(p)
		}
		if sh.runErr != nil {
			if _, ok := sh.runErr.(*DeadlockError); ok {
				// The shard is blocked with no timers — possibly waiting
				// on a cross-shard message. Global deadlock is decided
				// above, once no shard can move and nothing is in flight.
				sh.runErr = nil
			} else {
				err := sh.runErr
				sh.runErr = nil
				return false, err
			}
		}
		ss.inflight = append(ss.inflight, sh.outbox...)
		sh.outbox = nil
	}
	ss.alignClocks(next)
	ss.boundary = next
	return false, nil
}

// startWorkers starts one goroutine per shard other than shard 0 for
// the duration of a Run call; each parks on its epochStart
// channel between epochs. The returned stop function ends them and
// returns once they have exited, so a call leaves no goroutine behind
// however it ends (a re-raised shard panic included).
func (ss *ShardedScheduler) startWorkers() (stop func()) {
	workers := ss.shards[1:]
	ss.epochStart = make([]chan time.Duration, len(workers))
	for i, sh := range workers {
		start := make(chan time.Duration)
		ss.epochStart[i] = start
		go func() {
			stopped := false
			defer func() {
				// runTo recovers panics, so only a runtime.Goexit inside
				// a task (t.Fatal called from a task body) unwinds to
				// here. It has already ended this worker; crash with the
				// reason instead of leaving the coordinator parked on
				// the barrier forever.
				if !stopped {
					panic(fmt.Sprintf("sim: runtime.Goexit in a task on shard %d", sh.id))
				}
			}()
			for next := range start {
				sh.runTo(next)
				ss.epochDone.Done()
			}
			stopped = true
			ss.epochDone.Done()
		}()
	}
	return func() {
		ss.epochDone.Add(len(workers))
		for _, start := range ss.epochStart {
			close(start)
		}
		ss.epochDone.Wait()
		ss.epochStart = nil
	}
}

// runEpoch runs every shard with pending work to the boundary, shard 0
// on the calling goroutine and the others on their workers. Shards
// share no state during the epoch; the only cross-goroutine edges are
// the release and the rendezvous around the barrier, so the epoch body
// is race-free by construction (and the property tests run under -race
// to keep it that way).
func (ss *ShardedScheduler) runEpoch(next time.Duration) {
	ss.epochDone.Add(len(ss.epochStart))
	for _, start := range ss.epochStart {
		start <- next
	}
	ss.shards[0].runTo(next)
	ss.epochDone.Wait()
}

// runTo runs the shard up to the epoch boundary, leaving a deadlock or
// other error in runErr and a panic in runPanic for the coordinator.
func (sh *shardState) runTo(next time.Duration) {
	d := next - sh.sched.Now()
	if d <= 0 {
		return // overshot the boundary in an earlier epoch; let it catch up
	}
	defer func() {
		// A crash with no OnCrash handler panics out of RunFor; capture
		// it so the coordinator can re-raise it on the caller's
		// goroutine like a standalone Scheduler would.
		if r := recover(); r != nil {
			sh.runPanic = r
		}
	}()
	sh.runErr = sh.sched.RunFor(d)
}

// alignClocks advances every lagging shard clock to the boundary so
// cross-shard timestamps stay comparable. Only shards that ended the
// epoch stalled (deadlocked locally) can lag, and those have no timers,
// so this moves clocks without scheduling anything.
func (ss *ShardedScheduler) alignClocks(next time.Duration) {
	for _, sh := range ss.shards {
		if sh.sched.Now() < next {
			sh.sched.advanceTo(next)
		}
	}
}

// deliver hands every pending cross-shard message to its target shard
// in the global (virtual-time, source-shard, sequence) order. Messages
// become fresh tasks appended to the target's run queue, so they run at
// the top of the next epoch in exactly this order.
func (ss *ShardedScheduler) deliver() {
	if len(ss.inflight) == 0 {
		return
	}
	// Hold back messages stamped past the boundary (the sender had
	// advanced its clock beyond it); they deliver once the fleet reaches
	// that time.
	var due, later []crossMsg
	for _, m := range ss.inflight {
		if m.when <= ss.boundary {
			due = append(due, m)
		} else {
			later = append(later, m)
		}
	}
	ss.inflight = later
	sort.SliceStable(due, func(i, j int) bool {
		a, b := due[i], due[j]
		if a.when != b.when {
			return a.when < b.when
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.seq < b.seq
	})
	for _, m := range due {
		ss.shards[m.to].sched.Go(m.name, m.fn)
	}
}

// mergedDeadlock builds a DeadlockError covering every shard, with task
// names qualified as "s<shard>/<task>".
func (ss *ShardedScheduler) mergedDeadlock() error {
	var names []string
	for _, sh := range ss.shards {
		for _, n := range sh.sched.blockedNames() {
			names = append(names, fmt.Sprintf("s%d/%s", sh.id, n))
		}
	}
	return &DeadlockError{Blocked: names}
}
