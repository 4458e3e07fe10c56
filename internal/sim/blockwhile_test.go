package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The loop is the oracle. BlockWhile promises the schedule of
//
//	for { t.Block(q); if !w.StillWaiting() { break } }
//
// dispatch for dispatch, so the tests here run one program twice — once
// with BlockWhile, once with that literal loop — and demand that
// everything an observer of the scheduler can see is equal.

// oddWaiter is the programs' predicate: wait while the counter is odd.
type oddWaiter struct{ n *int }

func (w oddWaiter) StillWaiting() bool { return *w.n%2 == 1 }

// blockLoop is the reference BlockWhile is equivalent to.
func blockLoop(t *Task, q *WaitQueue, w Waiter) {
	for {
		t.Block(q)
		if !w.StillWaiting() {
			break
		}
	}
}

// segmentLog is a recording SliceProfiler.
type segmentLog struct{ segs []string }

func (l *segmentLog) ProfileSlice(task string, labels []string, start, end time.Duration) {
	l.segs = append(l.segs, fmt.Sprintf("cpu %s %v [%d,%d)", task, labels, start, end))
}

func (l *segmentLog) ProfileWait(task string, labels []string, wait string, start, end time.Duration) {
	l.segs = append(l.segs, fmt.Sprintf("wait %s %v %s [%d,%d)", task, labels, wait, start, end))
}

// programRun is everything observable about one run of a program.
type programRun struct {
	Slices     []string // the OnSlice sequence: every dispatch, task and interval
	Segments   []string // the profiler's segments
	Steps      []string // what each task saw after each of its steps
	Dispatches int64
	Clock      time.Duration
	Deadlock   []string // DeadlockError.Blocked of the first Run, if it deadlocked
	settled    int64    // not compared: the loop never settles
	heapErr    error    // first breach of checkTimerHeap after a step, if any
}

const (
	programMaxLen = 256 // script bytes that are executed
	tickerTicks   = 32  // the ticker's wake-everyone rounds
	tickerPeriod  = 7 * time.Microsecond
)

// runProgram executes script: byte 0 picks 2–5 tasks, and the rest is
// dealt round-robin to them, one step a byte (kind = b%10, arg = b/10)
// over two wait queues and three counters. A ticker task wakes both
// queues every tickerPeriod and bumps a counter every fourth time, so
// waiters are woken out of turn again and again; whoever is
// still parked when the ticker stops is reported as deadlocked, then
// killed, and must unwind.
func runProgram(script []byte, wait func(*Task, *WaitQueue, Waiter)) programRun {
	if len(script) == 0 {
		script = []byte{0}
	}
	if len(script) > programMaxLen {
		script = script[:programMaxLen]
	}
	n := 2 + int(script[0])%4
	steps := make([][]byte, n)
	for i, b := range script[1:] {
		steps[i%n] = append(steps[i%n], b)
	}

	s := New()
	var res programRun
	s.OnSlice = func(task string, start, end time.Duration) {
		res.Slices = append(res.Slices, fmt.Sprintf("%s [%d,%d)", task, start, end))
	}
	prof := &segmentLog{}
	s.SetProfiler(prof)

	var queues [2]WaitQueue
	var counters [3]int
	tasks := make([]*Task, n)
	for i := range tasks {
		i := i
		name := fmt.Sprintf("t%d", i)
		tasks[i] = s.Go(name, func(t *Task) {
			defer func() { res.Steps = append(res.Steps, fmt.Sprintf("%s unwound @%d", name, s.Now())) }()
			t.PushLabel(name)
			defer t.PopLabel()
			for pc, b := range steps[i] {
				kind, arg := int(b)%10, int(b)/10
				q := &queues[arg%2]
				d := time.Duration(arg) * time.Microsecond
				saw := ""
				switch kind {
				case 0:
					before := t.Now()
					wait(t, q, oddWaiter{&counters[arg%3]})
					t.ChargeWait("turn", before)
				case 1:
					t.Block(q)
				case 2:
					t.Yield()
				case 3:
					t.Sleep(d)
				case 4:
					saw = fmt.Sprint(t.BlockTimeout(q, d))
				case 5:
					saw = fmt.Sprint(q.WakeOne(s))
				case 6:
					saw = fmt.Sprint(q.WakeAll(s))
				case 7:
					t.PushLabel("work")
					t.Advance(d)
					t.PopLabel()
				case 8:
					tasks[arg%n].Kill()
				case 9:
					counters[arg%3]++
				}
				res.Steps = append(res.Steps, fmt.Sprintf("%s#%d k%d %s @%d", name, pc, kind, saw, s.Now()))
				if err := checkTimerHeap(s); err != nil && res.heapErr == nil {
					res.heapErr = fmt.Errorf("after %s#%d: %w", name, pc, err)
				}
			}
		})
	}
	s.Go("ticker", func(t *Task) {
		for i := 0; i < tickerTicks; i++ {
			t.Sleep(tickerPeriod)
			if i%4 == 3 {
				counters[i/4%3]++
			}
			queues[0].WakeAll(s)
			queues[1].WakeAll(s)
		}
	})

	err := s.Run()
	var dl *DeadlockError
	if errors.As(err, &dl) {
		res.Deadlock = dl.Blocked
		for _, t := range tasks {
			t.Kill()
		}
		err = s.Run()
	}
	if err != nil {
		panic(fmt.Sprintf("program did not drain: %v", err))
	}
	if err := checkTimerHeap(s); err != nil && res.heapErr == nil {
		res.heapErr = fmt.Errorf("after the run: %w", err)
	}
	res.Segments = prof.segs
	res.Dispatches = s.Dispatches()
	res.Clock = s.Now()
	res.settled = s.Settled()
	return res
}

// checkBlockWhileMatchesLoop runs script both ways and compares. It
// returns the BlockWhile run.
func checkBlockWhileMatchesLoop(t *testing.T, script []byte) programRun {
	t.Helper()
	got := runProgram(script, (*Task).BlockWhile)
	want := runProgram(script, blockLoop)
	if want.settled != 0 {
		t.Fatalf("the reference loop settled %d dispatches", want.settled)
	}
	for _, r := range []programRun{got, want} {
		if r.heapErr != nil {
			t.Fatalf("timer heap (script %q): %v", script, r.heapErr)
		}
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s differs (script %q):\nBlockWhile: %v\nloop:       %v", f.Name, script, g, w)
		}
	}
	if int64(len(got.Slices)) != got.Dispatches {
		t.Fatalf("OnSlice saw %d slices of %d dispatches", len(got.Slices), got.Dispatches)
	}
	return got
}

// FuzzBlockWhileMatchesLoop: program script -> BlockWhile run vs loop
// run. The seed corpus is testdata/fuzz/FuzzBlockWhileMatchesLoop,
// replayed by plain `go test`.
func FuzzBlockWhileMatchesLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		checkBlockWhileMatchesLoop(t, script)
	})
}

// TestBlockWhileMatchesLoop is the fixed-seed slice of the fuzz target:
// 300 generated programs, which between them must actually settle
// dispatches, time out, deadlock and kill.
func TestBlockWhileMatchesLoop(t *testing.T) {
	var settled, dispatches int64
	deadlocks := 0
	x := uint32(2463534242) // xorshift32: the programs must not depend on math/rand's stream
	for i := 0; i < 300; i++ {
		script := make([]byte, 8+i%120)
		for j := range script {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			script[j] = byte(x >> 11)
		}
		run := checkBlockWhileMatchesLoop(t, script)
		settled += run.settled
		dispatches += run.Dispatches
		if run.Deadlock != nil {
			deadlocks++
		}
	}
	if settled == 0 || deadlocks == 0 {
		t.Fatalf("programs too tame: %d of %d dispatches settled, %d deadlocks", settled, dispatches, deadlocks)
	}
	t.Logf("%d of %d dispatches settled; %d programs deadlocked", settled, dispatches, deadlocks)
}

// TestBlockWhileSettlesInDispatch: a waiter woken with its predicate
// still true is parked again by the scheduler, never resumed — and the
// dispatch is still counted and reported as an empty slice.
func TestBlockWhileSettlesInDispatch(t *testing.T) {
	s := New()
	var q WaitQueue
	turn := 1
	resumed := 0
	var slices []string
	s.OnSlice = func(task string, start, end time.Duration) {
		slices = append(slices, fmt.Sprintf("%s [%d,%d)", task, start/time.Microsecond, end/time.Microsecond))
	}
	s.Go("waiter", func(tk *Task) {
		tk.BlockWhile(&q, oddWaiter{&turn})
		resumed++
	})
	s.Go("waker", func(tk *Task) {
		for i := 0; i < 3; i++ {
			tk.Advance(time.Microsecond)
			q.WakeAll(s)
			tk.Yield()
		}
		turn = 2
		q.WakeAll(s)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("waiter resumed %d times, want 1", resumed)
	}
	// waiter: first run, 3 settled wakes, the real one; waker: first run
	// and 3 yields.
	if got, want := s.Dispatches(), int64(9); got != want {
		t.Errorf("Dispatches = %d, want %d", got, want)
	}
	if got, want := s.Settled(), int64(3); got != want {
		t.Errorf("Settled = %d, want %d", got, want)
	}
	// Each settled wake is an empty waiter slice between two of the
	// waker's.
	wantSlices := []string{"waiter [0,0)", "waker [0,1)", "waiter [1,1)", "waker [1,2)",
		"waiter [2,2)", "waker [2,3)", "waiter [3,3)", "waker [3,3)", "waiter [3,3)"}
	if !reflect.DeepEqual(slices, wantSlices) {
		t.Errorf("slices = %v, want %v", slices, wantSlices)
	}
}

// TestKilledBlockWhileWaiterUnwinds: a kill always resumes the waiter,
// settled or not, predicate true or not, and its defers run.
func TestKilledBlockWhileWaiterUnwinds(t *testing.T) {
	s := New()
	var q WaitQueue
	turn := 1
	unwound, returned := false, false
	waiter := s.Go("waiter", func(tk *Task) {
		defer func() { unwound = true }()
		tk.BlockWhile(&q, oddWaiter{&turn})
		returned = true
	})
	s.Go("killer", func(tk *Task) {
		q.WakeAll(s)
		tk.Yield() // the waiter is settled back onto q here
		if waiter.State() != StateBlocked || q.tasks.len() != 1 {
			t.Errorf("after an out-of-turn wake: state %v, %d on the queue", waiter.State(), q.tasks.len())
		}
		waiter.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !unwound || returned || !waiter.Done() || waiter.crashed {
		t.Fatalf("unwound=%v returned=%v done=%v crashed=%v", unwound, returned, waiter.Done(), waiter.crashed)
	}
	if s.Settled() != 1 || q.tasks.len() != 0 {
		t.Fatalf("Settled = %d, queue holds %d", s.Settled(), q.tasks.len())
	}
}

// TestDeadlockNamesSettledWaiter: a task whose last park was the
// scheduler's is blocked like any other when nothing can wake it.
func TestDeadlockNamesSettledWaiter(t *testing.T) {
	s := New()
	var q WaitQueue
	turn := 1
	s.Go("waiter", func(tk *Task) { tk.BlockWhile(&q, oddWaiter{&turn}) })
	s.Go("waker", func(tk *Task) { q.WakeAll(s) })
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) || !reflect.DeepEqual(dl.Blocked, []string{"waiter"}) {
		t.Fatalf("Run = %v, want a deadlock naming the waiter", err)
	}
	if s.Settled() != 1 {
		t.Fatalf("Settled = %d, want 1", s.Settled())
	}
}

// TestShardedBlockWhileRunTwice: BlockWhile waiters on both shards of a
// parallel run, woken out of turn by a local ticker and released by a
// cross-shard message, serialise identically twice.
func TestShardedBlockWhileRunTwice(t *testing.T) {
	type result struct {
		schedules  []*schedule
		dispatches int64
		settled    int64
		clocks     []time.Duration
	}
	run := func() result {
		ss := NewSharded(2, 100*time.Microsecond)
		schedules := recordShards(ss)
		for sh := 0; sh < 2; sh++ {
			sh := sh
			// Everything below is touched only by tasks of shard sh.
			q := new(WaitQueue)
			turn := new(int)
			*turn = 1
			for w := 0; w < 3; w++ {
				ss.Go(sh, fmt.Sprintf("s%dwaiter%d", sh, w), func(tk *Task) {
					tk.BlockWhile(q, oddWaiter{turn})
				})
			}
			ss.Go(sh, fmt.Sprintf("s%dticker", sh), func(tk *Task) {
				for i := 0; i < 20; i++ {
					tk.Sleep(time.Duration(30+10*sh) * time.Microsecond)
					q.WakeAll(tk.Scheduler())
				}
			})
			ss.Go(1-sh, fmt.Sprintf("s%dreleaser", sh), func(tk *Task) {
				tk.Sleep(250 * time.Microsecond)
				ss.Send(tk, sh, "release", func(rk *Task) {
					*turn = 2
					q.WakeAll(rk.Scheduler())
				})
			})
		}
		if err := ss.Run(); err != nil {
			t.Fatal(err)
		}
		res := result{schedules: schedules, dispatches: ss.Dispatches()}
		for i := 0; i < 2; i++ {
			res.settled += ss.Shard(i).Settled()
			res.clocks = append(res.clocks, ss.Shard(i).Now())
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%+v\nvs\n%+v", a, b)
	}
	if a.settled == 0 {
		t.Fatal("no dispatch settled: the waiters were never woken out of turn")
	}
}
