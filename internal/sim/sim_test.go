package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSingleTaskRuns(t *testing.T) {
	s := New()
	ran := false
	s.Go("a", func(tk *Task) { ran = true })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("task did not run")
	}
}

func TestRoundRobinOrder(t *testing.T) {
	s := New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Go(name, func(tk *Task) {
			for i := 0; i < 2; i++ {
				order = append(order, name)
				tk.Yield()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now = %v, want 0", s.Now())
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	s := New()
	s.Go("a", func(tk *Task) {
		tk.Advance(5 * time.Millisecond)
		if tk.Now() != 5*time.Millisecond {
			t.Errorf("Now = %v, want 5ms", tk.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("final Now = %v", s.Now())
	}
}

func TestSleepWakesAtDeadline(t *testing.T) {
	s := New()
	var woke time.Duration
	s.Go("sleeper", func(tk *Task) {
		tk.Sleep(10 * time.Millisecond)
		woke = tk.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 10*time.Millisecond {
		t.Fatalf("woke at %v, want 10ms", woke)
	}
}

func TestSleepersWakeInDeadlineOrder(t *testing.T) {
	s := New()
	var order []string
	s.Go("late", func(tk *Task) {
		tk.Sleep(20 * time.Millisecond)
		order = append(order, "late")
	})
	s.Go("early", func(tk *Task) {
		tk.Sleep(5 * time.Millisecond)
		order = append(order, "early")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("order = %v", order)
	}
}

func TestAdvanceFiresDueTimers(t *testing.T) {
	s := New()
	fired := false
	s.Go("sleeper", func(tk *Task) {
		tk.Sleep(3 * time.Millisecond)
		fired = true
	})
	s.Go("worker", func(tk *Task) {
		tk.Yield() // let sleeper park first
		tk.Advance(10 * time.Millisecond)
		tk.Yield() // sleeper should now run
		if !fired {
			t.Error("sleeper did not fire during Advance window")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBlockAndWake(t *testing.T) {
	s := New()
	var q WaitQueue
	got := 0
	s.Go("waiter", func(tk *Task) {
		tk.Block(&q)
		got = 42
	})
	s.Go("waker", func(tk *Task) {
		tk.Yield() // ensure waiter is parked
		q.WakeOne(s)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Fatal("waiter never woke")
	}
}

func TestWakeAllWakesEveryone(t *testing.T) {
	s := New()
	var q WaitQueue
	woken := 0
	for i := 0; i < 5; i++ {
		s.Go("w", func(tk *Task) {
			tk.Block(&q)
			woken++
		})
	}
	s.Go("waker", func(tk *Task) {
		tk.Yield()
		if n := q.WakeAll(s); n != 5 {
			t.Errorf("WakeAll woke %d, want 5", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	var q WaitQueue
	s.Go("stuck", func(tk *Task) { tk.Block(&q) })
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Fatalf("Blocked = %v", dl.Blocked)
	}
}

func TestKillBlockedTask(t *testing.T) {
	s := New()
	var q WaitQueue
	cleaned := false
	victim := s.Go("victim", func(tk *Task) {
		defer func() { cleaned = true }()
		tk.Block(&q)
		t.Error("victim survived kill")
	})
	s.Go("killer", func(tk *Task) {
		tk.Yield()
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !cleaned {
		t.Fatal("victim's deferred cleanup did not run")
	}
	if !victim.Done() {
		t.Fatal("victim not done")
	}
	if victim.crashed {
		t.Fatal("kill should not count as a crash")
	}
}

func TestKillSleepingTask(t *testing.T) {
	s := New()
	victim := s.Go("victim", func(tk *Task) {
		tk.Sleep(time.Hour)
		t.Error("victim survived kill")
	})
	s.Go("killer", func(tk *Task) {
		tk.Yield()
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() >= time.Hour {
		t.Fatalf("clock ran to the sleep deadline: %v", s.Now())
	}
}

func TestCrashIsCaptured(t *testing.T) {
	s := New()
	var crash CrashInfo
	s.OnCrash = func(c CrashInfo) { crash = c }
	s.Go("bad", func(tk *Task) { panic("boom") })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if crash.Task != "bad" || crash.Value != "boom" {
		t.Fatalf("crash = %+v", crash)
	}
	if len(s.Crashes()) != 1 {
		t.Fatalf("Crashes = %v", s.Crashes())
	}
}

func TestCrashWithoutHandlerPanics(t *testing.T) {
	s := New()
	s.Go("bad", func(tk *Task) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	_ = s.Run()
}

func TestJoinWaitsForExit(t *testing.T) {
	s := New()
	var order []string
	worker := s.Go("worker", func(tk *Task) {
		tk.Sleep(5 * time.Millisecond)
		order = append(order, "worker")
	})
	s.Go("joiner", func(tk *Task) {
		tk.Join(worker)
		order = append(order, "joiner")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "worker" || order[1] != "joiner" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunForStopsAtDeadline(t *testing.T) {
	s := New()
	ticks := 0
	s.Go("ticker", func(tk *Task) {
		for {
			tk.Sleep(10 * time.Millisecond)
			ticks++
		}
	})
	if err := s.RunFor(35 * time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	// Continue for another window.
	if err := s.RunFor(30 * time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if ticks != 6 {
		t.Fatalf("ticks = %d, want 6", ticks)
	}
}

func TestBlockTimeoutTimesOut(t *testing.T) {
	s := New()
	var q WaitQueue
	var woken bool
	s.Go("waiter", func(tk *Task) {
		woken = tk.BlockTimeout(&q, 5*time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woken {
		t.Fatal("expected timeout, got wake")
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestBlockTimeoutWoken(t *testing.T) {
	s := New()
	var q WaitQueue
	var woken bool
	s.Go("waiter", func(tk *Task) {
		woken = tk.BlockTimeout(&q, time.Hour)
	})
	s.Go("waker", func(tk *Task) {
		tk.Yield()
		q.WakeOne(s)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !woken {
		t.Fatal("expected wake, got timeout")
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %v, want 0", s.Now())
	}
}

// checkTimerHeap checks the heap's invariant: exactly one timer per
// sleeping task, each task's timerIdx pointing at its own timer, and no
// timerIdx on a task that is not asleep.
func checkTimerHeap(s *Scheduler) error {
	sleeping := 0
	for _, tk := range s.tasks {
		i := tk.timerIdx - 1
		switch {
		case tk.state != StateSleeping:
			if tk.timerIdx != 0 {
				return fmt.Errorf("%s is %v with timerIdx %d", tk.name, tk.state, tk.timerIdx)
			}
			continue
		case i < 0 || i >= len(s.timers) || s.timers[i].task != tk:
			return fmt.Errorf("sleeping %s has timerIdx %d, not its own timer", tk.name, tk.timerIdx)
		}
		sleeping++
	}
	if len(s.timers) != sleeping {
		return fmt.Errorf("heap holds %d timers for %d sleeping tasks", len(s.timers), sleeping)
	}
	return nil
}

// TestEarlyWakeLeavesNoTimer: 1 000 BlockTimeout waiters woken by
// WakeAll and a killed sleeper take their timers out of the heap, which
// is left holding the one task still asleep.
func TestEarlyWakeLeavesNoTimer(t *testing.T) {
	s := New()
	var q WaitQueue
	const waiters = 1000
	for i := 0; i < waiters; i++ {
		s.Go("waiter", func(tk *Task) {
			if !tk.BlockTimeout(&q, time.Second) {
				t.Error("a waiter timed out")
			}
		})
	}
	victim := s.Go("victim", func(tk *Task) { tk.Sleep(time.Hour) })
	s.Go("sleeper", func(tk *Task) { tk.Sleep(time.Hour) })
	s.Go("waker", func(tk *Task) {
		if n := q.WakeAll(s); n != waiters {
			t.Errorf("WakeAll woke %d, want %d", n, waiters)
		}
		victim.Kill()
		if err := checkTimerHeap(s); err != nil {
			t.Error(err)
		}
		if len(s.timers) != 1 {
			t.Errorf("heap holds %d timers after the wakes, want 1", len(s.timers))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != time.Hour {
		t.Fatalf("clock %v, want the sleeper's hour", s.Now())
	}
}

// TestStaleTimerDoesNotEndALaterSleep: a BlockTimeout woken early has its
// timer removed with the wake. That deadline belongs to a wait that is
// over; it must not end whatever the task sleeps on next.
func TestStaleTimerDoesNotEndALaterSleep(t *testing.T) {
	s := New()
	var q WaitQueue
	var woke time.Duration
	s.Go("a", func(tk *Task) {
		if !tk.BlockTimeout(&q, 10*time.Millisecond) {
			t.Error("first wait timed out, want woken at 1ms")
		}
		tk.Sleep(100 * time.Millisecond)
		woke = tk.Now()
	})
	s.Go("b", func(tk *Task) {
		tk.Sleep(time.Millisecond)
		q.WakeOne(s)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := 101 * time.Millisecond; woke != want {
		t.Fatalf("Sleep(100ms) begun at 1ms ended at %v, want %v", woke, want)
	}
}

// TestStaleTimerDoesNotEndALaterBlockTimeout: the same stale deadline
// must not time a later BlockTimeout out early either — that wait reports
// woken or timed out for its own deadline.
func TestStaleTimerDoesNotEndALaterBlockTimeout(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wakeAt time.Duration // second wake; 0 for none
		woken  bool
		end    time.Duration
	}{
		{"times-out-at-its-own-deadline", 0, false, 101 * time.Millisecond},
		{"woken-after-the-stale-deadline", 50 * time.Millisecond, true, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			var q WaitQueue
			var woken bool
			var end time.Duration
			s.Go("a", func(tk *Task) {
				tk.BlockTimeout(&q, 10*time.Millisecond)
				woken = tk.BlockTimeout(&q, 100*time.Millisecond)
				end = tk.Now()
			})
			s.Go("b", func(tk *Task) {
				tk.Sleep(time.Millisecond)
				q.WakeOne(s)
				if tc.wakeAt > 0 {
					tk.Sleep(tc.wakeAt - tk.Now())
					q.WakeOne(s)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if woken != tc.woken || end != tc.end {
				t.Fatalf("second wait: woken=%v at %v, want woken=%v at %v", woken, end, tc.woken, tc.end)
			}
		})
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() schedule {
		s := New()
		sched := recordSchedule(s)
		var q WaitQueue
		s.Go("a", func(tk *Task) {
			tk.Advance(time.Millisecond)
			tk.Block(&q)
			tk.Advance(time.Millisecond)
		})
		s.Go("b", func(tk *Task) {
			tk.Sleep(2 * time.Millisecond)
			q.WakeOne(s)
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return *sched
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestGoFromInsideTask(t *testing.T) {
	s := New()
	ran := false
	s.Go("parent", func(tk *Task) {
		s.Go("child", func(tk2 *Task) { ran = true })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("child never ran")
	}
}

func TestKillIsIdempotent(t *testing.T) {
	s := New()
	victim := s.Go("victim", func(tk *Task) {
		var q WaitQueue
		tk.Block(&q)
	})
	s.Go("killer", func(tk *Task) {
		tk.Yield()
		victim.Kill()
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !victim.Done() {
		t.Fatal("victim not done")
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateNew: "new", StateRunnable: "runnable", StateRunning: "running",
		StateBlocked: "blocked", StateSleeping: "sleeping", StateDone: "done",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
	if State(99).String() != "state(99)" {
		t.Errorf("unknown state: %q", State(99).String())
	}
}

func TestAdvanceNegativeIsNoop(t *testing.T) {
	s := New()
	s.Go("a", func(tk *Task) {
		tk.Advance(-5 * time.Millisecond)
		if tk.Now() != 0 {
			t.Errorf("Now = %v after negative Advance", tk.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSleepZeroYields(t *testing.T) {
	s := New()
	var order []string
	s.Go("a", func(tk *Task) {
		order = append(order, "a1")
		tk.Sleep(0)
		order = append(order, "a2")
	})
	s.Go("b", func(tk *Task) {
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "a1,b,a2"
	got := strings.Join(order, ",")
	if got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestRunForDeadlockReported(t *testing.T) {
	s := New()
	var q WaitQueue
	s.Go("stuck", func(tk *Task) { tk.Block(&q) })
	err := s.RunFor(time.Second)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunFor = %v, want deadlock", err)
	}
}

func TestKillBeforeFirstRun(t *testing.T) {
	s := New()
	ran := false
	victim := s.Go("victim", func(tk *Task) { ran = true })
	// Kill while still in StateRunnable (never dispatched): the task
	// unwinds at its first scheduling point check... since it has not
	// started, its body runs until the first blocking call; a body with
	// no blocking calls completes. Document that semantics.
	victim.Kill()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_ = ran // either outcome is consistent; the run must terminate.
	if !victim.Done() {
		t.Fatal("victim not done")
	}
}

func TestWaitQueueWakeOneOrder(t *testing.T) {
	s := New()
	var q WaitQueue
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		s.Go(name, func(tk *Task) {
			tk.Block(&q)
			order = append(order, name)
		})
	}
	s.Go("waker", func(tk *Task) {
		tk.Yield()
		for i := 0; i < 3; i++ {
			q.WakeOne(s)
			tk.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if strings.Join(order, ",") != "first,second,third" {
		t.Fatalf("FIFO broken: %v", order)
	}
}
