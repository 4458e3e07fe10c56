package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// The sharded epoch loop leans on RunFor's horizon semantics; these
// tests pin the edges it depends on.

// A timer that fires exactly at the horizon makes its task runnable but
// does not execute it: RunFor stops with the clock at the horizon and
// the task runs first thing on the next Run.
func TestRunForTimerExactlyAtHorizon(t *testing.T) {
	s := New()
	ran := false
	s.Go("sleeper", func(tk *Task) {
		tk.Sleep(10 * time.Millisecond)
		ran = true
	})
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatalf("runfor: %v", err)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock %v, want exactly 10ms", s.Now())
	}
	if ran {
		t.Fatal("task body ran inside RunFor despite the horizon")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !ran {
		t.Fatal("task never resumed after the horizon")
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock %v after resume, want 10ms (no extra time passes)", s.Now())
	}
}

// A timer one tick past the horizon does not fire: the clock still
// lands exactly on the horizon.
func TestRunForTimerJustPastHorizon(t *testing.T) {
	s := New()
	ran := false
	s.Go("sleeper", func(tk *Task) {
		tk.Sleep(10*time.Millisecond + time.Nanosecond)
		ran = true
	})
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatalf("runfor: %v", err)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock %v, want exactly 10ms", s.Now())
	}
	if ran {
		t.Fatal("timer past the horizon fired early")
	}
}

// A wait woken early takes its timer with it, so RunFor's next deadline
// is a real one: a BlockTimeout(1ms) woken at 0 followed by Sleep(10ms)
// leaves RunFor(5ms) at 5 ms with the sleeper still asleep, not at the
// sleep's 10 ms.
func TestRunForStopsAtDeadlineAfterEarlyWake(t *testing.T) {
	s := New()
	var q WaitQueue
	a := s.Go("a", func(tk *Task) {
		if !tk.BlockTimeout(&q, time.Millisecond) {
			t.Error("BlockTimeout timed out, want woken at 0")
		}
		tk.Sleep(10 * time.Millisecond)
	})
	s.Go("waker", func(tk *Task) { q.WakeOne(s) })
	if err := s.RunFor(5 * time.Millisecond); err != nil {
		t.Fatalf("runfor: %v", err)
	}
	if s.Now() != 5*time.Millisecond || a.State() != StateSleeping {
		t.Fatalf("clock %v, a %v; want 5ms with a sleeping", s.Now(), a.State())
	}
}

// A zero-duration RunFor is a no-op even with runnable tasks queued:
// nothing executes, the clock does not move, and no deadlock is
// reported.
func TestRunForZeroDuration(t *testing.T) {
	s := New()
	ran := false
	s.Go("ready", func(tk *Task) { ran = true })
	if err := s.RunFor(0); err != nil {
		t.Fatalf("runfor(0): %v", err)
	}
	if ran {
		t.Fatal("task ran during a zero-duration RunFor")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v during a zero-duration RunFor", s.Now())
	}
	if d := s.Dispatches(); d != 0 {
		t.Fatalf("%d dispatches during a zero-duration RunFor", d)
	}
}

// A task parked on a WaitQueue with a timeout still pending is not a
// deadlock: the timer keeps the run alive and wakes it.
func TestRunForParkedButTimeredIsNotDeadlock(t *testing.T) {
	s := New()
	var q WaitQueue
	wokenByTimeout := false
	s.Go("parked", func(tk *Task) {
		wokenByTimeout = !tk.BlockTimeout(&q, 5*time.Millisecond)
	})
	if err := s.RunFor(20 * time.Millisecond); err != nil {
		t.Fatalf("runfor reported %v with a timeout pending", err)
	}
	if !wokenByTimeout {
		t.Fatal("BlockTimeout did not report a timeout")
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("clock %v, want the full 20ms horizon", s.Now())
	}
}

// Once no timer is pending, a task parked without a timeout is a
// deadlock — even mid-horizon.
func TestRunForDeadlockAfterTimersDrain(t *testing.T) {
	s := New()
	var q WaitQueue
	s.Go("stuck", func(tk *Task) { tk.Block(&q) })
	s.Go("transient", func(tk *Task) { tk.Sleep(2 * time.Millisecond) })
	err := s.RunFor(10 * time.Millisecond)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if !reflect.DeepEqual(dl.Blocked, []string{"stuck"}) {
		t.Fatalf("blocked = %v, want [stuck]", dl.Blocked)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("clock %v at deadlock, want 2ms (the last real event)", s.Now())
	}
}

// Splitting a run into RunFor windows is invisible to the tasks: the
// scheduling trace equals one uninterrupted Run.
func TestRunForSplitMatchesRun(t *testing.T) {
	build := func(s *Scheduler) {
		for i := 0; i < 3; i++ {
			i := i
			s.Go("w", func(tk *Task) {
				for n := 0; n < 8; n++ {
					tk.Sleep(time.Duration(i+1) * 700 * time.Microsecond)
					tk.Advance(100 * time.Microsecond)
				}
			})
		}
	}
	whole := New()
	wholeSched := recordSchedule(whole)
	build(whole)
	if err := whole.Run(); err != nil {
		t.Fatalf("whole: %v", err)
	}

	split := New()
	splitSched := recordSchedule(split)
	build(split)
	for i := 0; i < 10; i++ {
		if err := split.RunFor(3 * time.Millisecond); err != nil {
			t.Fatalf("split window %d: %v", i, err)
		}
	}
	if err := split.Run(); err != nil {
		t.Fatalf("split tail: %v", err)
	}
	if !reflect.DeepEqual(wholeSched, splitSched) {
		t.Fatalf("split schedule diverged:\nwhole %v\nsplit %v", *wholeSched, *splitSched)
	}
}
