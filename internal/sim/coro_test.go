package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestParkedTaskDoesNotRetainBodyCaptures: the coroutine's closures stay
// reachable from the Task for its whole life, so they must not hold the
// task body — what the body captured has to die when the body stops
// using it, as it does on a plain goroutine. (Unfixed, every update
// kept the previous version's whole store alive through the new
// leader's main task.)
func TestParkedTaskDoesNotRetainBodyCaptures(t *testing.T) {
	s := New()
	var q WaitQueue
	finalized := make(chan struct{})
	func() { // its own frame, so the test holds no reference to big
		big := new([1 << 20]byte)
		runtime.SetFinalizer(big, func(*[1 << 20]byte) { close(finalized) })
		s.Go("holder", func(tk *Task) {
			big[0] = 1 // first and last use
			tk.Block(&q)
		})
	}()
	if _, ok := s.Run().(*DeadlockError); !ok {
		t.Fatal("holder should be parked with nothing else to run")
	}
	collected := false
	for i := 0; i < 20 && !collected; i++ {
		runtime.GC()
		select {
		case <-finalized:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Error("the parked task still pins an object its body dropped")
	}
	q.WakeOne(s)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGoexitInTaskEndsRunCaller pins what runtime.Goexit inside a task
// body (t.Fatal called there, typically) does: the task retires as if
// it had returned, and iter.Pull carries the Goexit into the resumer,
// so the goroutine that called Run ends too.
func TestGoexitInTaskEndsRunCaller(t *testing.T) {
	s := New()
	quitter := s.Go("quitter", func(*Task) { runtime.Goexit() })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Run() // never returns; the error has nowhere to go
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned to its caller after a task called runtime.Goexit")
	}
	if !quitter.Done() || quitter.crashed {
		t.Errorf("quitter: done=%v crashed=%v, want a clean exit", quitter.Done(), quitter.crashed)
	}
}

// TestDispatchZeroAllocs guards the dispatch path's allocation count
// without timing anything: a Yield dispatch, a Block/WakeOne round trip
// and a Sleep/timer-fire round trip each allocate nothing once the
// queues have reached their working size.
func TestDispatchZeroAllocs(t *testing.T) {
	s := New()
	var q WaitQueue
	yielder := s.Go("yielder", func(tk *Task) {
		for {
			tk.Yield()
		}
	})
	blocker := s.Go("blocker", func(tk *Task) {
		for {
			tk.Block(&q)
		}
	})
	sleeper := s.Go("sleeper", func(tk *Task) {
		for {
			tk.Sleep(time.Microsecond)
		}
	})
	step := func() { s.dispatch(s.runq.pop()) }
	step() // yielder, back on the run queue behind the other two
	step() // blocker parks on q
	step() // sleeper parks on the timer heap

	// goschedEvery+1 runs, so the periodic Gosched is inside the window.
	if n := testing.AllocsPerRun(goschedEvery+1, step); n != 0 {
		t.Errorf("Yield dispatch: %v allocs, want 0", n)
	}
	s.runq.pop() // set the yielder aside; the next two cases run alone
	if n := testing.AllocsPerRun(goschedEvery+1, func() { q.WakeOne(s); step() }); n != 0 {
		t.Errorf("Block/WakeOne round trip: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(goschedEvery+1, func() { s.advanceTo(s.timers[0].when); step() }); n != 0 {
		t.Errorf("Sleep/timer round trip: %v allocs, want 0", n)
	}

	s.enqueue(yielder)
	for _, tk := range []*Task{yielder, blocker, sleeper} {
		tk.Kill()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
