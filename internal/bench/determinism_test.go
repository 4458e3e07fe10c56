package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/sim"
)

// dispatched is one dispatch as OnSlice reports it: when the task's
// slice started, and the task.
type dispatched struct {
	at   time.Duration
	task string
}

func (d dispatched) String() string { return fmt.Sprintf("%v:%s", d.at, d.task) }

// schedule is every dispatch a scheduler made, in order, uncapped.
type schedule []dispatched

// recordSchedule appends each dispatch s makes from now on to the
// returned schedule, after calling the OnSlice hook already installed,
// if any, which keeps working.
func recordSchedule(s *sim.Scheduler) *schedule {
	sched := new(schedule)
	prev := s.OnSlice
	s.OnSlice = func(task string, start, end time.Duration) {
		if prev != nil {
			prev(task, start, end)
		}
		*sched = append(*sched, dispatched{start, task})
	}
	return sched
}

// scheduleDiff describes the first dispatch where a and b differ, with
// the dispatches around it, "" if they are the same.
func scheduleDiff(a, b schedule) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			continue
		}
		var around strings.Builder
		for j := max(0, i-6); j <= i+6 && j < len(a) && j < len(b); j++ {
			fmt.Fprintf(&around, "\n%7d  %-30v  %-30v", j, a[j], b[j])
		}
		return fmt.Sprintf("first divergence at dispatch %d: %v vs %v%s", i, a[i], b[i], around.String())
	}
	if len(a) != len(b) {
		return fmt.Sprintf("lengths differ: %d vs %d dispatches", len(a), len(b))
	}
	return ""
}

// TestMemcachedDuoSchedulingDeterministic runs the most
// interleaving-sensitive configuration in the suite — Memcached (four
// worker threads) under Varan-2 — twice and requires identical
// schedules: every dispatch, its start and its task. This pins the
// wakeAllTIDs ordering fix: group retirement used to wake validator
// threads in Go's randomized map order, which let duo-mode benchmark
// results jitter run to run.
func TestMemcachedDuoSchedulingDeterministic(t *testing.T) {
	run := func() schedule {
		s := sim.New()
		sched := recordSchedule(s)
		err := measure(s, MemcachedTarget(), ModeVaran2, 0, nil, NewMetrics(0), func(_ *world, tk *sim.Task) error {
			tk.Sleep(250 * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return *sched
	}
	a := run()
	b := run()
	if d := scheduleDiff(a, b); d != "" {
		t.Fatal("first run against second: " + d)
	}
	t.Logf("schedules identical for %d dispatches", len(a))
}

// TestMemcachedDuoSettledShare pins the census behind ROADMAP item 7:
// of every 100 scheduler dispatches the 4-worker Memcached duo makes in
// the outdated-leader stage (Table 2's Mvedsua-2 row, the benchmark's
// mc_duo shape), how many are a follower thread woken by another
// thread's retirement while still out of turn — dispatches the scheduler
// settles by parking the thread again without switching into it
// (sim.Task.BlockWhile; its one caller is mve's turn wait). Everything
// else is a real switch. The run is deterministic, so the numbers are
// exact; if they move, the schedule moved.
func TestMemcachedDuoSettledShare(t *testing.T) {
	s := sim.New()
	var settled, dispatches int64
	err := measure(s, MemcachedTarget(), ModeMvedsua2, 0, nil, NewMetrics(0), func(w *world, tk *sim.Task) error {
		if err := w.warmUp(tk, 20*time.Millisecond); err != nil {
			return err
		}
		s0, d0 := s.Settled(), s.Dispatches()
		tk.Sleep(100 * time.Millisecond)
		settled, dispatches = s.Settled()-s0, s.Dispatches()-d0
		return w.validating("duo did not survive the window")
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantSettled, wantDispatches = 84528, 132148
	if settled != wantSettled || dispatches != wantDispatches {
		t.Fatalf("settled %d of %d dispatches (%.1f%%), want %d of %d",
			settled, dispatches, 100*float64(settled)/float64(dispatches), wantSettled, wantDispatches)
	}
}
