package sim

import (
	"fmt"
	"testing"
	"time"
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
func recordSchedule(s *Scheduler) *schedule {
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

// recordShards records every shard of ss, in shard order.
func recordShards(ss *ShardedScheduler) []*schedule {
	out := make([]*schedule, ss.Shards())
	for i := range out {
		out[i] = recordSchedule(ss.Shard(i))
	}
	return out
}

// TestOnSliceObservesDispatches checks the dispatch hook sees every run
// slice with its virtual interval, and that attaching it does not
// change scheduling (same final clock and dispatch count as a bare
// run).
func TestOnSliceObservesDispatches(t *testing.T) {
	run := func(hook bool) (slices int, busy time.Duration, clock time.Duration, dispatches int64) {
		s := New()
		if hook {
			s.OnSlice = func(task string, start, end time.Duration) {
				if end < start {
					t.Errorf("slice for %q ends before it starts: %v > %v", task, start, end)
				}
				slices++
				busy += end - start
			}
		}
		s.Go("a", func(tk *Task) {
			tk.Advance(3 * time.Millisecond)
			tk.Yield()
			tk.Advance(time.Millisecond)
		})
		s.Go("b", func(tk *Task) {
			tk.Sleep(2 * time.Millisecond)
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return slices, busy, s.Now(), s.Dispatches()
	}
	slices, busy, clock, dispatches := run(true)
	if int64(slices) != dispatches {
		t.Errorf("hook saw %d slices, want one per dispatch (%d)", slices, dispatches)
	}
	// Task a charges 4ms of CPU; task b sleeps (off-CPU). The summed
	// slice time is exactly the charged work.
	if want := 4 * time.Millisecond; busy != want {
		t.Errorf("summed slice time %v, want %v", busy, want)
	}
	_, _, bareClock, bareDispatches := run(false)
	if clock != bareClock || dispatches != bareDispatches {
		t.Errorf("OnSlice perturbed the run: clock %v vs %v, dispatches %d vs %d",
			clock, bareClock, dispatches, bareDispatches)
	}
}
