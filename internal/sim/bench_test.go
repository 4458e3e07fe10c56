package sim

import (
	"testing"
	"time"
)

// Scheduler hot-path microbenchmarks (`make bench-sched`). These pin
// the cost of a dispatch, an enqueue+dispatch round trip, and a timer
// fire, so shard-coordination overhead added on top of the core
// scheduler is measurable before and after a change.

// BenchmarkDispatchYield measures the task→scheduler→task handoff: two
// tasks alternating via Yield, two dispatches per iteration.
func BenchmarkDispatchYield(b *testing.B) {
	s := New()
	for i := 0; i < 2; i++ {
		s.Go("yielder", func(tk *Task) {
			for n := 0; n < b.N; n++ {
				tk.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBlockWhileSettled is BenchmarkDispatchYield with one of the
// two dispatches settled: a waker wakes a BlockWhile waiter whose
// predicate still holds and yields, so each iteration is one dispatch
// that parks the waiter again without switching to it and one real
// switch into the waker.
func BenchmarkBlockWhileSettled(b *testing.B) {
	s := New()
	var q WaitQueue
	turn := 1
	s.Go("waiter", func(tk *Task) { tk.BlockWhile(&q, oddWaiter{&turn}) })
	s.Go("waker", func(tk *Task) {
		for n := 0; n < b.N; n++ {
			q.WakeAll(s)
			tk.Yield()
		}
		turn = 2
		q.WakeAll(s)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if s.Settled() != int64(b.N) {
		b.Fatalf("settled %d dispatches in %d iterations", s.Settled(), b.N)
	}
}

// BenchmarkEnqueueDispatch measures a single task re-enqueueing itself:
// one enqueue and one dispatch per iteration, no contention.
func BenchmarkEnqueueDispatch(b *testing.B) {
	s := New()
	s.Go("solo", func(tk *Task) {
		for n := 0; n < b.N; n++ {
			tk.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnExit measures a task's whole life with nothing in it:
// create, one dispatch, exit. A coroutine costs more objects to set up
// than the goroutine and channel it replaced (iter.Pull's state is a
// dozen small heap cells), which is the price of the allocation-free
// dispatches above; short-lived tasks — one per cross-shard message —
// pay it, and this benchmark keeps it visible.
func BenchmarkSpawnExit(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Go("child", func(*Task) {})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimerFire measures the timer heap: push on Sleep, pop on
// fire, one of each per iteration.
func BenchmarkTimerFire(b *testing.B) {
	s := New()
	s.Go("sleeper", func(tk *Task) {
		for n := 0; n < b.N; n++ {
			tk.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerFireContended measures the heap with 64 interleaved
// sleepers, the shape of a populated shard.
func BenchmarkTimerFireContended(b *testing.B) {
	s := New()
	const tasks = 64
	for i := 0; i < tasks; i++ {
		s.Go("sleeper", func(tk *Task) {
			for n := 0; n < b.N/tasks; n++ {
				tk.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimedWaitWokenEarly is Memcached's bounded epoll_wait: 64
// tasks loop on BlockTimeout(10ms) and a waker WakeAlls them every
// 10ms/8 of virtual time, so every wait ends early. Were a woken wait's
// timer left behind until its deadline, the heap would carry about
// eight rounds of them (~500, mc_duo's size). One iteration is one
// early-woken wait.
func BenchmarkTimedWaitWokenEarly(b *testing.B) {
	s := New()
	const waiters, timeout = 64, 10 * time.Millisecond
	rounds := (b.N + waiters - 1) / waiters
	var q WaitQueue
	for i := 0; i < waiters; i++ {
		s.Go("waiter", func(tk *Task) {
			for n := 0; n < rounds; n++ {
				tk.BlockTimeout(&q, timeout)
			}
		})
	}
	s.Go("waker", func(tk *Task) {
		for n := 0; n < rounds; n++ {
			tk.Advance(timeout / 8)
			if q.WakeAll(s) != waiters {
				b.Error("a waiter timed out")
			}
			tk.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedEpoch measures pure epoch-coordination overhead: two
// shards, one task each sleeping through every quantum, so each
// iteration is one barrier with minimal shard-local work.
func BenchmarkShardedEpoch(b *testing.B) {
	ss := NewSharded(2, time.Millisecond)
	for i := 0; i < 2; i++ {
		ss.Go(i, "ticker", func(tk *Task) {
			for n := 0; n < b.N; n++ {
				tk.Sleep(time.Millisecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := ss.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedCrossSend measures the cross-shard path: one message
// sequenced through the barrier per iteration, ping-ponging between two
// shards.
func BenchmarkShardedCrossSend(b *testing.B) {
	ss := NewSharded(2, time.Millisecond)
	var bounce func(tk *Task, n int)
	bounce = func(tk *Task, n int) {
		if n >= b.N {
			return
		}
		to := 1 - tk.Scheduler().ShardID()
		ss.Send(tk, to, "ball", func(rk *Task) { bounce(rk, n+1) })
	}
	ss.Go(0, "serve", func(tk *Task) { bounce(tk, 0) })
	b.ReportAllocs()
	b.ResetTimer()
	if err := ss.Run(); err != nil {
		b.Fatal(err)
	}
}
