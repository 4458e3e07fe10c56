package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// shardedRunEquality runs the same single-shard workload on a plain
// Scheduler and on a 1-shard ShardedScheduler: the N=1 path must be the
// same machine, so the two schedules match dispatch for dispatch.
func TestShardedSingleShardMatchesScheduler(t *testing.T) {
	workload := func(s *Scheduler) {
		for i := 0; i < 3; i++ {
			i := i
			s.Go(fmt.Sprintf("w%d", i), func(tk *Task) {
				for n := 0; n < 5; n++ {
					tk.Sleep(time.Duration(i+1) * 300 * time.Microsecond)
					tk.Advance(50 * time.Microsecond)
					tk.Yield()
				}
			})
		}
	}

	plain := New()
	want := recordSchedule(plain)
	workload(plain)
	if err := plain.Run(); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	ss := NewSharded(1, time.Millisecond)
	got := recordSchedule(ss.Shard(0))
	workload(ss.Shard(0))
	if err := ss.Run(); err != nil {
		t.Fatalf("sharded run: %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("1-shard schedule diverged from plain scheduler:\n got %v\nwant %v", *got, *want)
	}
	if got, want := ss.Shard(0).Dispatches(), plain.Dispatches(); got != want {
		t.Fatalf("dispatches: sharded %d, plain %d", got, want)
	}
}

// Cross-shard sends are delivered at the next epoch boundary, in
// deterministic order, never earlier than they were sent and never more
// than one quantum later.
func TestShardedCrossSendDeliveryBounds(t *testing.T) {
	const quantum = time.Millisecond
	ss := NewSharded(2, quantum)
	type arrival struct {
		sent, arrived time.Duration
	}
	var arrivals []arrival // only shard 1 tasks append: no cross-shard sharing
	ss.Go(0, "sender", func(tk *Task) {
		for i := 0; i < 5; i++ {
			tk.Sleep(700 * time.Microsecond)
			sent := tk.Now()
			ss.Send(tk, 1, "msg", func(rk *Task) {
				arrivals = append(arrivals, arrival{sent: sent, arrived: rk.Now()})
			})
		}
	})
	// Keep shard 1 alive long enough to receive everything.
	ss.Go(1, "keepalive", func(tk *Task) { tk.Sleep(10 * time.Millisecond) })
	if err := ss.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(arrivals) != 5 {
		t.Fatalf("got %d arrivals, want 5", len(arrivals))
	}
	for i, a := range arrivals {
		if a.arrived < a.sent {
			t.Errorf("arrival %d: delivered at %v before send at %v", i, a.arrived, a.sent)
		}
		if a.arrived > a.sent+quantum {
			t.Errorf("arrival %d: delivered at %v, more than one quantum after send at %v", i, a.arrived, a.sent)
		}
		if i > 0 && a.sent < arrivals[i-1].sent {
			t.Errorf("arrival %d out of order", i)
		}
	}
}

// A cross-shard wakeup rescues a task that would otherwise deadlock:
// blocked-on-a-WaitQueue with no timers is only a deadlock when no
// message can ever arrive.
func TestShardedCrossSendWakesBlockedTask(t *testing.T) {
	ss := NewSharded(2, time.Millisecond)
	var q WaitQueue
	woken := false
	ss.Go(0, "waiter", func(tk *Task) {
		tk.Block(&q)
		woken = true
	})
	ss.Go(1, "waker", func(tk *Task) {
		tk.Sleep(3 * time.Millisecond)
		ss.Send(tk, 0, "wake", func(rk *Task) {
			q.WakeAll(rk.Scheduler())
		})
	})
	if err := ss.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !woken {
		t.Fatal("blocked task was never woken by the cross-shard message")
	}
}

// With no message in flight and no timers, blocked tasks across shards
// are a deadlock, reported with shard-qualified names.
func TestShardedDeadlockDetection(t *testing.T) {
	ss := NewSharded(2, time.Millisecond)
	var q WaitQueue
	ss.Go(0, "stuck", func(tk *Task) { tk.Block(&q) })
	ss.Go(1, "transient", func(tk *Task) { tk.Sleep(2 * time.Millisecond) })
	err := ss.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "s0/stuck" {
		t.Fatalf("blocked = %v, want [s0/stuck]", dl.Blocked)
	}
}

// A message whose sender had advanced past the epoch boundary is dated
// in the future: it holds the runtime open and fires at the first
// boundary at or after its timestamp.
func TestShardedSendFutureDelivery(t *testing.T) {
	ss := NewSharded(2, time.Millisecond)
	var at time.Duration
	ss.Go(0, "ahead", func(tk *Task) {
		tk.Advance(5 * time.Millisecond)
		ss.Send(tk, 1, "late", func(tk *Task) { at = tk.Now() })
	})
	if err := ss.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at < 5*time.Millisecond {
		t.Fatalf("sent task ran at %v, want >= 5ms", at)
	}
	if at > 6*time.Millisecond {
		t.Fatalf("sent task ran at %v, want within a quantum of 5ms", at)
	}
}

// A crash on a shard with no OnCrash handler re-raises the panic on the
// caller of Run, like a standalone Scheduler; with a handler it is
// recorded on the shard.
func TestShardedCrashPropagation(t *testing.T) {
	ss := NewSharded(2, time.Millisecond)
	ss.Go(1, "bomb", func(tk *Task) { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		_ = ss.Run()
		t.Fatal("run returned instead of panicking")
	}()

	ss = NewSharded(2, time.Millisecond)
	ss.Shard(1).OnCrash = func(CrashInfo) {}
	ss.Go(1, "bomb", func(tk *Task) { panic("boom") })
	if err := ss.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := ss.Shard(1).Crashes(); len(got) != 1 || got[0].Value != "boom" {
		t.Fatalf("crashes = %v, want one boom", got)
	}
}

// shardedScript is a deterministic pseudo-random workload description,
// generated once from a seed and then executed; runSharded executes it
// and returns everything observable about the run.
type shardedScript struct {
	shards  int
	quantum time.Duration
	tasks   []scriptTask
}

type scriptTask struct {
	shard int
	steps []scriptStep
}

type scriptStep struct {
	op      int // 0 sleep, 1 advance, 2 yield, 3 send
	dur     time.Duration
	target  int
	payload int
}

func genShardedScript(seed int64, shards, tasksPerShard, steps int) shardedScript {
	rng := rand.New(rand.NewSource(seed))
	sc := shardedScript{shards: shards, quantum: time.Millisecond}
	for s := 0; s < shards; s++ {
		for t := 0; t < tasksPerShard; t++ {
			st := scriptTask{shard: s}
			for i := 0; i < steps; i++ {
				step := scriptStep{op: rng.Intn(4)}
				switch step.op {
				case 0, 1:
					step.dur = time.Duration(rng.Intn(2500)) * time.Microsecond
				case 3:
					step.target = rng.Intn(shards)
					step.payload = rng.Int()
				}
				st.steps = append(st.steps, step)
			}
			sc.tasks = append(sc.tasks, st)
		}
	}
	return sc
}

type shardedRunResult struct {
	schedules  []*schedule // per shard
	logs       [][]string  // per-shard message arrival logs
	clocks     []time.Duration
	dispatches int64
}

func runShardedScript(sc shardedScript) (shardedRunResult, error) {
	ss := NewSharded(sc.shards, sc.quantum)
	schedules := recordShards(ss)
	logs := make([][]string, sc.shards)
	for ti, st := range sc.tasks {
		st := st
		ss.Go(st.shard, fmt.Sprintf("s%dt%d", st.shard, ti), func(tk *Task) {
			for _, step := range st.steps {
				switch step.op {
				case 0:
					tk.Sleep(step.dur)
				case 1:
					tk.Advance(step.dur)
				case 2:
					tk.Yield()
				case 3:
					payload := step.payload
					target := step.target
					sent := tk.Now()
					ss.Send(tk, target, "xmsg", func(rk *Task) {
						// Only tasks on shard `target` touch logs[target].
						logs[target] = append(logs[target],
							fmt.Sprintf("%d<-%d@%d/%d", target, payload, sent, rk.Now()))
					})
				}
			}
		})
	}
	err := ss.Run()
	res := shardedRunResult{schedules: schedules, logs: logs, dispatches: ss.Dispatches()}
	for i := 0; i < sc.shards; i++ {
		res.clocks = append(res.clocks, ss.Shard(i).Now())
	}
	return res, err
}

// The tentpole property: a sharded run is bit-for-bit reproducible.
// The same seeded workload — shard-local compute, timers, yields, and
// cross-shard messages — is run twice on real parallel OS threads; every
// shard's schedule, the per-shard message logs, clocks and dispatch
// counts must be identical. `make check` runs this under -race, which also
// proves the epoch barrier is the only cross-thread interaction.
func TestShardedRunTwiceDeterministic(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			sc := genShardedScript(seed, shards, 3, 40)
			a, errA := runShardedScript(sc)
			b, errB := runShardedScript(sc)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("shards=%d seed=%d: error mismatch: %v vs %v", shards, seed, errA, errB)
			}
			for i := range a.schedules {
				if !reflect.DeepEqual(a.schedules[i], b.schedules[i]) {
					t.Fatalf("shards=%d seed=%d: shard %d's schedules differ (len %d vs %d)",
						shards, seed, i, len(*a.schedules[i]), len(*b.schedules[i]))
				}
			}
			if !reflect.DeepEqual(a.logs, b.logs) {
				t.Fatalf("shards=%d seed=%d: cross-shard delivery logs differ:\n%v\nvs\n%v",
					shards, seed, a.logs, b.logs)
			}
			if !reflect.DeepEqual(a.clocks, b.clocks) {
				t.Fatalf("shards=%d seed=%d: clocks differ: %v vs %v", shards, seed, a.clocks, b.clocks)
			}
			if a.dispatches != b.dispatches {
				t.Fatalf("shards=%d seed=%d: dispatches differ: %d vs %d",
					shards, seed, a.dispatches, b.dispatches)
			}
			recorded := 0
			for _, sched := range a.schedules {
				recorded += len(*sched)
			}
			if recorded == 0 || int64(recorded) != a.dispatches {
				t.Fatalf("shards=%d seed=%d: %d dispatches recorded of %d", shards, seed, recorded, a.dispatches)
			}
		}
	}
}
