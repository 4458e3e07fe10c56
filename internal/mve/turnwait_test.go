package mve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// The turn wait (invokeFollower's wait for the leader's global order) is
// sim.Task.BlockWhile's one caller: a follower thread woken by another
// thread's retirement while still out of turn is parked again by the
// scheduler. These tests drive a four-thread follower through orders in
// which three threads wait at once, and through every way out of the
// wait that is not "my turn came".

// turnWrite is thread tid's i-th write. The descriptor does not exist,
// so the kernel answers EBADF and the monitor records, replays and
// compares the payload all the same.
func turnWrite(tid, i int) sysabi.Call {
	return sysabi.Call{Op: sysabi.OpWrite, FD: 99, Buf: []byte(fmt.Sprintf("%d.%d;", tid, i)), TID: tid}
}

// recordDescending records rounds of one write per thread in descending
// TID order, from one task: the follower's threads start in ascending
// order, so each round begins with threads 0, 1 and 2 out of turn.
func recordDescending(tk *sim.Task, leader *Proc, rounds int, order *[]string) {
	for i := 0; i < rounds; i++ {
		for tid := 3; tid >= 0; tid-- {
			leader.Invoke(tk, turnWrite(tid, i))
			*order = append(*order, fmt.Sprintf("%d.%d", tid, i))
		}
	}
}

// followThreads starts the follower's four threads, each issuing rounds
// writes and logging the order in which they were validated, and a task
// that drops the follower once all four are through.
func followThreads(s *sim.Scheduler, m *Monitor, follower *Proc, rounds int, order *[]string) {
	var tasks []*sim.Task
	for tid := 0; tid < 4; tid++ {
		tid := tid
		tasks = append(tasks, s.Go(fmt.Sprintf("f-t%d", tid), func(tk *sim.Task) {
			for i := 0; i < rounds; i++ {
				follower.Invoke(tk, turnWrite(tid, i))
				*order = append(*order, fmt.Sprintf("%d.%d", tid, i))
			}
		}))
	}
	s.Go("teardown", func(tk *sim.Task) {
		for _, ft := range tasks {
			tk.Join(ft)
		}
		ejectAll(m, "dropped")
	})
}

// TestOutOfTurnThreadsSettleInScheduler: the follower validates the
// leader's sequence in the leader's order, in exactly the dispatches the
// plain Block loop took (the number is the parent commit's), and most of
// the out-of-turn wakes never switch into the thread.
func TestOutOfTurnThreadsSettleInScheduler(t *testing.T) {
	const rounds = 6
	s, _, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var leaderOrder, followerOrder []string
	s.Go("leader", func(tk *sim.Task) { recordDescending(tk, leader, rounds, &leaderOrder) })
	followThreads(s, m, follower, rounds, &followerOrder)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
	if got, want := strings.Join(followerOrder, ","), strings.Join(leaderOrder, ","); got != want || len(leaderOrder) != 4*rounds {
		t.Fatalf("follower validated\n  %s\nleader recorded\n  %s", got, want)
	}
	// Pinned on the parent commit, where every one of these dispatches
	// switched into its task.
	if got, want := s.Dispatches(), int64(63); got != want {
		t.Errorf("Dispatches = %d, want %d: the schedule moved", got, want)
	}
	if got, want := s.Settled(), int64(33); got != want {
		t.Errorf("Settled = %d, want %d", got, want)
	}
}

// TestCrashPromotionReleasesTurnWaiters: threads 0–2 sit in the turn
// wait behind an event thread 3 will never match (the crashed leader's
// garbage tail). Thread 3's discardTail empties their streams
// (dropQueued) and the proc changes role; each waiter must resume — its
// predicate reads neither an empty stream's front nor a stale turn — and
// re-issue its call natively.
func TestCrashPromotionReleasesTurnWaiters(t *testing.T) {
	s, _, m := world(64, Costs{})
	rec := obs.New(s.Now, obs.Options{})
	m.SetRecorder(rec)
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var leaderOrder, followerOrder []string
	s.Go("leader", func(tk *sim.Task) {
		recordDescending(tk, leader, 1, &leaderOrder)
		// The old version wanders off: thread 3 makes a call the new
		// version never makes, the others go on, and the process dies.
		leader.Invoke(tk, sysabi.Call{Op: sysabi.OpGetPID, TID: 3})
		for tid := 2; tid >= 0; tid-- {
			leader.Invoke(tk, turnWrite(tid, 1))
		}
		m.MarkLeaderCrashed()
		m.Promote(tk, PromoteDemote)
	})
	followThreads(s, m, follower, 2, &followerOrder)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Leader() != follower || len(m.Divergences()) != 0 {
		t.Fatalf("leader = %s, divergences = %v", m.Leader().Name(), m.Divergences())
	}
	if log := rec.FormatTimeline(); !strings.Contains(log, "crashed leader's stream truncated") {
		t.Fatalf("the garbage tail was never discarded:\n%s", log)
	}
	// Round 0 in the leader's order; round 1 natively, thread 3 (which
	// completed the promotion) first, then the released waiters.
	if got, want := strings.Join(followerOrder, ","), "3.0,2.0,1.0,0.0,3.1,0.1,1.1,2.1"; got != want {
		t.Fatalf("follower threads completed %s, want %s", got, want)
	}
	// Round 0's four calls and thread 3's round-1 call meet the stream —
	// the last where the tail is truncated — and round 1's four run
	// natively. v1 is the only follower; the root's leader-role calls are
	// the old leader's eight (four writes, the getpid, three writes) plus
	// the new leader's native ones.
	const oldLeaderCalls = 4 + 1 + 3
	f, l := rec.Counter(obs.CSyscallsFollower), rec.Counter(obs.CSyscallsLeader)-oldLeaderCalls
	if f != 4+1 || l != 4 || s.Settled() == 0 {
		t.Fatalf("new leader made %d validated and %d native syscalls, %d dispatches settled", f, l, s.Settled())
	}
}

// TestShutdownLeavesTurnWaitersParked: a KindShutdown entry wakes every
// thread; the ones in the turn wait are still out of turn (thread 0's
// event never retires), so they go back to waiting — now by the
// scheduler's hand — and stay killable.
func TestShutdownLeavesTurnWaitersParked(t *testing.T) {
	s, _, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var validated []string
	s.Go("leader", func(tk *sim.Task) {
		for tid := 0; tid < 4; tid++ {
			leader.Invoke(tk, turnWrite(tid, 0))
		}
		m.ring.Put(tk, ringbuf.Entry{Kind: ringbuf.KindShutdown})
	})
	var tasks []*sim.Task
	for tid := 1; tid < 5; tid++ {
		tid := tid
		tasks = append(tasks, s.Go(fmt.Sprintf("f-t%d", tid), func(tk *sim.Task) {
			if tid == 4 {
				// A thread the leader never ran: it pulls for ever, and
				// so is the one that reaches the shutdown entry.
				tk.Sleep(time.Millisecond)
			}
			follower.Invoke(tk, turnWrite(tid, 0))
			validated = append(validated, fmt.Sprint(tid))
		}))
	}
	s.Go("reaper", func(tk *sim.Task) {
		tk.Sleep(500 * time.Microsecond)
		before := s.Settled()
		tk.Sleep(time.Millisecond)
		// Thread 4 drained the shutdown entry and woke threads 1–3.
		if got := s.Settled() - before; got != 3 {
			t.Errorf("the shutdown wake settled %d dispatches, want 3", got)
		}
		for i, ft := range tasks {
			if ft.State() != sim.StateBlocked {
				t.Errorf("f-t%d is %v after shutdown, want blocked", i+1, ft.State())
			}
			ft.Kill()
		}
		ejectAll(m, "dropped")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(validated) != 0 || follower.globalNext != 0 {
		t.Fatalf("validated %v, globalNext = %d; nothing was in turn", validated, follower.globalNext)
	}
	for i, ft := range tasks {
		if !ft.Done() {
			t.Errorf("f-t%d did not unwind", i+1)
		}
	}
}

// TestTurnWaitPredicate pins StillWaiting to the loop's own re-check.
func TestTurnWaitPredicate(t *testing.T) {
	p := &Proc{role: RoleFollower, globalNext: 7}
	st := p.stream(0)
	if st.StillWaiting() {
		t.Error("waiting on an empty stream (dropQueued emptied it)")
	}
	st.grp = expGroup{seq: 9, n: 2}
	if !st.StillWaiting() {
		t.Error("not waiting with the group's first event out of turn")
	}
	p.role = RoleLeader
	if st.StillWaiting() {
		t.Error("waiting after a role change")
	}
	p.role = RoleFollower
	st.grp.idx = 1
	if st.StillWaiting() {
		t.Error("waiting inside a started group")
	}
	st.grp.idx = 0
	p.globalNext = 9
	if st.StillWaiting() {
		t.Error("waiting on its own turn")
	}
}
