package mve

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// stallingFollower replays the echo program but parks forever after
// consuming stopAfter syscalls — the non-crashing hang the watchdog is
// for (an infinite loop between syscalls looks exactly like this at the
// syscall boundary).
func stallingFollower(p *Proc, stopAfter int) func(*sim.Task) {
	return func(tk *sim.Task) {
		calls := 0
		issue := func(c sysabi.Call) sysabi.Result {
			if calls >= stopAfter {
				var q sim.WaitQueue
				for {
					tk.Block(&q)
				}
			}
			calls++
			return p.Invoke(tk, c)
		}
		lfd := int(issue(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(issue(sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for {
			r := issue(sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			if r.Ret == 0 {
				return
			}
			issue(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
		}
	}
}

func TestWatchdogDetectsStalledFollower(t *testing.T) {
	s, k, m := world(1024, Costs{})
	m.WatchdogDeadline = 50 * time.Millisecond
	leader := m.StartSingleLeader("v0")

	var stall Stall
	var stallAt time.Duration
	var fTask *sim.Task
	m.OnStall = func(st Stall) {
		stall = st
		stallAt = s.Now()
		fTask.Kill()
		ejectAll(m, "dropped")
	}
	follower := m.AttachCandidate("v1", nil, 0)
	fTask = s.Go("follower", stallingFollower(follower, 4))

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 6))
	var lastSendAt time.Duration
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{7, 0}}).Ret)
		for _, msg := range []string{"a", "b", "c", "d", "e", "f"} {
			lastSendAt = tk.Now()
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(msg)})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			replies = append(replies, string(r.Data))
			tk.Sleep(5 * time.Millisecond)
		}
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stall.Proc != "v1" || stall.Reason != "no-progress" {
		t.Fatalf("stall = %+v", stall)
	}
	if stall.Stalled < m.WatchdogDeadline {
		t.Fatalf("stall.Stalled = %v, want >= deadline %v", stall.Stalled, m.WatchdogDeadline)
	}
	// Detection latency is bounded: within deadline + one poll interval of
	// the moment pending work stopped moving (conservatively, the last
	// client send before detection).
	if limit := m.WatchdogDeadline + m.WatchdogDeadline/8; stallAt-lastSendAt > limit+5*time.Millisecond {
		t.Fatalf("detected %v after last activity, want within ~%v", stallAt-lastSendAt, limit)
	}
	// The leader kept serving all six requests despite the hung follower.
	if strings.Join(replies, "") != "abcdef" {
		t.Fatalf("replies = %v", replies)
	}
	if m.Stats.Stalls != 1 {
		t.Fatalf("Stalls = %d", m.Stats.Stalls)
	}
	if leader.Role() != RoleSingleLeader {
		t.Fatalf("leader role = %v", leader.Role())
	}
}

// TestWatchdogFreesLeaderBlockedOnFullBuffer is the acceptance case for
// the blocking policy: a hung follower lets the tiny buffer fill, the
// leader parks in Put, and the watchdog-triggered teardown (close the
// buffer, drop the follower) unblocks it. The leader must never stay
// wedged behind a dead follower.
func TestWatchdogFreesLeaderBlockedOnFullBuffer(t *testing.T) {
	s, k, m := world(2, Costs{})
	m.WatchdogDeadline = 40 * time.Millisecond
	leader := m.StartSingleLeader("v0")

	var fTask *sim.Task
	stalled := false
	m.OnStall = func(st Stall) {
		stalled = true
		fTask.Kill()
		ejectAll(m, "dropped")
	}
	follower := m.AttachCandidate("v1", nil, 0)
	fTask = s.Go("follower", stallingFollower(follower, 0)) // never consumes

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 4))
	s.Go("client", client(k, []string{"w", "x", "y", "z"}, &replies))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !stalled {
		t.Fatal("watchdog never fired")
	}
	if m.Buffer().ProducerBlocked == 0 {
		t.Fatal("leader never blocked on the full buffer; scenario did not exercise the rescue")
	}
	if strings.Join(replies, "") != "wxyz" {
		t.Fatalf("replies = %v (leader stayed wedged)", replies)
	}
}

func TestDiscardPolicyDropsLaggingFollower(t *testing.T) {
	s, k, m := world(2, Costs{})
	m.FullPolicy = FullDiscard
	leader := m.StartSingleLeader("v0")

	var stall Stall
	var fTask *sim.Task
	m.OnStall = func(st Stall) {
		stall = st
		fTask.Kill()
		ejectAll(m, "dropped")
	}
	follower := m.AttachCandidate("v1", nil, 0)
	fTask = s.Go("follower", stallingFollower(follower, 0)) // never consumes

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 4))
	s.Go("client", client(k, []string{"p", "q", "r", "s"}, &replies))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stall.Reason != "buffer-full" || stall.Proc != "v1" {
		t.Fatalf("stall = %+v", stall)
	}
	if stall.Pending != 2 {
		t.Fatalf("stall.Pending = %d, want full buffer (2)", stall.Pending)
	}
	// With the discard policy the leader never blocks on the buffer.
	if m.Buffer().ProducerBlocked != 0 {
		t.Fatalf("ProducerBlocked = %d, want 0 under FullDiscard", m.Buffer().ProducerBlocked)
	}
	if strings.Join(replies, "") != "pqrs" {
		t.Fatalf("replies = %v", replies)
	}
	if leader.Role() != RoleSingleLeader {
		t.Fatalf("leader role = %v", leader.Role())
	}
}

func TestWatchdogIgnoresIdleFollower(t *testing.T) {
	s, k, m := world(64, Costs{})
	m.WatchdogDeadline = 20 * time.Millisecond
	leader := m.StartSingleLeader("v0")

	stalls := 0
	m.OnStall = func(Stall) { stalls++ }
	follower := m.AttachCandidate("v1", nil, 0)
	fTask := s.Go("follower", followerEcho(follower, 3))

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 3))
	s.Go("client", client(k, []string{"a", "b", "c"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		// Fully caught up, then a long quiet period: many deadlines pass
		// with nothing pending. The watchdog must stay silent.
		for len(replies) < 3 {
			tk.Sleep(time.Millisecond)
		}
		tk.Sleep(500 * time.Millisecond)
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stalls != 0 {
		t.Fatalf("stalls = %d on an idle, healthy follower", stalls)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
}

func TestWatchdogRetiresOnCleanDrop(t *testing.T) {
	s, k, m := world(64, Costs{})
	m.WatchdogDeadline = 30 * time.Millisecond
	leader := m.StartSingleLeader("v0")
	stalls := 0
	m.OnStall = func(Stall) { stalls++ }
	follower := m.AttachCandidate("v1", nil, 0)
	fTask := s.Go("follower", followerEcho(follower, 2))
	var replies []string
	s.Go("leader", leaderEcho(k, leader, 2))
	s.Go("client", client(k, []string{"m", "n"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(replies) < 2 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	// Run must terminate: the watchdog task exits once the duo is gone
	// instead of polling forever.
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stalls != 0 {
		t.Fatalf("stalls = %d", stalls)
	}
	_ = leader
}

func TestFullPolicyAndStallStrings(t *testing.T) {
	if FullBlock.String() != "block" || FullDiscard.String() != "discard-follower" ||
		FullPolicy(7).String() != "policy(7)" {
		t.Fatal("FullPolicy.String mismatch")
	}
	np := Stall{Proc: "f", Reason: "no-progress", Stalled: time.Second, Pending: 3}
	if !strings.Contains(np.String(), "no progress for 1s") {
		t.Fatalf("String = %q", np.String())
	}
	bf := Stall{Proc: "f", Reason: "buffer-full", Pending: 8, Dropped: 2}
	if !strings.Contains(bf.String(), "ring buffer full (8 pending, 2 dropped)") {
		t.Fatalf("String = %q", bf.String())
	}
}
