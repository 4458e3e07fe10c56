package mve

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// world builds a scheduler + kernel + monitor.
func world(bufCap int, costs Costs) (*sim.Scheduler, *vos.Kernel, *Monitor) {
	s := sim.New()
	k := vos.NewKernel(s)
	m := New(k, bufCap, costs)
	return s, k, m
}

func inv(p *Proc, t *sim.Task, c sysabi.Call) sysabi.Result { return p.Invoke(t, c) }

// ejectAll detaches every consumer: a test's teardown, and what a
// controller does to abort a fleet.
func ejectAll(m *Monitor, reason string) {
	for _, v := range m.Variants() {
		m.EjectVariant(v, reason)
	}
}

// atBarrier stands in for the DSU barrier the controller promotes at: the
// leader's program issues its syscalls through it, and once policy is set
// the promotion entry is appended between two of them, at the leader's
// quiescence.
type atBarrier struct {
	*Proc
	policy    *PromotePolicy
	onPromote func(*sim.Task) // if set, runs on the leader's task right after the promotion
}

func (b *atBarrier) Invoke(t *sim.Task, c sysabi.Call) sysabi.Result {
	if b.policy != nil {
		b.m.Promote(t, *b.policy)
		b.policy = nil
		if b.onPromote != nil {
			b.onPromote(t)
		}
	}
	return b.Proc.Invoke(t, c)
}

func (b *atBarrier) promote(policy PromotePolicy) { b.policy = &policy }

func TestSingleLeaderPassesThrough(t *testing.T) {
	s, _, m := world(16, Costs{})
	rec := obs.New(s.Now, obs.Options{})
	m.SetRecorder(rec)
	p := m.StartSingleLeader("v0")
	s.Go("app", func(tk *sim.Task) {
		r := inv(p, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{80, 0}})
		if !r.OK() {
			t.Errorf("socket: %v", r.Err)
		}
		r = inv(p, tk, sysabi.Call{Op: sysabi.OpGetPID})
		if !r.OK() || r.Ret == 0 {
			t.Errorf("getpid: %+v", r)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := rec.Counter(obs.CSyscallsSingle); p.Role() != RoleSingleLeader || n != 2 {
		t.Fatalf("role=%v syscalls=%d", p.Role(), n)
	}
}

func TestSingleLeaderInterceptCostCharged(t *testing.T) {
	s, _, m := world(16, Costs{Intercept: time.Microsecond})
	p := m.StartSingleLeader("v0")
	s.Go("app", func(tk *sim.Task) {
		for i := 0; i < 5; i++ {
			inv(p, tk, sysabi.Call{Op: sysabi.OpClock})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != 5*time.Microsecond {
		t.Fatalf("Now = %v", s.Now())
	}
}

// leaderEcho runs a tiny echo server loop through proc p: accept once,
// then read/write n times.
func leaderEcho(k *vos.Kernel, p sysabi.Dispatcher, iterations int) func(*sim.Task) {
	return func(tk *sim.Task) {
		lfd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for i := 0; i < iterations; i++ {
			r := p.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			if r.Ret == 0 {
				return
			}
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
		}
	}
}

// client drives the echo server with the given messages.
func client(k *vos.Kernel, msgs []string, replies *[]string) func(*sim.Task) {
	return func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{7, 0}}).Ret)
		for _, msg := range msgs {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(msg)})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			*replies = append(*replies, string(r.Data))
		}
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	}
}

// followerEcho replays the identical echo behaviour through the follower
// proc. Its fds come from replayed results, so they match the leader's.
func followerEcho(p *Proc, iterations int) func(*sim.Task) {
	return leaderEchoLike(p, iterations, nil)
}

// leaderEchoLike is the follower's program: same syscall sequence, with an
// optional transform applied to each echoed payload (to provoke or model
// version differences).
func leaderEchoLike(p sysabi.Dispatcher, iterations int, mutate func([]byte) []byte) func(*sim.Task) {
	return func(tk *sim.Task) {
		lfd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for i := 0; i < iterations; i++ {
			r := p.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			if r.Ret == 0 {
				return
			}
			out := r.Data
			if mutate != nil {
				out = mutate(out)
			}
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: out})
		}
	}
}

func TestLeaderFollowerAgreement(t *testing.T) {
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 3))
	fTask := s.Go("follower", followerEcho(follower, 3))
	s.Go("client", client(k, []string{"a", "b", "c"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		// Let everything run, then tear down the follower so Run ends.
		for len(replies) < 3 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("unexpected divergences: %v", m.Divergences())
	}
	if strings.Join(replies, "") != "abc" {
		t.Fatalf("replies = %v", replies)
	}
	if leader.Role() != RoleSingleLeader {
		t.Fatalf("leader role after drop = %v", leader.Role())
	}
}

func TestFollowerOutputMismatchDiverges(t *testing.T) {
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)

	var got Divergence
	var fTask *sim.Task
	m.OnVerdict = func(v Verdict) {
		got = *v.Div
		ejectAll(m, "dropped")
		fTask.Kill()
	}
	var replies []string
	s.Go("leader", leaderEcho(k, leader, 2))
	fTask = s.Go("follower", leaderEchoLike(follower, 2, func(b []byte) []byte {
		return []byte("WRONG")
	}))
	s.Go("client", client(k, []string{"x", "y"}, &replies))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Reason == "" || !strings.Contains(got.Reason, "output mismatch") {
		t.Fatalf("divergence = %+v", got)
	}
	if got.Proc != "v1" {
		t.Fatalf("divergence proc = %q", got.Proc)
	}
	// The client is unaffected: the leader carried on.
	if strings.Join(replies, "") != "xy" {
		t.Fatalf("replies = %v", replies)
	}
}

func TestFollowerSyscallKindMismatchDiverges(t *testing.T) {
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var fTask *sim.Task
	diverged := false
	m.OnVerdict = func(Verdict) {
		diverged = true
		ejectAll(m, "dropped")
		fTask.Kill()
	}
	var replies []string
	s.Go("leader", leaderEcho(k, leader, 1))
	fTask = s.Go("follower", func(tk *sim.Task) {
		follower.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}})
		// Leader accepts next; follower instead issues clock -> mismatch.
		follower.Invoke(tk, sysabi.Call{Op: sysabi.OpClock})
	})
	s.Go("client", client(k, []string{"q"}, &replies))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !diverged {
		t.Fatal("expected divergence")
	}
}

func TestRewriteRuleMasksExpectedDivergence(t *testing.T) {
	// Leader echoes the raw payload; the follower (a "new version")
	// capitalises its first "a". A rewrite rule adjusts the expected write.
	rules := dsl.MustParse(`
rule "capital-a" {
    match write(fd, s, n) {
        emit write(fd, replace(s, "a", "A"), n);
    }
}
`)
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", rules, 0)
	var replies []string
	var fTask *sim.Task
	s.Go("leader", leaderEcho(k, leader, 2))
	fTask = s.Go("follower", leaderEchoLike(follower, 2, func(b []byte) []byte {
		return []byte(strings.Replace(string(b), "a", "A", 1))
	}))
	s.Go("client", client(k, []string{"ab", "cd"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(replies) < 2 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
	// Clients observe the leader's (old) behaviour.
	if strings.Join(replies, "") != "abcd" {
		t.Fatalf("replies = %v", replies)
	}
}

func TestFollowerReceivesLeaderData(t *testing.T) {
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var followerSaw []string
	var fTask *sim.Task
	var replies []string
	s.Go("leader", leaderEcho(k, leader, 2))
	fTask = s.Go("follower", func(tk *sim.Task) {
		lfd := int(follower.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(follower.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for i := 0; i < 2; i++ {
			r := follower.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			followerSaw = append(followerSaw, string(r.Data))
			follower.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
		}
	})
	s.Go("client", client(k, []string{"hello", "world"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(followerSaw) < 2 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if strings.Join(followerSaw, " ") != "hello world" {
		t.Fatalf("follower saw %v", followerSaw)
	}
}

// gatedClient sends the first batch, parks on gate, then sends the rest.
func gatedClient(k *vos.Kernel, first, second []string, replies *[]string, gate *sim.WaitQueue, atGate *bool) func(*sim.Task) {
	return func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{7, 0}}).Ret)
		send := func(msgs []string) {
			for _, msg := range msgs {
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(msg)})
				r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
				*replies = append(*replies, string(r.Data))
			}
		}
		send(first)
		*atGate = true
		tk.Block(gate)
		send(second)
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	}
}

func TestPromotionSwapsRoles(t *testing.T) {
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var replies []string
	var gate sim.WaitQueue
	atGate := false
	barrier := &atBarrier{Proc: leader}
	s.Go("leader", leaderEcho(k, barrier, 4))
	s.Go("follower", followerEcho(follower, 4))
	s.Go("client", gatedClient(k, []string{"1", "2"}, []string{"3", "4"}, &replies, &gate, &atGate))
	s.Go("orchestrator", func(tk *sim.Task) {
		for !atGate {
			tk.Sleep(time.Millisecond)
		}
		barrier.promote(PromoteDemote)
		gate.WakeAll(s)
		for len(replies) < 4 {
			tk.Sleep(time.Millisecond)
		}
		// Drop the demoted follower (old version): t6.
		old := m.Candidate()
		if old != leader {
			t.Errorf("demoted follower = %v, want original leader", old)
		}
		ejectAll(m, "dropped")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if strings.Join(replies, "") != "1234" {
		t.Fatalf("replies = %v (service interrupted across promotion)", replies)
	}
	if m.Leader() != follower || follower.Role() != RoleSingleLeader {
		t.Fatalf("final leader = %v role = %v", m.Leader().Name(), follower.Role())
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
}

func TestPromotionValidatesOldVersionAfterSwap(t *testing.T) {
	// After promotion the demoted old version validates the new leader's
	// stream; a mismatch must be attributed to the old version.
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var replies []string
	var diverged *Divergence
	var oldTask *sim.Task
	m.OnVerdict = func(v Verdict) {
		diverged = v.Div
		ejectAll(m, "dropped")
		// Kill the diverged demoted follower (the old version).
		oldTask.Kill()
	}
	var gate sim.WaitQueue
	atGate := false
	// Old version echoes payloads verbatim for the first 2 rounds but
	// would echo "OLD" afterwards; new version echoes verbatim always.
	n := 0
	barrier := &atBarrier{Proc: leader}
	oldTask = s.Go("v0", leaderEchoLike(barrier, 4, func(b []byte) []byte {
		n++
		if n > 2 {
			return []byte("OLD")
		}
		return b
	}))
	s.Go("v1", followerEcho(follower, 4))
	s.Go("client", gatedClient(k, []string{"1", "2"}, []string{"3", "4"}, &replies, &gate, &atGate))
	s.Go("orchestrator", func(tk *sim.Task) {
		for !atGate {
			tk.Sleep(time.Millisecond)
		}
		barrier.promote(PromoteDemote)
		gate.WakeAll(s)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if diverged == nil {
		t.Fatal("expected old-version divergence after promotion")
	}
	if diverged.Proc != "v0" {
		t.Fatalf("diverged proc = %q, want v0", diverged.Proc)
	}
	// Service continued under the new leader.
	if strings.Join(replies, "") != "1234" {
		t.Fatalf("replies = %v", replies)
	}
}

func TestPromoteNowWithDeadLeader(t *testing.T) {
	s, k, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var replies []string
	crashed := make([]sim.CrashInfo, 0)
	s.OnCrash = func(c sim.CrashInfo) { crashed = append(crashed, c) }

	// Leader crashes after 2 echoes (old-version bug).
	n := 0
	s.Go("v0", leaderEchoLike(leader, 4, func(b []byte) []byte {
		n++
		if n > 2 {
			panic("old-version bug")
		}
		return b
	}))
	s.Go("v1", followerEcho(follower, 4))
	s.Go("client", client(k, []string{"1", "2", "3", "4"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(crashed) == 0 {
			tk.Sleep(time.Millisecond)
		}
		// Old version died: promote the new version (jump to t6).
		m.Promote(tk, PromoteDemote)
		for len(replies) < 4 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Replies 1 and 2 come from the old leader; 3 and 4 from the
	// promoted new version. No data is lost.
	if strings.Join(replies, "") != "1234" {
		t.Fatalf("replies = %v", replies)
	}
	if m.Leader() != follower {
		t.Fatal("follower was not promoted")
	}
}

func TestLeaderBlocksOnFullBufferUntilDrained(t *testing.T) {
	s, k, m := world(2, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var replies []string
	var fTask *sim.Task
	s.Go("leader", leaderEcho(k, leader, 4))
	// Follower sleeps before starting, simulating a long update.
	fTask = s.Go("follower", func(tk *sim.Task) {
		tk.Sleep(50 * time.Millisecond)
		followerEcho(follower, 4)(tk)
	})
	s.Go("client", client(k, []string{"1", "2", "3", "4"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(replies) < 4 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Buffer().ProducerBlocked == 0 {
		t.Fatal("leader never blocked on the tiny buffer")
	}
	if strings.Join(replies, "") != "1234" {
		t.Fatalf("replies = %v", replies)
	}
}

// TestLentReadSurvivesLeaderParkInFullRing: a leader's read that offers
// no buffer is lent a view of the inbox, and the leader may park in a
// full ring's Put before the ring copies it. The peer writing into the
// drained inbox meanwhile must not reach the view: the leader's
// application, the recorded event and the follower's replayed read all
// hold what the kernel returned.
func TestLentReadSurvivesLeaderParkInFullRing(t *testing.T) {
	s, k, m := world(2, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var leaderSaw, followerSaw []string
	var fTask *sim.Task
	s.Go("leader", func(tk *sim.Task) {
		lfd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for i := 0; i < 2; i++ {
			blocked := m.Buffer().ProducerBlocked
			r := leader.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			if i == 0 && m.Buffer().ProducerBlocked == blocked {
				t.Error("the leader's first read did not park in Put")
			}
			leaderSaw = append(leaderSaw, string(r.Data))
		}
	})
	fTask = s.Go("follower", func(tk *sim.Task) {
		tk.Sleep(50 * time.Millisecond) // the ring fills: socket, accept
		lfd := int(follower.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(follower.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for i := 0; i < 2; i++ {
			r := follower.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			followerSaw = append(followerSaw, string(r.Data))
		}
	})
	s.Go("peer", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{7, 0}}).Ret)
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("first")})
		tk.Sleep(10 * time.Millisecond) // the leader has read it and parked
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("SECOND")})
	})
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(followerSaw) < 2 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(leaderSaw, " "); got != "first SECOND" {
		t.Errorf("the leader read %q, want \"first SECOND\"", got)
	}
	if got := strings.Join(followerSaw, " "); got != "first SECOND" {
		t.Errorf("the follower replayed %q, want \"first SECOND\"", got)
	}
	if m.Stats.Recorded < 4 || len(m.Divergences()) != 0 {
		t.Errorf("recorded %d events, divergences %v", m.Stats.Recorded, m.Divergences())
	}
}

func TestRecordCostCharged(t *testing.T) {
	s, k, m := world(64, Costs{Record: time.Microsecond})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	_ = follower
	var fTask *sim.Task
	var replies []string
	s.Go("leader", leaderEcho(k, leader, 1))
	fTask = s.Go("follower", followerEcho(follower, 1))
	s.Go("client", client(k, []string{"m"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(replies) < 1 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Leader issued 4 syscalls (socket, accept, read, write); each cost 1µs.
	if s.Now() < 4*time.Microsecond {
		t.Fatalf("Now = %v, record cost not charged", s.Now())
	}
}

func TestLockstepLeaderWaitsForFollower(t *testing.T) {
	s, k, m := world(64, Costs{})
	m.Lockstep = true
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var replies []string
	var fTask *sim.Task
	maxLag := 0
	s.Go("leader", func(tk *sim.Task) {
		lfd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for i := 0; i < 3; i++ {
			r := leader.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			if lag := m.Buffer().Len(); lag > maxLag {
				maxLag = lag
			}
			leader.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
		}
	})
	fTask = s.Go("follower", followerEcho(follower, 3))
	s.Go("client", client(k, []string{"1", "2", "3"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for len(replies) < 3 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
		fTask.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// In lockstep the leader never runs ahead: after each Invoke the
	// buffer has been drained before the next call starts.
	if maxLag > 1 {
		t.Fatalf("maxLag = %d, want <= 1 in lockstep", maxLag)
	}
}

func TestRoleString(t *testing.T) {
	if RoleSingleLeader.String() != "single-leader" || RoleLeader.String() != "leader" ||
		RoleFollower.String() != "follower" || Role(9).String() != "role(9)" {
		t.Fatal("Role.String mismatch")
	}
}

func TestDivergenceString(t *testing.T) {
	d := Divergence{Proc: "v1", Seq: 3, Expected: sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, FD: 1, Buf: []byte("a")}}, Got: sysabi.Call{Op: sysabi.OpRead, FD: 1}, Reason: "syscall mismatch"}
	s := d.String()
	if !strings.Contains(s, "v1") || !strings.Contains(s, "#3") {
		t.Fatalf("String = %q", s)
	}
}

func TestCompareMatrix(t *testing.T) {
	w := func(fd int, s string) sysabi.Call { return sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(s)} }
	cases := []struct {
		exp  sysabi.Call
		got  sysabi.Call
		want bool
	}{
		{w(1, "a"), w(1, "a"), true},
		{w(1, "a"), w(1, "b"), false},
		{w(1, "a"), w(2, "a"), false},
		{sysabi.Call{Op: sysabi.OpRead, FD: 1, Args: [2]int64{10, 0}}, sysabi.Call{Op: sysabi.OpRead, FD: 1, Args: [2]int64{999, 0}}, true}, // read size is incidental
		{sysabi.Call{Op: sysabi.OpRead, FD: 1}, sysabi.Call{Op: sysabi.OpRead, FD: 2}, false},
		{sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{80, 0}}, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{80, 0}}, true},
		{sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{80, 0}}, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{81, 0}}, false},
		{sysabi.Call{Op: sysabi.OpOpen, Path: "/a"}, sysabi.Call{Op: sysabi.OpOpen, Path: "/b"}, false},
		{sysabi.Call{Op: sysabi.OpClock}, sysabi.Call{Op: sysabi.OpClock}, true},
		{sysabi.Call{Op: sysabi.OpClock}, sysabi.Call{Op: sysabi.OpGetPID}, false},
	}
	for i, tc := range cases {
		_, ok := compare(sysabi.Event{Call: tc.exp}, tc.got)
		if ok != tc.want {
			t.Errorf("case %d: compare = %v, want %v", i, ok, tc.want)
		}
	}
}

// The flight recorder is the monitor's lifecycle log: a start, an attach
// and an eject each leave a role milestone.
func TestEventLogRecordsLifecycle(t *testing.T) {
	s, _, m := world(8, Costs{})
	rec := obs.New(s.Now, obs.Options{})
	m.SetRecorder(rec)
	m.StartSingleLeader("v0")
	m.AttachCandidate("v1", nil, 0)
	ejectAll(m, "dropped")
	var log []string
	for _, e := range rec.Milestones() {
		log = append(log, e.String())
	}
	for _, want := range []string{"single leader", "attached as follower", "dropped"} {
		if !strings.Contains(strings.Join(log, "\n"), want) {
			t.Errorf("lifecycle milestones missing %q:\n%s", want, strings.Join(log, "\n"))
		}
	}
}

// TestDemotedLeaderCursorOpensPastPromotion: at t4 the demoted leader's
// cursor opens behind the promotion entry, so the tail the process
// taking over still has to drain — a lagging follower's backlog, or the
// garbage a crashed leader left behind — is invisible to it: every entry
// it can take was recorded by the new leader.
func TestDemotedLeaderCursorOpensPastPromotion(t *testing.T) {
	t.Run("at the barrier", func(t *testing.T) {
		s, k, m := world(64, Costs{})
		leader := m.StartSingleLeader("v0")
		follower := m.AttachCandidate("v1", nil, 0)
		var replies []string
		var gate sim.WaitQueue
		atGate := false
		peeked := false
		barrier := &atBarrier{Proc: leader}
		// At the promotion the demoted process's cursor must be empty with
		// a backlog behind it; the process is then held until the new
		// leader records, so the first entry its cursor yields can be read.
		barrier.onPromote = func(tk *sim.Task) {
			if lag := leader.cursor.Lag(); lag != 0 {
				t.Errorf("demoted leader's cursor opened %d entries behind the stream's end", lag)
			}
			if n := m.Buffer().Len(); n < 2 {
				t.Errorf("ring holds %d entries at t4; scenario needs a backlog behind the promotion entry", n)
			}
			promoSeq := m.Buffer().NextSeq()
			for leader.cursor.Lag() == 0 && !leader.cursor.Closed() {
				tk.Sleep(time.Millisecond)
			}
			if e, ok := leader.cursor.Peek(); !ok || e.Kind != ringbuf.KindSyscall || e.Event.Seq != promoSeq {
				t.Errorf("demoted leader's next entry = %+v (ok=%v); want the new leader's first event #%d", e, ok, promoSeq)
			}
			peeked = true
		}
		s.Go("old", leaderEcho(k, barrier, 4))
		s.Go("new", variantEcho(follower, 4, 2*time.Millisecond)) // lags the leader
		s.Go("client", gatedClient(k, []string{"1", "2"}, []string{"3", "4"}, &replies, &gate, &atGate))
		s.Go("orchestrator", func(tk *sim.Task) {
			for !atGate {
				tk.Sleep(time.Millisecond)
			}
			barrier.promote(PromoteDemote)
			gate.WakeAll(s)
			for len(replies) < 4 {
				tk.Sleep(time.Millisecond)
			}
			ejectAll(m, "dropped")
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if strings.Join(replies, "") != "1234" || m.Leader() != follower || len(m.Divergences()) != 0 || !peeked {
			t.Fatalf("replies = %v, leader = %s, divergences = %v, cursor read = %v", replies, m.Leader().Name(), m.Divergences(), peeked)
		}
	})

	t.Run("leader-crash", func(t *testing.T) {
		s, k, m := world(64, Costs{})
		rec := obs.New(s.Now, obs.Options{})
		m.SetRecorder(rec)
		leader := m.StartSingleLeader("v0")
		follower := m.AttachCandidate("v1", nil, 0)
		var replies []string
		crashed := false
		s.OnCrash = func(sim.CrashInfo) {
			crashed = true
			m.MarkLeaderCrashed()
		}
		// The old version serves two echoes, reads the third request,
		// then wanders off into a syscall the new version never makes
		// and dies: the recorded stream ends in garbage.
		s.Go("old", func(tk *sim.Task) {
			lfd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
			fd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
			for i := 0; ; i++ {
				r := leader.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
				if i == 2 {
					leader.Invoke(tk, sysabi.Call{Op: sysabi.OpGetPID})
					panic("old-version bug")
				}
				leader.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
			}
		})
		s.Go("new", variantEcho(follower, 4, 2*time.Millisecond))
		s.Go("client", client(k, []string{"1", "2", "3", "4"}, &replies))
		s.Go("orchestrator", func(tk *sim.Task) {
			for !crashed {
				tk.Sleep(time.Millisecond)
			}
			m.Promote(tk, PromoteDemote)
			if m.Buffer().Len() < 2 {
				t.Errorf("ring holds %d entries at t4; scenario needs a tail behind the promotion entry", m.Buffer().Len())
			}
			if lag := leader.cursor.Lag(); lag != 0 {
				t.Errorf("demoted leader's cursor opened %d entries behind the stream's end", lag)
			}
			promoSeq := m.Buffer().NextSeq()
			for len(replies) < 4 {
				tk.Sleep(time.Millisecond)
			}
			// The dead process never reads, so its cursor still holds
			// everything it could ever have seen: the new leader's stream,
			// from its first recorded event.
			if e, ok := leader.cursor.Peek(); !ok || e.Kind != ringbuf.KindSyscall || e.Event.Seq != promoSeq {
				t.Errorf("demoted leader's next entry = %+v (ok=%v); want the new leader's first event #%d", e, ok, promoSeq)
			}
			ejectAll(m, "dropped")
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if strings.Join(replies, "") != "1234" || m.Leader() != follower || len(m.Divergences()) != 0 {
			t.Fatalf("replies = %v, leader = %s, divergences = %v", replies, m.Leader().Name(), m.Divergences())
		}
		if log := rec.FormatTimeline(); !strings.Contains(log, "crashed leader's stream truncated") {
			t.Fatalf("the garbage tail was never discarded; scenario incomplete:\n%s", log)
		}
	})
}
