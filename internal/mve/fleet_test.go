package mve

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// variantEcho replays the echo program through a fleet variant with an
// optional per-iteration delay, modelling variants that drain the shared
// stream at different rates.
func variantEcho(p *Proc, iterations int, delay time.Duration) func(*sim.Task) {
	return func(tk *sim.Task) {
		lfd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for i := 0; i < iterations; i++ {
			if delay > 0 {
				tk.Sleep(delay)
			}
			r := p.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			if r.Ret == 0 {
				return
			}
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
		}
	}
}

func TestFleetSteadyStateValidation(t *testing.T) {
	s, k, m := world(256, Costs{})
	leader := m.StartSingleLeader("v0")
	names := []string{"r1", "r2", "r3"}
	var procs []*Proc
	for _, n := range names {
		procs = append(procs, m.AttachVariant(n, nil))
	}
	if leader.Role() != RoleLeader {
		t.Fatalf("leader role = %v after first attach", leader.Role())
	}

	var replies []string
	done := 0
	s.Go("leader", leaderEcho(k, leader, 3))
	for _, v := range procs {
		v := v
		s.Go(v.Name(), func(tk *sim.Task) {
			followerEcho(v, 3)(tk)
			done++
		})
	}
	s.Go("client", client(k, []string{"a", "b", "c"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for done < len(procs) {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "test teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if strings.Join(replies, "") != "abc" {
		t.Fatalf("replies = %v", replies)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
	// Each of the 3 variants validated all 8 leader events
	// (socket, accept, 3×(read+write)).
	if m.Stats.Replayed != 3*8 {
		t.Fatalf("Replayed = %d, want 24", m.Stats.Replayed)
	}
	if m.Buffer().Len() != 0 {
		t.Fatalf("ring not drained: %d pending", m.Buffer().Len())
	}
}

func TestFleetMinorityDivergenceEjected(t *testing.T) {
	s, k, m := world(256, Costs{})
	leader := m.StartSingleLeader("v0")
	good1 := m.AttachVariant("r1", nil)
	bad := m.AttachVariant("r2", nil)
	good2 := m.AttachVariant("r3", nil)

	var verdicts []Verdict
	tasks := map[*Proc]*sim.Task{}
	m.OnVerdict = func(v Verdict) {
		verdicts = append(verdicts, v)
		if v.Action == VerdictEject {
			m.EjectVariant(v.Proc, v.Cause)
			tasks[v.Proc].Kill()
		}
	}

	var replies []string
	done := 0
	s.Go("leader", leaderEcho(k, leader, 3))
	for _, v := range []*Proc{good1, good2} {
		v := v
		tasks[v] = s.Go(v.Name(), func(tk *sim.Task) {
			followerEcho(v, 3)(tk)
			done++
		})
	}
	tasks[bad] = s.Go("r2", leaderEchoLike(bad, 3, func(b []byte) []byte {
		return []byte("WRONG")
	}))
	s.Go("client", client(k, []string{"a", "b", "c"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for done < 2 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "test teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("verdicts = %v", verdicts)
	}
	v := verdicts[0]
	if v.Proc != bad || v.Cause != "divergence" || v.Action != VerdictEject {
		t.Fatalf("verdict = %+v", v)
	}
	if v.Failed != 1 || v.Total != 3 {
		t.Fatalf("quorum counts = %d failed / %d total", v.Failed, v.Total)
	}
	if v.Div == nil || !strings.Contains(v.Div.Reason, "output mismatch") {
		t.Fatalf("verdict divergence = %+v", v.Div)
	}
	// Clients never noticed; the healthy majority finished validating.
	if strings.Join(replies, "") != "abc" {
		t.Fatalf("replies = %v", replies)
	}
	if !bad.Failed() || good1.Failed() || good2.Failed() {
		t.Fatal("failure flags wrong")
	}
}

func TestFleetMajorityDivergenceAborts(t *testing.T) {
	s, k, m := world(256, Costs{})
	leader := m.StartSingleLeader("v0")
	good := m.AttachVariant("r1", nil)
	bad1 := m.AttachVariant("r2", nil)
	bad2 := m.AttachVariant("r3", nil)

	var verdicts []Verdict
	var badTasks []*sim.Task
	var goodTask *sim.Task
	m.OnVerdict = func(v Verdict) {
		verdicts = append(verdicts, v)
		// Model a controller that defers eject/respawn to the next leader
		// barrier: the first failed variant stays attached (parked), so the
		// second failure sees 2 of 3 failed and the quorum flips to abort.
		if v.Action == VerdictAbort {
			ejectAll(m, v.String())
			for _, tk := range badTasks {
				tk.Kill()
			}
			goodTask.Kill()
		}
	}

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 3))
	goodTask = s.Go("r1", followerEcho(good, 3))
	for _, v := range []*Proc{bad1, bad2} {
		v := v
		badTasks = append(badTasks, s.Go(v.Name(), leaderEchoLike(v, 3, func(b []byte) []byte {
			return []byte("WRONG")
		})))
	}
	s.Go("client", client(k, []string{"a", "b", "c"}, &replies))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %v", verdicts)
	}
	if verdicts[0].Action != VerdictEject || verdicts[0].Failed != 1 {
		t.Fatalf("first verdict = %+v", verdicts[0])
	}
	if verdicts[1].Action != VerdictAbort || verdicts[1].Failed != 2 || verdicts[1].Total != 3 {
		t.Fatalf("second verdict = %+v", verdicts[1])
	}
	// The abort tore the fleet down and the leader reverted to plain
	// interception — exactly like a duo rollback, invisible to clients.
	if leader.Role() != RoleSingleLeader {
		t.Fatalf("leader role after abort = %v", leader.Role())
	}
	if len(m.Variants()) != 0 {
		t.Fatalf("variants after abort: %d", len(m.Variants()))
	}
	if strings.Join(replies, "") != "abc" {
		t.Fatalf("replies = %v", replies)
	}
}

func TestFleetCrashedVariantEjected(t *testing.T) {
	s, k, m := world(256, Costs{})
	leader := m.StartSingleLeader("v0")
	healthy := m.AttachVariant("r1", nil)
	doomed := m.AttachVariant("r2", nil)

	var replies []string
	done := false
	s.Go("leader", leaderEcho(k, leader, 4))
	s.Go("r1", func(tk *sim.Task) {
		followerEcho(healthy, 4)(tk)
		done = true
	})
	// r2 "crashes" (its task dies) after validating the first exchange.
	doomedTask := s.Go("r2", func(tk *sim.Task) {
		lfd := int(doomed.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(doomed.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		r := doomed.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
		doomed.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
		panic("variant bug")
	})
	var crashes []sim.CrashInfo
	var verdict Verdict
	s.OnCrash = func(c sim.CrashInfo) {
		crashes = append(crashes, c)
		// The controller maps the crashed task to its variant and asks the
		// quorum: 1 of 2 failed is a minority, so the variant is ejected
		// and the update survives.
		verdict = m.FailVariant(doomed, "crash")
		if verdict.Action == VerdictEject {
			m.EjectVariant(doomed, "crash")
			doomedTask.Kill()
		}
	}
	s.Go("client", client(k, []string{"a", "b", "c", "d"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for !done {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "test teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(crashes) != 1 {
		t.Fatalf("crashes = %v", crashes)
	}
	if verdict.Action != VerdictEject || verdict.Failed != 1 || verdict.Total != 2 {
		t.Fatalf("verdict = %+v", verdict)
	}
	// The survivor kept validating the whole stream; clients saw nothing.
	if strings.Join(replies, "") != "abcd" {
		t.Fatalf("replies = %v", replies)
	}
	if healthy.Failed() || len(m.Divergences()) != 0 {
		t.Fatal("healthy variant affected by sibling crash")
	}
}

func TestCanaryBudgetAbsorbsDivergences(t *testing.T) {
	s, k, m := world(256, Costs{})
	leader := m.StartSingleLeader("v0")
	replica := m.AttachVariant("r1", nil)
	canary := m.AttachCandidate("canary", nil, 3)

	verdicts := 0
	m.OnVerdict = func(Verdict) { verdicts++ }

	var replies []string
	done := 0
	s.Go("leader", leaderEcho(k, leader, 3))
	s.Go("r1", func(tk *sim.Task) {
		followerEcho(replica, 3)(tk)
		done++
	})
	// The canary (new version) disagrees on every response, but the budget
	// covers all three: each mismatch is absorbed and it keeps validating.
	s.Go("canary", func(tk *sim.Task) {
		leaderEchoLike(canary, 3, func(b []byte) []byte {
			return []byte(strings.ToUpper(string(b)))
		})(tk)
		done++
	})
	s.Go("client", client(k, []string{"x", "y", "z"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for done < 2 {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "test teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if verdicts != 0 {
		t.Fatalf("verdicts = %d on an in-budget canary", verdicts)
	}
	if canary.VariantDivergences() != 3 || canary.Failed() {
		t.Fatalf("canary divergences = %d failed = %v", canary.VariantDivergences(), canary.Failed())
	}
	if replica.VariantDivergences() != 0 {
		t.Fatalf("replica divergences = %d", replica.VariantDivergences())
	}
	// Clients observe the leader's (old-version) behaviour throughout.
	if strings.Join(replies, "") != "xyz" {
		t.Fatalf("replies = %v", replies)
	}
}

func TestCanaryDivergenceStormRollsBack(t *testing.T) {
	s, k, m := world(256, Costs{})
	leader := m.StartSingleLeader("v0")
	replica := m.AttachVariant("r1", nil)
	canary := m.AttachCandidate("canary", nil, 1)

	var verdicts []Verdict
	var canaryTask *sim.Task
	m.OnVerdict = func(v Verdict) {
		verdicts = append(verdicts, v)
		if v.Action == VerdictRollbackCandidate {
			m.EjectVariant(canary, "canary rollback")
			canaryTask.Kill()
		}
	}

	var replies []string
	done := false
	s.Go("leader", leaderEcho(k, leader, 3))
	s.Go("r1", func(tk *sim.Task) {
		followerEcho(replica, 3)(tk)
		done = true
	})
	// Budget 1, three divergences: the second one is fatal.
	canaryTask = s.Go("canary", leaderEchoLike(canary, 3, func(b []byte) []byte {
		return []byte("STORM")
	}))
	s.Go("client", client(k, []string{"x", "y", "z"}, &replies))
	s.Go("orchestrator", func(tk *sim.Task) {
		for !done {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "test teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(verdicts) != 1 {
		t.Fatalf("verdicts = %v", verdicts)
	}
	v := verdicts[0]
	// A canary failure never enters the quorum: the verdict is a rollback
	// of the update, not an indictment of the leader.
	if v.Action != VerdictRollbackCandidate || v.Proc != canary {
		t.Fatalf("verdict = %+v", v)
	}
	if canary.VariantDivergences() != 2 {
		t.Fatalf("canary divergences = %d, want 2 (1 absorbed + 1 fatal)", canary.VariantDivergences())
	}
	if m.Candidate() != nil {
		t.Fatal("canary designation survived rollback")
	}
	// The old-version fleet is intact and clients never noticed.
	if replica.Failed() || strings.Join(replies, "") != "xyz" {
		t.Fatalf("replica failed=%v replies=%v", replica.Failed(), replies)
	}
}

func TestRetiringPromotionCanaryTakesOver(t *testing.T) {
	s, k, m := world(256, Costs{})
	leader := m.StartSingleLeader("v0")
	replica := m.AttachVariant("r1", nil)
	canary := m.AttachCandidate("canary", nil, 0)

	var replies []string
	var gate sim.WaitQueue
	atGate := false
	replicaDone := false
	// The old leader serves the first two requests, then its program
	// completes (full quiescence — the DSU barrier the controller would
	// arrange). The canary validates those two, then keeps going: after
	// promotion its remaining iterations execute natively.
	s.Go("v0", leaderEcho(k, leader, 2))
	s.Go("r1", func(tk *sim.Task) {
		followerEcho(replica, 2)(tk)
		replicaDone = true
	})
	s.Go("canary", leaderEchoLike(canary, 4, nil))
	s.Go("client", gatedClient(k, []string{"1", "2"}, []string{"3", "4"}, &replies, &gate, &atGate))
	s.Go("orchestrator", func(tk *sim.Task) {
		for !atGate || !replicaDone || canary.VariantLag() > 0 {
			tk.Sleep(time.Millisecond)
		}
		// The replicas validated the old version: the canary alone consumes
		// the tail.
		m.EjectVariant(replica, "superseded by canary promotion")
		if !m.Promote(tk, PromoteRetire) {
			t.Error("Promote refused a healthy canary")
		}
		gate.WakeAll(s)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// No request was lost across the switch: 1-2 from the old leader,
	// 3-4 from the promoted canary.
	if strings.Join(replies, "") != "1234" {
		t.Fatalf("replies = %v (service interrupted across promotion)", replies)
	}
	if m.Leader() != canary || canary.Role() != RoleSingleLeader {
		t.Fatalf("leader = %v role = %v", m.Leader().Name(), canary.Role())
	}
	if leader.Role() != RoleRetired {
		t.Fatalf("old leader role = %v, want retired", leader.Role())
	}
	if len(m.Variants()) != 0 || m.Candidate() != nil {
		t.Fatal("fleet not cleared after promotion")
	}
	if m.Stats.Promotions != 1 {
		t.Fatalf("Promotions = %d", m.Stats.Promotions)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
}

func TestPromoteRefusesFailedOrMissingCandidate(t *testing.T) {
	s, _, m := world(64, Costs{})
	m.StartSingleLeader("v0")
	m.AttachVariant("r1", nil)
	s.Go("driver", func(tk *sim.Task) {
		for _, policy := range []PromotePolicy{PromoteDemote, PromoteRetire} {
			if m.Promote(tk, policy) {
				t.Errorf("Promote(%d) succeeded without a candidate", policy)
			}
		}
		m.FailVariant(m.AttachCandidate("canary", nil, 0), "divergence")
		for _, policy := range []PromotePolicy{PromoteDemote, PromoteRetire} {
			if m.Promote(tk, policy) {
				t.Errorf("Promote(%d) succeeded with a failed candidate", policy)
			}
		}
		ejectAll(m, "teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFleetWatchdogIsolatesStalledVariant is the regression test for
// per-variant stall detection: two variants drain the same recorded
// stream at very different rates. The hung one must be the one flagged;
// the slow-but-progressing one must not, because every partial drain
// resets its own timer.
func TestFleetWatchdogIsolatesStalledVariant(t *testing.T) {
	s, k, m := world(1024, Costs{})
	m.WatchdogDeadline = 50 * time.Millisecond
	leader := m.StartSingleLeader("v0")

	var stalls []Stall
	tasks := map[*Proc]*sim.Task{}
	m.OnStall = func(st Stall) {
		stalls = append(stalls, st)
		m.FailVariant(st.Proc, "stall")
		m.EjectVariant(st.Proc, "stall")
		tasks[st.Proc].Kill()
	}
	slow := m.AttachVariant("slow", nil)
	hung := m.AttachVariant("hung", nil)

	slowDone := false
	tasks[slow] = s.Go("slow", func(tk *sim.Task) {
		// 20ms per exchange: far behind the leader, but each drain ticks
		// its progress counter, so the watchdog timer keeps resetting.
		variantEcho(slow, 6, 20*time.Millisecond)(tk)
		slowDone = true
	})
	// Hangs after 4 calls (socket, accept, first read+write) with the
	// rest of the stream pending — the classic between-syscalls hang.
	tasks[hung] = s.Go("hung", stallingFollower(hung, 4))

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 6))
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{7, 0}}).Ret)
		for _, msg := range []string{"a", "b", "c", "d", "e", "f"} {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(msg)})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			replies = append(replies, string(r.Data))
			tk.Sleep(5 * time.Millisecond)
		}
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	s.Go("orchestrator", func(tk *sim.Task) {
		for !slowDone {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "test teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(stalls) != 1 {
		t.Fatalf("stalls = %v", stalls)
	}
	if stalls[0].Proc != hung || stalls[0].Reason != "no-progress" {
		t.Fatalf("stall = %+v", stalls[0])
	}
	// The slow variant was never flagged and finished the whole stream.
	if slow.Failed() || slow.VariantLag() != 0 {
		t.Fatalf("slow variant: failed=%v lag=%d", slow.Failed(), slow.VariantLag())
	}
	if strings.Join(replies, "") != "abcdef" {
		t.Fatalf("replies = %v", replies)
	}
	if m.Stats.Stalls != 1 {
		t.Fatalf("Stalls = %d", m.Stats.Stalls)
	}
}

// TestFleetEjectFreesBlockedLeader: the leader parks on the full ring
// behind a dead variant's retention; ejecting that variant closes its
// cursor, releases the retention, and the leader resumes. Clients see
// every reply.
func TestFleetEjectFreesBlockedLeader(t *testing.T) {
	s, k, m := world(2, Costs{})
	leader := m.StartSingleLeader("v0")
	healthy := m.AttachVariant("r1", nil)
	stuck := m.AttachVariant("r2", nil)

	healthyDone := false
	s.Go("r1", func(tk *sim.Task) {
		followerEcho(healthy, 4)(tk)
		healthyDone = true
	})
	stuckTask := s.Go("r2", stallingFollower(stuck, 0)) // never consumes

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 4))
	s.Go("client", client(k, []string{"w", "x", "y", "z"}, &replies))
	s.Go("ejector", func(tk *sim.Task) {
		// Give the ring time to fill behind the stuck cursor, then eject.
		tk.Sleep(10 * time.Millisecond)
		m.EjectVariant(stuck, "stuck")
		stuckTask.Kill()
		for !healthyDone {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "test teardown")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Buffer().ProducerBlocked == 0 {
		t.Fatal("leader never blocked; scenario did not exercise the rescue")
	}
	if strings.Join(replies, "") != "wxyz" {
		t.Fatalf("replies = %v (leader stayed wedged)", replies)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
}

func TestAttachVariantGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	_, _, m := world(16, Costs{})
	mustPanic("no leader", func() { m.AttachVariant("r1", nil) })
	m.StartSingleLeader("v0")
	m.AttachCandidate("v1", nil, 0)
	m.AttachVariant("r1", nil) // replicas and a candidate share the one set
	mustPanic("second candidate", func() { m.AttachCandidate("v2", nil, 0) })
	if got := len(m.Variants()); got != 2 {
		t.Fatalf("%d attached, want 2", got)
	}
}

func TestVerdictStrings(t *testing.T) {
	if VerdictEject.String() != "eject" || VerdictAbort.String() != "abort" ||
		VerdictRollbackCandidate.String() != "rollback-candidate" {
		t.Fatal("VerdictAction.String mismatch")
	}
	if VerdictAction(9).String() != "action(9)" {
		t.Fatal("unknown action formatting")
	}
	v := Verdict{Proc: &Proc{name: "r2"}, Cause: "crash", Failed: 1, Total: 3, Action: VerdictEject}
	if got := v.String(); !strings.Contains(got, "r2") || !strings.Contains(got, "eject") ||
		!strings.Contains(got, "1/3") {
		t.Fatalf("Verdict.String = %q", got)
	}
}

// TestFleetDiscardPolicyLeavesATrace: under FullDiscard a fleet's leader
// never blocks behind a stuck variant, and the entry it could not record
// is not lost silently — it is counted in Dropped, carried by the stall
// raised for the laggiest variant, and visible as a ring.discard
// milestone in the timeline.
func TestFleetDiscardPolicyLeavesATrace(t *testing.T) {
	s, k, m := world(2, Costs{})
	rec := obs.New(s.Now, obs.Options{})
	m.SetRecorder(rec)
	m.FullPolicy = FullDiscard
	leader := m.StartSingleLeader("v0")
	stuck := m.AttachVariant("r1", nil)
	healthy := m.AttachVariant("r2", nil)

	var stall Stall
	var tasks []*sim.Task
	m.OnStall = func(st Stall) {
		stall = st
		// The dropped entry is missing from every variant's stream.
		ejectAll(m, "entry dropped under the discard policy")
		for _, tk := range tasks {
			tk.Kill()
		}
	}
	tasks = append(tasks, s.Go("r1", stallingFollower(stuck, 0))) // never consumes
	tasks = append(tasks, s.Go("r2", followerEcho(healthy, 4)))

	var replies []string
	s.Go("leader", leaderEcho(k, leader, 4))
	s.Go("client", client(k, []string{"p", "q", "r", "s"}, &replies))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stall.Reason != "buffer-full" || stall.Proc != stuck || stall.Pending != 2 || stall.Dropped != 1 {
		t.Fatalf("stall = %+v; want buffer-full for r1 with 2 pending, 1 dropped", stall)
	}
	if b := m.Buffer(); b.Dropped != 1 || b.ProducerBlocked != 0 {
		t.Fatalf("Dropped = %d, ProducerBlocked = %d; want 1, 0", b.Dropped, b.ProducerBlocked)
	}
	if got := rec.Counter(obs.CRingDropped); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CRingDropped, got)
	}
	discards := 0
	for _, e := range rec.Milestones() {
		if e.Kind == obs.KindRingDiscard {
			discards++
			if !strings.Contains(e.Detail, "dropped (1 total, occ 2/2)") {
				t.Errorf("ring.discard detail = %q", e.Detail)
			}
		}
	}
	if discards != 1 {
		t.Fatalf("timeline has %d ring.discard milestones, want 1:\n%s", discards, rec.FormatTimeline())
	}
	if strings.Join(replies, "") != "pqrs" {
		t.Fatalf("replies = %v", replies)
	}
}
