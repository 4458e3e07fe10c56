package mve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/sim"
)

// TestOneProtocolUnderBothPolicies walks the same attach → fault →
// promote → detach lifecycle through every cell of {demote, retire} ×
// {the candidate alone, the candidate beside two replicas} × {no fault,
// the candidate diverges, stalls, diverges in its backlog after the
// promotion entry, the leader crashes mid-request}. Clients must see
// every reply, and whoever ends up leading must lead alone once the set
// is empty. A stand-in for the controller applies the verdicts.
func TestOneProtocolUnderBothPolicies(t *testing.T) {
	policies := map[PromotePolicy]string{PromoteDemote: "demote", PromoteRetire: "retire"}
	for _, policy := range []PromotePolicy{PromoteDemote, PromoteRetire} {
		for _, k := range []int{1, 3} {
			for _, fault := range []string{"none", "diverge", "stall", "diverge-in-tail", "crash-truncate"} {
				t.Run(fmt.Sprintf("%s/K%d/%s", policies[policy], k, fault), func(t *testing.T) {
					runProtocolCell(t, policy, k, fault)
				})
			}
		}
	}
}

func runProtocolCell(t *testing.T, policy PromotePolicy, k int, fault string) {
	s, kern, m := world(64, Costs{})
	m.WatchdogDeadline = 20 * time.Millisecond
	leader := m.StartSingleLeader("v0")
	barrier := &atBarrier{Proc: leader}
	var replicas []*Proc
	for i := 1; i < k; i++ {
		replicas = append(replicas, m.AttachVariant(fmt.Sprintf("r%d", i), nil))
	}
	cand := m.AttachCandidate("v1", nil, 0)

	tasks := map[string]*sim.Task{}
	// supersede is the policy owner's half of a retiring promotion: the
	// replicas validated the old version and do not see the new one.
	supersede := func() {
		for _, r := range replicas {
			if policy == PromoteRetire {
				m.EjectVariant(r, "superseded")
			}
		}
	}
	apply := func(v Verdict) {
		if v.Action != VerdictRollbackCandidate {
			t.Errorf("verdict = %v, want the candidate's", v)
		}
		if midPromotion := leader.Role() == RoleFollower || leader.Role() == RoleRetired; midPromotion != (fault == "diverge-in-tail") {
			t.Errorf("verdict with the leader %v: the scenario missed its window", leader.Role())
		}
		m.EjectVariant(m.VariantByName(v.Proc), v.Cause)
		tasks[v.Proc].Kill()
	}
	m.OnVerdict = apply
	m.OnStall = func(st Stall) {
		if p := m.VariantByName(st.Proc); p != nil && !p.Failed() {
			apply(m.FailVariant(p, "stall"))
		}
	}
	s.OnCrash = func(sim.CrashInfo) {
		m.MarkLeaderCrashed()
		s.Go("promote-on-crash", func(tk *sim.Task) {
			supersede()
			m.Promote(tk, policy)
		})
	}

	// The programs: an echo server, four requests. The leader dies inside
	// the third in the crash cell; the candidate misbehaves on the second
	// reply in the others — at once, or (paced behind the leader) only
	// after the promotion entry is in the ring.
	n := 0
	tasks["v0"] = s.Go("v0", leaderEchoLike(barrier, 4, func(b []byte) []byte {
		if n++; fault == "crash-truncate" && n > 2 {
			panic("old-version bug")
		}
		return b
	}))
	for _, r := range replicas {
		tasks[r.Name()] = s.Go(r.Name(), followerEcho(r, 4))
	}
	wrongSecond, sent := func(b []byte) []byte {
		if string(b) == "2" {
			return []byte("WRONG")
		}
		return b
	}, 0
	switch fault {
	case "diverge":
		tasks["v1"] = s.Go("v1", leaderEchoLike(cand, 4, wrongSecond))
	case "stall":
		tasks["v1"] = s.Go("v1", stallingFollower(cand, 4))
	case "diverge-in-tail":
		tasks["v1"] = s.Go("v1", func(tk *sim.Task) {
			leaderEchoLike(cand, 4, func(b []byte) []byte {
				if sent++; sent == 2 {
					tk.Sleep(10 * time.Millisecond)
				}
				return wrongSecond(b)
			})(tk)
		})
	default:
		tasks["v1"] = s.Go("v1", leaderEchoLike(cand, 4, nil))
	}

	var replies []string
	var gate sim.WaitQueue
	atGate := false
	s.Go("client", gatedClient(kern, []string{"1", "2"}, []string{"3", "4"}, &replies, &gate, &atGate))
	rolledBack := fault == "diverge" || fault == "stall" || fault == "diverge-in-tail"
	s.Go("orchestrator", func(tk *sim.Task) {
		for !atGate || (fault != "diverge-in-tail" && rolledBack && m.Candidate() != nil) {
			tk.Sleep(time.Millisecond)
		}
		switch fault {
		case "none", "diverge-in-tail":
			supersede()
			barrier.promote(policy)
		case "diverge", "stall":
			if m.Promote(tk, policy) {
				t.Error("Promote succeeded with the candidate gone")
			}
		}
		gate.WakeAll(s)
		for len(replies) < 4 {
			tk.Sleep(time.Millisecond)
		}
		tk.Sleep(5 * time.Millisecond) // the consumers validate the tail
		want := map[PromotePolicy]Role{PromoteDemote: RoleFollower, PromoteRetire: RoleRetired}[policy]
		if rolledBack {
			// The old leader leads on: recording while replicas validate it.
			if want = RoleSingleLeader; len(m.Variants()) > 0 {
				want = RoleLeader
			}
		}
		if leader.Role() != want {
			t.Errorf("old leader's role = %v with %d attached, want %v", leader.Role(), len(m.Variants()), want)
		}
		ejectAll(m, "test teardown")
		for _, p := range append([]*Proc{leader, cand}, replicas...) {
			tasks[p.Name()].Kill()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if strings.Join(replies, "") != "1234" {
		t.Errorf("replies = %v", replies)
	}
	wantLeader, wantPromotions, wantDivs, wantStalls := cand, int64(1), 0, int64(0)
	if rolledBack {
		wantLeader, wantPromotions = leader, 0
	}
	switch fault {
	case "diverge", "diverge-in-tail":
		wantDivs = 1
	case "stall":
		wantStalls = 1
	}
	if m.Leader() != wantLeader || m.Stats.Promotions != wantPromotions || len(m.Divergences()) != wantDivs || m.Stats.Stalls != wantStalls {
		t.Errorf("leader = %s after %d promotions, %d divergences, %d stalls; want %s after %d, %d, %d",
			m.Leader().Name(), m.Stats.Promotions, len(m.Divergences()), m.Stats.Stalls, wantLeader.Name(), wantPromotions, wantDivs, wantStalls)
	}
	if role := m.Leader().Role(); role != RoleSingleLeader || len(m.Variants()) != 0 || m.Candidate() != nil || !m.Buffer().Closed() {
		t.Errorf("after the last detach: leader %v, %d attached, candidate %v, ring closed %v",
			role, len(m.Variants()), m.Candidate(), m.Buffer().Closed())
	}
}
