package mve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

func mustRules(t *testing.T, src string) *dsl.RuleSet {
	t.Helper()
	return dsl.MustParse(src)
}

// twoThreadApp runs two logical threads through a proc. Each thread
// writes its tag to a shared "journal" connection; the follower's
// journal order must match the leader's — the cross-thread global-order
// guarantee.
func twoThreadApp(p *Proc, rounds int, journalFD func() int, order *[]string) (spawn func(s *sim.Scheduler) []*sim.Task) {
	return func(s *sim.Scheduler) []*sim.Task {
		var tasks []*sim.Task
		for tid := 0; tid < 2; tid++ {
			tid := tid
			tasks = append(tasks, s.Go(fmt.Sprintf("%s-t%d", p.Name(), tid), func(tk *sim.Task) {
				for i := 0; i < rounds; i++ {
					tag := fmt.Sprintf("%d.%d", tid, i)
					p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: journalFD(), Buf: []byte(tag + ";"), TID: tid})
					if order != nil {
						*order = append(*order, tag)
					}
					if tid == 0 {
						tk.Yield() // skew the interleaving
					}
				}
			}))
		}
		return tasks
	}
}

// TestGlobalOrderEnforcedAcrossThreads: the follower's two threads must
// replay writes in the leader's global interleaving, even though their
// own scheduler order differs.
func TestGlobalOrderEnforcedAcrossThreads(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	m := New(k, 64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)

	// A journal connection both versions write to (fd from the leader's
	// native accept; the follower sees the same fd via replay).
	var jfd int
	var leaderOrder, followerOrder []string
	s.Go("setup", func(tk *sim.Task) {
		lfd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
		_ = follower // the follower replays socket+accept below
		jfd = int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		// Follower issues the same prologue on its own task.
		s.Go("f-setup", func(ftk *sim.Task) {
			flfd := int(follower.Invoke(ftk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
			follower.Invoke(ftk, sysabi.Call{Op: sysabi.OpAccept, FD: flfd})
			// Spawn the follower's worker threads only after its fd
			// table is aligned.
			twoThreadApp(follower, 5, func() int { return jfd }, &followerOrder)(s)
		})
		twoThreadApp(leader, 5, func() int { return jfd }, &leaderOrder)(s)
	})
	s.Go("client", func(tk *sim.Task) {
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9, 0}})
	})
	s.Go("teardown", func(tk *sim.Task) {
		for len(followerOrder) < 10 {
			tk.Sleep(time.Millisecond)
			if tk.Now() > 5*time.Second {
				break
			}
		}
		ejectAll(m, "dropped")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
	if len(leaderOrder) != 10 || len(followerOrder) != 10 {
		t.Fatalf("orders incomplete: leader %d, follower %d", len(leaderOrder), len(followerOrder))
	}
	if strings.Join(leaderOrder, ",") != strings.Join(followerOrder, ",") {
		t.Fatalf("follower order diverged from leader's global order:\n  leader:   %v\n  follower: %v",
			leaderOrder, followerOrder)
	}
}

// TestCrossThreadMismatchDetected: if a follower thread writes different
// bytes than its leader counterpart, the divergence is detected even in
// a two-thread interleaving.
func TestCrossThreadMismatchDetected(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	m := New(k, 64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", nil, 0)
	var diverged *Divergence
	var ftasks []*sim.Task
	m.OnVerdict = func(v Verdict) {
		diverged = v.Div
		ejectAll(m, "dropped")
	}
	var jfd int
	s.Go("leader", func(tk *sim.Task) {
		lfd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
		jfd = int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for tid := 0; tid < 2; tid++ {
			tid := tid
			s.Go(fmt.Sprintf("l-t%d", tid), func(tk2 *sim.Task) {
				for i := 0; i < 3; i++ {
					leader.Invoke(tk2, sysabi.Call{Op: sysabi.OpWrite, FD: jfd,
						Buf: []byte(fmt.Sprintf("L%d.%d;", tid, i)), TID: tid})
				}
			})
		}
	})
	s.Go("follower", func(tk *sim.Task) {
		flfd := int(follower.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
		follower.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: flfd})
		for tid := 0; tid < 2; tid++ {
			tid := tid
			ftasks = append(ftasks, s.Go(fmt.Sprintf("f-t%d", tid), func(tk2 *sim.Task) {
				for i := 0; i < 3; i++ {
					payload := fmt.Sprintf("L%d.%d;", tid, i)
					if tid == 1 && i == 2 {
						payload = "CORRUPT;"
					}
					follower.Invoke(tk2, sysabi.Call{Op: sysabi.OpWrite, FD: jfd,
						Buf: []byte(payload), TID: tid})
				}
			}))
		}
	})
	s.Go("client", func(tk *sim.Task) {
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9, 0}})
	})
	s.Go("reaper", func(tk *sim.Task) {
		for diverged == nil && tk.Now() < 5*time.Second {
			tk.Sleep(time.Millisecond)
		}
		for _, ft := range ftasks {
			ft.Kill()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if diverged == nil {
		t.Fatal("corrupted thread-1 write not detected")
	}
	if !strings.Contains(diverged.Reason, "output mismatch") {
		t.Fatalf("reason = %q", diverged.Reason)
	}
}

// TestPerThreadRuleApplication: rules rewrite each thread's stream
// independently (the new version capitalises every thread's writes).
func TestPerThreadRuleApplication(t *testing.T) {
	rules := mustRules(t, `
rule "capital-w" {
    match write(fd, s, n) where prefix(s, "w") {
        emit write(fd, replace(s, "w", "W"), n);
    }
}
`)
	s := sim.New()
	k := vos.NewKernel(s)
	m := New(k, 64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", rules, 0)
	var jfd int
	done := 0
	s.Go("leader", func(tk *sim.Task) {
		lfd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
		jfd = int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for tid := 0; tid < 2; tid++ {
			tid := tid
			s.Go(fmt.Sprintf("l-t%d", tid), func(tk2 *sim.Task) {
				for i := 0; i < 3; i++ {
					leader.Invoke(tk2, sysabi.Call{Op: sysabi.OpWrite, FD: jfd,
						Buf: []byte(fmt.Sprintf("w%d.%d;", tid, i)), TID: tid})
				}
				done++
			})
		}
	})
	s.Go("follower", func(tk *sim.Task) {
		flfd := int(follower.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
		follower.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: flfd})
		for tid := 0; tid < 2; tid++ {
			tid := tid
			s.Go(fmt.Sprintf("f-t%d", tid), func(tk2 *sim.Task) {
				for i := 0; i < 3; i++ {
					// The new version capitalises its output.
					follower.Invoke(tk2, sysabi.Call{Op: sysabi.OpWrite, FD: jfd,
						Buf: []byte(fmt.Sprintf("W%d.%d;", tid, i)), TID: tid})
				}
				done++
			})
		}
	})
	s.Go("client", func(tk *sim.Task) {
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9, 0}})
	})
	s.Go("teardown", func(tk *sim.Task) {
		for done < 4 && tk.Now() < 5*time.Second {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences with per-thread rules: %v", m.Divergences())
	}
}
