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

// TestRewriteChangesEventCountAcrossThreads drives rules that change how
// many events a thread issues through a two-thread follower: the new
// version reads the clock twice where the old read it once, and writes in
// one call what the old wrote in two. Thread 0's pair of writes straddles
// thread 1's events in the leader's interleaving, and the follower's
// thread 0 starts late, so each rewrite lands on a queue with a backlog
// behind it and other threads' events recorded between.
func TestRewriteChangesEventCountAcrossThreads(t *testing.T) {
	rules := mustRules(t, `
rule "clock-twice" {
    match clock(ts) {
        emit clock(ts), clock(ts);
    }
}
rule "join-writes" {
    match write(fd, a, n), write(fd2, b, m) where prefix(a, "a") && prefix(b, "b") {
        emit write(fd, concat(a, b), n + m);
    }
}
`)
	const rounds = 4
	s := sim.New()
	k := vos.NewKernel(s)
	m := New(k, 64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachCandidate("v1", rules, 0)
	var jfd int
	var leaderClocks, followerClocks [2][]int64
	done := 0
	// The old version: thread 0 reads the clock and writes "a<i>;" and
	// "b<i>;" a millisecond apart; thread 1 writes "x<i>;" and reads the
	// clock every 3 ms, sometimes between a thread-0 pair, sometimes not.
	s.Go("leader", func(tk *sim.Task) {
		lfd := int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
		jfd = int(leader.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		s.Go("l-t0", func(tk *sim.Task) {
			for i := 0; i < rounds; i++ {
				leaderClocks[0] = append(leaderClocks[0], leader.Invoke(tk, sysabi.Call{Op: sysabi.OpClock, TID: 0}).Ret)
				leader.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: jfd, Buf: []byte(fmt.Sprintf("a%d;", i)), TID: 0})
				tk.Sleep(time.Millisecond)
				leader.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: jfd, Buf: []byte(fmt.Sprintf("b%d;", i)), TID: 0})
				tk.Sleep(time.Millisecond)
			}
		})
		s.Go("l-t1", func(tk *sim.Task) {
			tk.Sleep(500 * time.Microsecond)
			for i := 0; i < rounds; i++ {
				leader.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: jfd, Buf: []byte(fmt.Sprintf("x%d;", i)), TID: 1})
				leaderClocks[1] = append(leaderClocks[1], leader.Invoke(tk, sysabi.Call{Op: sysabi.OpClock, TID: 1}).Ret)
				tk.Sleep(3 * time.Millisecond)
			}
		})
	})
	// The new version: two clock reads for each of the old one, one write
	// for thread 0's pair.
	s.Go("follower", func(tk *sim.Task) {
		flfd := int(follower.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9, 0}}).Ret)
		follower.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: flfd})
		clocks := func(tk *sim.Task, tid int) {
			for j := 0; j < 2; j++ {
				followerClocks[tid] = append(followerClocks[tid], follower.Invoke(tk, sysabi.Call{Op: sysabi.OpClock, TID: tid}).Ret)
			}
		}
		s.Go("f-t0", func(tk *sim.Task) {
			tk.Sleep(20 * time.Millisecond)
			for i := 0; i < rounds; i++ {
				clocks(tk, 0)
				follower.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: jfd, Buf: []byte(fmt.Sprintf("a%d;b%d;", i, i)), TID: 0})
			}
			done++
		})
		s.Go("f-t1", func(tk *sim.Task) {
			for i := 0; i < rounds; i++ {
				follower.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: jfd, Buf: []byte(fmt.Sprintf("x%d;", i)), TID: 1})
				clocks(tk, 1)
			}
			done++
		})
	})
	s.Go("client", func(tk *sim.Task) {
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9, 0}})
	})
	s.Go("teardown", func(tk *sim.Task) {
		for done < 2 && tk.Now() < 5*time.Second {
			tk.Sleep(time.Millisecond)
		}
		ejectAll(m, "dropped")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(m.Divergences()) != 0 {
		t.Fatalf("divergences: %v", m.Divergences())
	}
	if done != 2 {
		t.Fatalf("%d of 2 follower threads finished", done)
	}
	// Every clock read and every write pair was rewritten.
	if want := int64(3 * rounds); m.Stats.Rewritten != want {
		t.Errorf("%d rule hits, want %d", m.Stats.Rewritten, want)
	}
	for tid := range leaderClocks {
		var want []int64
		for _, ts := range leaderClocks[tid] {
			want = append(want, ts, ts)
		}
		if fmt.Sprint(followerClocks[tid]) != fmt.Sprint(want) {
			t.Errorf("thread %d's follower clocks = %v, want each of the leader's %v twice", tid, followerClocks[tid], leaderClocks[tid])
		}
	}
}
