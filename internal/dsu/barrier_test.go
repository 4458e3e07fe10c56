package dsu

import (
	"testing"
	"time"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// loopApp is a minimal epoll-driven app for barrier and update-point
// plumbing tests.
type loopApp struct {
	version  string
	listenFD int
	epollFD  int
	conns    map[int]bool
	// onLoop is called each iteration, for instrumentation.
	onLoop func(env *Env)
}

func (a *loopApp) Version() string { return a.version }
func (a *loopApp) Fork() App {
	cp := *a
	cp.conns = map[int]bool{}
	for fd := range a.conns {
		cp.conns[fd] = true
	}
	return &cp
}

func (a *loopApp) Main(env *Env) {
	if !env.Updating() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{5000, 0}})
		a.listenFD = int(r.Ret)
		r = env.Sys(sysabi.Call{Op: sysabi.OpEpollCreate})
		a.epollFD = int(r.Ret)
		env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: a.epollFD, Args: [2]int64{int64(a.listenFD), 1}})
	}
	for !env.Exiting() {
		if a.onLoop != nil {
			a.onLoop(env)
		}
		if env.UpdatePoint("loop") == Exit {
			return
		}
		r := env.Sys(sysabi.Call{Op: sysabi.OpEpollWait, FD: a.epollFD, Args: [2]int64{16, 0}})
		if !r.OK() {
			return
		}
		for _, fd := range r.Ready {
			if fd == a.listenFD {
				nr := env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: a.listenFD})
				a.conns[int(nr.Ret)] = true
				env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: a.epollFD, Args: [2]int64{nr.Ret, 1}})
				continue
			}
			rr := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			if !rr.OK() || rr.Ret == 0 {
				env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: a.epollFD, Args: [2]int64{int64(fd), 0}})
				env.Sys(sysabi.Call{Op: sysabi.OpClose, FD: fd})
				delete(a.conns, fd)
				continue
			}
			env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: rr.Data})
		}
	}
}

// TestBarrierRunsAtQuiescence: the barrier fn runs exactly once, with no
// thread mid-syscall, and threads continue in the same version.
func TestBarrierRunsAtQuiescence(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	app := &loopApp{version: "v1", conns: map[int]bool{}}
	var recs []UpdateRecord
	rt := NewRuntime(s, app, Config{
		Name:                   "lp",
		Dispatcher:             k,
		EpollWaitIsUpdatePoint: true,
		EpollUpdateInterval:    5 * time.Millisecond,
		OnOutcome:              func(r UpdateRecord) { recs = append(recs, r) },
	})
	rt.Start()
	ran := 0
	s.Go("driver", func(tk *sim.Task) {
		tk.Sleep(10 * time.Millisecond)
		if !rt.RequestBarrier(func(bt *sim.Task) { ran++ }) {
			t.Error("RequestBarrier rejected")
		}
		// A second barrier while one is pending is rejected.
		if rt.RequestBarrier(func(bt *sim.Task) { ran += 100 }) {
			t.Error("overlapping barrier accepted")
		}
		for ran == 0 && tk.Now() < time.Second {
			tk.Sleep(5 * time.Millisecond)
		}
		tk.Sleep(20 * time.Millisecond)
		if ran != 1 {
			t.Errorf("barrier ran %d times", ran)
		}
		if rt.App().Version() != "v1" || rt.Generation() != 0 {
			t.Errorf("barrier changed the version: %s gen %d", rt.App().Version(), rt.Generation())
		}
		rt.KillAll()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("barrier produced update records: %+v", recs)
	}
}

// TestBarrierWaitsForBlockedThread: with epoll update points the barrier
// completes even when the only thread is parked in epoll_wait.
func TestBarrierWaitsForBlockedThread(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	app := &loopApp{version: "v1", conns: map[int]bool{}}
	rt := NewRuntime(s, app, Config{
		Name:                   "lp",
		Dispatcher:             k,
		EpollWaitIsUpdatePoint: true,
		EpollUpdateInterval:    5 * time.Millisecond,
	})
	rt.Start()
	var ranAt time.Duration
	s.Go("driver", func(tk *sim.Task) {
		// No client traffic at all: the thread sits in bounded epoll
		// waits. The barrier still runs within one bounded interval.
		tk.Sleep(20 * time.Millisecond)
		rt.RequestBarrier(func(bt *sim.Task) { ranAt = bt.Now() })
		for ranAt == 0 && tk.Now() < time.Second {
			tk.Sleep(5 * time.Millisecond)
		}
		if ranAt == 0 {
			t.Error("barrier never ran with an idle epoll thread")
		}
		rt.KillAll()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestEpollUpdatePointNoticesPendingUpdate: an idle epoll-parked thread
// takes a pending update within the bounded-wait interval.
func TestEpollUpdatePointNoticesPendingUpdate(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	app := &loopApp{version: "v1", conns: map[int]bool{}}
	rt := NewRuntime(s, app, Config{
		Name:                   "lp",
		Dispatcher:             k,
		EpollWaitIsUpdatePoint: true,
		EpollUpdateInterval:    5 * time.Millisecond,
	})
	rt.Start()
	v2 := &Version{
		Name: "v2",
		Xform: func(old App) (App, error) {
			n := old.(*loopApp).Fork().(*loopApp)
			n.version = "v2"
			return n, nil
		},
	}
	s.Go("driver", func(tk *sim.Task) {
		tk.Sleep(20 * time.Millisecond)
		rt.RequestUpdate(v2)
		for rt.Generation() == 0 && tk.Now() < time.Second {
			tk.Sleep(5 * time.Millisecond)
		}
		if rt.App().Version() != "v2" {
			t.Errorf("version = %s after idle-thread update", rt.App().Version())
		}
		rt.KillAll()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSetUpdateHooksRebinds: hooks installed after construction take
// effect on the next update (the promotion path in core).
func TestSetUpdateHooksRebinds(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	app := &loopApp{version: "v1", conns: map[int]bool{}}
	rt := NewRuntime(s, app, Config{
		Name:                   "lp",
		Dispatcher:             k,
		EpollWaitIsUpdatePoint: true,
		EpollUpdateInterval:    5 * time.Millisecond,
	})
	rt.Start()
	aborted := 0
	var outcomes []Outcome
	rt.SetUpdateHooks(
		func(t2 *sim.Task, rt2 *Runtime, v *Version) TakeAction { aborted++; return TakeAbort },
		func(rec UpdateRecord) { outcomes = append(outcomes, rec.Outcome) },
		false,
	)
	v2 := &Version{
		Name:  "v2",
		Xform: func(old App) (App, error) { return old, nil },
	}
	s.Go("driver", func(tk *sim.Task) {
		tk.Sleep(10 * time.Millisecond)
		rt.RequestUpdate(v2)
		for aborted == 0 && tk.Now() < time.Second {
			tk.Sleep(5 * time.Millisecond)
		}
		if aborted != 1 {
			t.Errorf("TakeUpdate hook ran %d times", aborted)
		}
		if len(outcomes) != 1 || outcomes[0] != OutcomeForked {
			t.Errorf("outcomes = %v", outcomes)
		}
		if rt.App().Version() != "v1" {
			t.Errorf("version = %s after aborted update", rt.App().Version())
		}
		rt.KillAll()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
