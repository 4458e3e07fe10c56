package chaos

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// fakeDispatcher counts the calls that actually reach the "kernel".
type fakeDispatcher struct {
	calls []sysabi.Call
}

func (f *fakeDispatcher) Invoke(t *sim.Task, call sysabi.Call) sysabi.Result {
	f.calls = append(f.calls, call)
	return sysabi.Result{Ret: int64(len(f.calls))}
}

func run(t *testing.T, fn func(tk *sim.Task)) *sim.Scheduler {
	t.Helper()
	s := sim.New()
	s.Go("test", fn)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s
}

func TestErrnoInjectionFiltersRoleOpAndCount(t *testing.T) {
	inner := &fakeDispatcher{}
	plan := NewPlan(&Injection{
		Role: "follower", Op: sysabi.OpWrite, AfterCalls: 2,
		Kind: KindErrno, Errno: sysabi.EAGAIN,
	})
	plan.Rec = obs.New(nil, obs.Options{})
	leader := plan.Wrap("leader", "", inner)
	follower := plan.Wrap("follower", "", inner)

	run(t, func(tk *sim.Task) {
		w := sysabi.Call{Op: sysabi.OpWrite, FD: 3, Buf: []byte("x")}
		r := sysabi.Call{Op: sysabi.OpRead, FD: 3}

		// Leader-role writes never match and must not consume the count.
		for i := 0; i < 5; i++ {
			if res := leader.Invoke(tk, w); res.Err != sysabi.OK {
				t.Fatalf("leader write %d: %v", i, res.Err)
			}
		}
		// Non-write follower calls don't count either.
		if res := follower.Invoke(tk, r); res.Err != sysabi.OK {
			t.Fatalf("follower read: %v", res.Err)
		}
		// First matching write passes, the second fails with the errno.
		if res := follower.Invoke(tk, w); res.Err != sysabi.OK {
			t.Fatalf("follower write 1: %v", res.Err)
		}
		if res := follower.Invoke(tk, w); res.Err != sysabi.EAGAIN {
			t.Fatalf("follower write 2: err = %v, want EAGAIN", res.Err)
		}
		// Fires once: the third write is clean again.
		if res := follower.Invoke(tk, w); res.Err != sysabi.OK {
			t.Fatalf("follower write 3: %v", res.Err)
		}
	})
	// The failed call never reached the inner dispatcher: 5 leader writes +
	// 1 read + 2 clean follower writes.
	if len(inner.calls) != 8 {
		t.Fatalf("inner saw %d calls, want 8", len(inner.calls))
	}
	if plan.Fired() != 1 || len(plan.Log) != 1 {
		t.Fatalf("Fired = %d, Log = %v", plan.Fired(), plan.Log)
	}
	if ms := plan.Rec.Milestones(); len(ms) != 1 || ms[0].Kind != obs.KindFault || ms[0].Actor != "follower" ||
		!strings.Contains(ms[0].Detail, plan.Log[0]) || !strings.Contains(ms[0].Detail, "EAGAIN") &&
		!strings.Contains(ms[0].Detail, "resource temporarily unavailable") {
		t.Fatalf("fault milestones = %v, log %q", ms, plan.Log)
	}
}

func TestDelayInjectionAddsLatencyThenForwards(t *testing.T) {
	inner := &fakeDispatcher{}
	plan := NewPlan(&Injection{Kind: KindDelay, Delay: 25 * time.Millisecond})
	d := plan.Wrap("leader", "", inner)

	var before, after time.Duration
	run(t, func(tk *sim.Task) {
		before = tk.Now()
		res := d.Invoke(tk, sysabi.Call{Op: sysabi.OpClock})
		after = tk.Now()
		if res.Err != sysabi.OK {
			t.Fatalf("res = %+v", res)
		}
	})
	if after-before != 25*time.Millisecond {
		t.Fatalf("delay = %v, want 25ms", after-before)
	}
	// Delayed calls still execute for real.
	if len(inner.calls) != 1 {
		t.Fatalf("inner saw %d calls, want 1", len(inner.calls))
	}
}

func TestCrashInjectionBecomesCrashInfo(t *testing.T) {
	inner := &fakeDispatcher{}
	plan := NewPlan(&Injection{Role: "follower", AfterCalls: 3, Kind: KindCrash})
	d := plan.Wrap("follower", "", inner)

	s := sim.New()
	var crash sim.CrashInfo
	s.OnCrash = func(c sim.CrashInfo) { crash = c }
	s.Go("victim", func(tk *sim.Task) {
		for i := 0; i < 10; i++ {
			d.Invoke(tk, sysabi.Call{Op: sysabi.OpGetPID})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if crash.Task != "victim" {
		t.Fatalf("crash = %+v, want task victim", crash)
	}
	if msg, ok := crash.Value.(string); !ok || !strings.Contains(msg, "injected crash in follower at syscall 3") {
		t.Fatalf("crash value = %v", crash.Value)
	}
	// Exactly the two pre-crash calls reached the kernel.
	if len(inner.calls) != 2 {
		t.Fatalf("inner saw %d calls, want 2", len(inner.calls))
	}
}

func TestStallInjectionParksUntilKilled(t *testing.T) {
	inner := &fakeDispatcher{}
	plan := NewPlan(&Injection{Kind: KindStall, AfterCalls: 2})
	d := plan.Wrap("follower", "", inner)

	s := sim.New()
	returned := false
	victim := s.Go("victim", func(tk *sim.Task) {
		for i := 0; i < 10; i++ {
			d.Invoke(tk, sysabi.Call{Op: sysabi.OpGetPID})
		}
		returned = true
	})
	s.Go("reaper", func(tk *sim.Task) {
		tk.Sleep(time.Second)
		victim.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if returned {
		t.Fatal("stalled task ran to completion")
	}
	if len(inner.calls) != 1 {
		t.Fatalf("inner saw %d calls, want 1 (stall hit on call 2)", len(inner.calls))
	}
	if len(s.Crashes()) != 0 {
		t.Fatalf("kill must not count as a crash: %v", s.Crashes())
	}
}

func TestWhenGatesArmingAndCounting(t *testing.T) {
	inner := &fakeDispatcher{}
	gate := false
	plan := NewPlan(&Injection{
		AfterCalls: 2, Kind: KindErrno, Errno: sysabi.EPIPE,
		When: func() bool { return gate },
	})
	d := plan.Wrap("leader", "", inner)

	run(t, func(tk *sim.Task) {
		c := sysabi.Call{Op: sysabi.OpWrite, FD: 1, Buf: []byte("y")}
		// Gate closed: many matching calls, none counted.
		for i := 0; i < 6; i++ {
			if res := d.Invoke(tk, c); res.Err != sysabi.OK {
				t.Fatalf("pre-gate call %d: %v", i, res.Err)
			}
		}
		gate = true
		if res := d.Invoke(tk, c); res.Err != sysabi.OK {
			t.Fatalf("post-gate call 1: %v", res.Err)
		}
		if res := d.Invoke(tk, c); res.Err != sysabi.EPIPE {
			t.Fatalf("post-gate call 2: err = %v, want EPIPE", res.Err)
		}
		// Once armed, the gate is not re-evaluated.
		gate = false
	})
	if plan.Fired() != 1 {
		t.Fatalf("Fired = %d", plan.Fired())
	}
}

func TestRandIsDeterministic(t *testing.T) {
	a, b := Rand(42), Rand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
	if Rand(1).Int63() == Rand(2).Int63() {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestStringForms(t *testing.T) {
	if KindErrno.String() != "errno" || KindDelay.String() != "delay" ||
		KindCrash.String() != "crash" || KindStall.String() != "stall" ||
		Kind(9).String() != "kind(9)" {
		t.Fatal("Kind.String mismatch")
	}
	inj := &Injection{Role: "follower", Op: sysabi.OpWrite, AfterCalls: 3, Kind: KindErrno, Errno: sysabi.EPIPE}
	if got := inj.String(); !strings.Contains(got, "follower@write#3") {
		t.Fatalf("Injection.String = %q", got)
	}
	anyInj := &Injection{Kind: KindStall, AfterCalls: 1}
	if got := anyInj.String(); !strings.Contains(got, "any@any-op#1 -> stall") {
		t.Fatalf("Injection.String = %q", got)
	}
	dl := &Injection{Kind: KindDelay, Delay: time.Millisecond, AfterCalls: 2}
	if got := dl.String(); !strings.Contains(got, "+1ms") {
		t.Fatalf("Injection.String = %q", got)
	}
}

func TestProcTargetingSinglesOutOneProcess(t *testing.T) {
	inner := &fakeDispatcher{}
	plan := NewPlan(&Injection{
		Role: "variant", Proc: "r2#1@v1", Op: sysabi.OpWrite,
		Kind: KindErrno, Errno: sysabi.EAGAIN,
	})
	r1 := plan.Wrap("variant", "r1#1@v1", inner)
	r2 := plan.Wrap("variant", "r2#1@v1", inner)
	anon := plan.Wrap("variant", "", inner) // no name: Proc injections skip it

	run(t, func(tk *sim.Task) {
		w := sysabi.Call{Op: sysabi.OpWrite, FD: 3, Buf: []byte("x")}
		// Same role, wrong (or missing) proc name: never matches.
		for i := 0; i < 3; i++ {
			if res := r1.Invoke(tk, w); res.Err != sysabi.OK {
				t.Fatalf("r1 write %d: %v", i, res.Err)
			}
			if res := anon.Invoke(tk, w); res.Err != sysabi.OK {
				t.Fatalf("anon write %d: %v", i, res.Err)
			}
		}
		// The named target takes the fault on its first matching call.
		if res := r2.Invoke(tk, w); res.Err != sysabi.EAGAIN {
			t.Fatalf("r2 write: err = %v, want EIO", res.Err)
		}
	})
	if plan.Fired() != 1 {
		t.Fatalf("Fired = %d", plan.Fired())
	}
	if got := plan.Injections[0].String(); !strings.Contains(got, "variant(r2#1@v1)") {
		t.Fatalf("Injection.String = %q (proc target missing)", got)
	}
	if got, none := r2.(*Dispatcher).name, anon.(*Dispatcher).name; got != "r2#1@v1" || none != "" {
		t.Fatalf("Proc() = %q / %q", got, none)
	}
}
