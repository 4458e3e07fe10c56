package libevent

import (
	"testing"

	"mvedsua/internal/dsu"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// echoApp is a minimal dsu.App that exposes its Env to the test.
type echoApp struct {
	run func(env *dsu.Env)
}

func (a *echoApp) Version() string   { return "v1" }
func (a *echoApp) Fork() dsu.App     { cp := *a; return &cp }
func (a *echoApp) Main(env *dsu.Env) { a.run(env) }

// withEnv runs fn inside a DSU runtime on a fresh kernel.
func withEnv(t *testing.T, fn func(k *vos.Kernel, env *dsu.Env)) {
	t.Helper()
	s := sim.New()
	k := vos.NewKernel(s)
	rt := dsu.NewRuntime(s, &echoApp{run: func(env *dsu.Env) { fn(k, env) }}, dsu.Config{Name: "le", Dispatcher: k})
	rt.Start()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRegisterAndDispatch(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	var dispatched []int
	app := &echoApp{}
	app.run = func(env *dsu.Env) {
		b := NewBase()
		b.Init(env)
		lfd := int(env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		b.Register(env, lfd, HandlerListener)
		b.Bind(func(e *dsu.Env, class HandlerClass, fd int) {
			if class != HandlerListener || fd != lfd {
				t.Errorf("dispatch class=%v fd=%d", class, fd)
			}
			dispatched = append(dispatched, fd)
			r := e.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: lfd})
			e.Sys(sysabi.Call{Op: sysabi.OpClose, FD: int(r.Ret)})
		})
		if !b.LoopOnce(env) {
			t.Error("LoopOnce failed")
		}
	}
	rt := dsu.NewRuntime(s, app, dsu.Config{Name: "le", Dispatcher: k})
	rt.Start()
	s.Go("client", func(tk *sim.Task) {
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(dispatched) != 1 {
		t.Fatalf("dispatched = %v", dispatched)
	}
}

func TestRoundRobinMemoryChangesOrder(t *testing.T) {
	// Two fds ready at once: dispatch order rotates with rrOffset.
	s := sim.New()
	k := vos.NewKernel(s)
	var order []int
	app := &echoApp{}
	app.run = func(env *dsu.Env) {
		b := NewBase()
		b.Init(env)
		lfd := int(env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		// Accept two connections directly.
		fd1 := int(env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		fd2 := int(env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		b.Register(env, fd1, HandlerConn)
		b.Register(env, fd2, HandlerConn)
		b.Bind(func(e *dsu.Env, class HandlerClass, fd int) {
			order = append(order, fd)
			e.Sys(sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
		})
		// Both fds have data; first pass starts at offset 0.
		b.LoopOnce(env)
		if b.RROffset() != 2 {
			t.Errorf("rrOffset = %d, want 2", b.RROffset())
		}
		// Make both ready again; the remembered offset rotates the order.
		env.Task().Yield()
		b.LoopOnce(env)
	}
	rt := dsu.NewRuntime(s, app, dsu.Config{Name: "le", Dispatcher: k})
	rt.Start()
	s.Go("clients", func(tk *sim.Task) {
		c1 := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		c2 := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: c1, Buf: []byte("a")})
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: c2, Buf: []byte("b")})
		tk.Yield()
		tk.Yield()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: c1, Buf: []byte("a")})
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: c2, Buf: []byte("b")})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	// First pass in fd order; second pass rotated (offset 2 % 2 == 0
	// would repeat, so verify against the actual rotation rule).
	if order[0] == order[2] && order[1] == order[3] {
		// Same order both times is only correct if offset%2 == 0.
		if order[0] > order[1] {
			t.Fatalf("first pass not in fd order: %v", order)
		}
	}
}

func TestRebuildLosesMemoryResetRestores(t *testing.T) {
	b := NewBase()
	b.rrOffset = 7
	b.handlers[3] = HandlerConn
	r := b.Rebuild()
	if r.RROffset() != 0 {
		t.Fatalf("Rebuild kept rrOffset = %d", r.RROffset())
	}
	if len(r.handlers) != 1 {
		t.Fatal("Rebuild lost registrations")
	}
	c := b.Clone()
	if c.RROffset() != 7 {
		t.Fatalf("Clone lost rrOffset = %d", c.RROffset())
	}
	b.Reset()
	if b.RROffset() != 0 {
		t.Fatal("Reset did not clear rrOffset")
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := NewBase()
	b.handlers[1] = HandlerConn
	c := b.Clone()
	c.handlers[2] = HandlerConn
	if len(b.handlers) != 1 {
		t.Fatal("Clone shares handler map")
	}
}

func TestCorruptPanicsUnderLoad(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	var crashed bool
	s.OnCrash = func(sim.CrashInfo) { crashed = true }
	app := &echoApp{}
	app.run = func(env *dsu.Env) {
		b := NewBase()
		b.Init(env)
		lfd := int(env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		var fds []int
		for i := 0; i < 3; i++ {
			fds = append(fds, int(env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret))
		}
		for _, fd := range fds {
			b.Register(env, fd, HandlerConn)
		}
		b.Bind(func(e *dsu.Env, class HandlerClass, fd int) {})
		b.Corrupt()
		b.LoopOnce(env) // ready events + >=3 handlers -> panic
		t.Error("LoopOnce survived corruption")
	}
	rt := dsu.NewRuntime(s, app, dsu.Config{Name: "le", Dispatcher: k})
	rt.Start()
	s.Go("clients", func(tk *sim.Task) {
		for i := 0; i < 3; i++ {
			fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("x")})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !crashed {
		t.Fatal("corrupted base did not crash")
	}
}

func TestCorruptHarmlessWithFewHandlers(t *testing.T) {
	withEnv(t, func(k *vos.Kernel, env *dsu.Env) {
		b := NewBase()
		b.Init(env)
		b.Corrupt()
		lfd := int(env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		b.Register(env, lfd, HandlerListener)
		b.Bind(func(e *dsu.Env, class HandlerClass, fd int) {})
		// Nothing ready and few handlers: must not crash. Use a task
		// kill to exit the otherwise-blocking wait.
		done := false
		watcher := env.Task().Scheduler().Go("watch", func(tk *sim.Task) {
			tk.Sleep(1)
			if !done {
				env.Task().Kill()
			}
		})
		_ = watcher
		b.LoopOnce(env)
		done = true
	})
}

func TestUnregisterStopsDispatch(t *testing.T) {
	withEnv(t, func(k *vos.Kernel, env *dsu.Env) {
		b := NewBase()
		b.Init(env)
		lfd := int(env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		b.Register(env, lfd, HandlerListener)
		if len(b.handlers) != 1 {
			t.Fatal("Register did not record handler")
		}
		b.Unregister(env, lfd)
		if len(b.handlers) != 0 {
			t.Fatal("Unregister did not remove handler")
		}
	})
}
