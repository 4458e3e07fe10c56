package vos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// run executes fn as a task and fails the test on scheduler error.
func run(t *testing.T, fn func(k *Kernel, tk *sim.Task)) {
	t.Helper()
	s := sim.New()
	k := NewKernel(s)
	s.Go("test", func(tk *sim.Task) { fn(k, tk) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func call(k *Kernel, tk *sim.Task, c sysabi.Call) sysabi.Result {
	return k.Invoke(tk, c)
}

func TestSocketListenConnectAccept(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	var serverFD, clientFD int
	s.Go("server", func(tk *sim.Task) {
		r := call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{6379, 0}})
		if !r.OK() {
			t.Errorf("socket: %v", r.Err)
			return
		}
		lfd := int(r.Ret)
		r = call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd})
		if !r.OK() {
			t.Errorf("accept: %v", r.Err)
			return
		}
		serverFD = int(r.Ret)
		// Echo one message.
		r = call(k, tk, sysabi.Call{Op: sysabi.OpRead, FD: serverFD, Args: [2]int64{128, 0}})
		if !r.OK() {
			t.Errorf("read: %v", r.Err)
			return
		}
		call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: serverFD, Buf: r.Data})
	})
	var got []byte
	s.Go("client", func(tk *sim.Task) {
		r := call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{6379, 0}})
		if !r.OK() {
			t.Errorf("connect: %v", r.Err)
			return
		}
		clientFD = int(r.Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: clientFD, Buf: []byte("ping")})
		r = call(k, tk, sysabi.Call{Op: sysabi.OpRead, FD: clientFD, Args: [2]int64{128, 0}})
		got = r.Data
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(got) != "ping" {
		t.Fatalf("echo = %q, want ping", got)
	}
	if serverFD == clientFD {
		t.Fatal("server and client share an fd")
	}
}

func TestConnectNoListener(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		r := call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9999, 0}})
		if r.Err != sysabi.ENOENT {
			t.Errorf("connect to dead port = %v, want ENOENT", r.Err)
		}
	})
}

func TestDuplicatePortRejected(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		r := call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{80, 0}})
		if !r.OK() {
			t.Fatalf("socket: %v", r.Err)
		}
		r = call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{80, 0}})
		if r.Err != sysabi.EINVAL {
			t.Errorf("duplicate bind = %v, want EINVAL", r.Err)
		}
	})
}

func TestReadEOFOnPeerClose(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	var eof bool
	s.Go("server", func(tk *sim.Task) {
		lfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		r := call(k, tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{16, 0}})
		eof = r.OK() && r.Ret == 0
	})
	s.Go("client", func(tk *sim.Task) {
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		tk.Yield()
		call(k, tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !eof {
		t.Fatal("read did not return EOF after peer close")
	}
}

func TestWriteToClosedPeerEPIPE(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	var errno sysabi.Errno
	s.Go("server", func(tk *sim.Task) {
		lfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		tk.Yield() // let client close
		tk.Yield()
		errno = call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("x")}).Err
	})
	s.Go("client", func(tk *sim.Task) {
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errno != sysabi.EPIPE {
		t.Fatalf("write to closed peer = %v, want EPIPE", errno)
	}
}

func TestPartialRead(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	var first, second []byte
	s.Go("server", func(tk *sim.Task) {
		lfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		r := call(k, tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{3, 0}})
		first = r.Data
		r = call(k, tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{100, 0}})
		second = r.Data
	})
	s.Go("client", func(tk *sim.Task) {
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("abcdef")})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(first) != "abc" || string(second) != "def" {
		t.Fatalf("reads = %q, %q", first, second)
	}
}

func TestBadFDErrors(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		for _, c := range []sysabi.Call{
			{Op: sysabi.OpRead, FD: 99, Args: [2]int64{10, 0}},
			{Op: sysabi.OpWrite, FD: 99, Buf: []byte("x")},
			{Op: sysabi.OpAccept, FD: 99},
			{Op: sysabi.OpClose, FD: 99},
			{Op: sysabi.OpFRead, FD: 99, Args: [2]int64{10, 0}},
			{Op: sysabi.OpFWrite, FD: 99, Buf: []byte("x")},
			{Op: sysabi.OpEpollCtl, FD: 99, Args: [2]int64{1, 1}},
			{Op: sysabi.OpEpollWait, FD: 99, Args: [2]int64{8, 0}},
		} {
			if r := call(k, tk, c); r.Err != sysabi.EBADF {
				t.Errorf("%v = %v, want EBADF", c, r.Err)
			}
		}
	})
}

func TestFileRoundTrip(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		r := call(k, tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/data/x", Args: [2]int64{sysabi.OpenWrite, 0}})
		if !r.OK() {
			t.Fatalf("open: %v", r.Err)
		}
		fd := int(r.Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpFWrite, FD: fd, Buf: []byte("hello ")})
		call(k, tk, sysabi.Call{Op: sysabi.OpFWrite, FD: fd, Buf: []byte("world")})
		call(k, tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})

		r = call(k, tk, sysabi.Call{Op: sysabi.OpStat, Path: "/data/x"})
		if r.Ret != 11 {
			t.Fatalf("stat size = %d, want 11", r.Ret)
		}

		r = call(k, tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/data/x", Args: [2]int64{sysabi.OpenRead, 0}})
		fd = int(r.Ret)
		var got bytes.Buffer
		for {
			r = call(k, tk, sysabi.Call{Op: sysabi.OpFRead, FD: fd, Args: [2]int64{4, 0}})
			if r.Ret == 0 {
				break
			}
			got.Write(r.Data)
		}
		if got.String() != "hello world" {
			t.Fatalf("read back %q", got.String())
		}
	})
}

func TestOpenReadMissingFile(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		r := call(k, tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/nope", Args: [2]int64{sysabi.OpenRead, 0}})
		if r.Err != sysabi.ENOENT {
			t.Errorf("open missing = %v, want ENOENT", r.Err)
		}
	})
}

func TestOpenWriteTruncates(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		k.WriteFile("/f", []byte("old content"))
		r := call(k, tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f", Args: [2]int64{sysabi.OpenWrite, 0}})
		fd := int(r.Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpFWrite, FD: fd, Buf: []byte("new")})
		data := k.fs["/f"].data
		if string(data) != "new" {
			t.Errorf("contents = %q, want new", data)
		}
	})
}

func TestOpenAppend(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		k.WriteFile("/f", []byte("abc"))
		r := call(k, tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f", Args: [2]int64{sysabi.OpenAppend, 0}})
		fd := int(r.Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpFWrite, FD: fd, Buf: []byte("def")})
		data := k.fs["/f"].data
		if string(data) != "abcdef" {
			t.Errorf("contents = %q, want abcdef", data)
		}
	})
}

func TestFWriteToReadOnlyFD(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		k.WriteFile("/f", []byte("x"))
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f", Args: [2]int64{sysabi.OpenRead, 0}}).Ret)
		r := call(k, tk, sysabi.Call{Op: sysabi.OpFWrite, FD: fd, Buf: []byte("y")})
		if r.Err != sysabi.EINVAL {
			t.Errorf("fwrite read-only = %v, want EINVAL", r.Err)
		}
	})
}

func TestUnlinkAndStat(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		k.WriteFile("/f", []byte("x"))
		if r := call(k, tk, sysabi.Call{Op: sysabi.OpUnlink, Path: "/f"}); !r.OK() {
			t.Fatalf("unlink: %v", r.Err)
		}
		if r := call(k, tk, sysabi.Call{Op: sysabi.OpStat, Path: "/f"}); r.Err != sysabi.ENOENT {
			t.Errorf("stat after unlink = %v, want ENOENT", r.Err)
		}
		if r := call(k, tk, sysabi.Call{Op: sysabi.OpUnlink, Path: "/f"}); r.Err != sysabi.ENOENT {
			t.Errorf("double unlink = %v, want ENOENT", r.Err)
		}
	})
}

func TestListDirSortedAndScoped(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		k.WriteFile("/pub/b.txt", nil)
		k.WriteFile("/pub/a.txt", nil)
		k.WriteFile("/priv/c.txt", nil)
		r := call(k, tk, sysabi.Call{Op: sysabi.OpListDir, Path: "/pub"})
		if r.Ret != 2 {
			t.Fatalf("count = %d, want 2", r.Ret)
		}
		if string(r.Data) != "a.txt\nb.txt\n" {
			t.Fatalf("listing = %q", r.Data)
		}
	})
}

func TestEpollWaitReadiness(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	var ready []int
	var connFD int
	s.Go("server", func(tk *sim.Task) {
		lfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		efd := int(call(k, tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(lfd), 1}})
		// Wait: listener becomes ready when the client connects.
		r := call(k, tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efd, Args: [2]int64{8, 0}})
		if len(r.Ready) != 1 || r.Ready[0] != lfd {
			t.Errorf("ready = %v, want [%d]", r.Ready, lfd)
		}
		connFD = int(call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(connFD), 1}})
		r = call(k, tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efd, Args: [2]int64{8, 0}})
		ready = r.Ready
	})
	s.Go("client", func(tk *sim.Task) {
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		tk.Yield()
		call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("data")})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ready) != 1 || ready[0] != connFD {
		t.Fatalf("ready = %v, want [%d]", ready, connFD)
	}
}

// TestEpollWaitRefillsItsReadyList: Ready is storage of the epoll
// instance (sysabi.Result.Ready). A wait on another instance leaves it
// alone, and the next wait on the same one refills the same array.
func TestEpollWaitRefillsItsReadyList(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		lfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		var efds, sfds [2]int
		for i := range efds {
			cfd := call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret
			sfds[i] = int(call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
			efds[i] = int(call(k, tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
			call(k, tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efds[i], Args: [2]int64{int64(sfds[i]), 1}})
			call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: int(cfd), Buf: []byte("x")})
		}
		first := call(k, tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efds[0], Args: [2]int64{8, 0}}).Ready
		other := call(k, tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efds[1], Args: [2]int64{8, 0}}).Ready
		if len(first) != 1 || first[0] != sfds[0] || len(other) != 1 || other[0] != sfds[1] {
			t.Fatalf("ready lists = %v and %v, want [%d] and [%d]", first, other, sfds[0], sfds[1])
		}
		again := call(k, tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efds[0], Args: [2]int64{8, 0}}).Ready
		if len(again) != 1 || &again[0] != &first[0] {
			t.Errorf("the second wait returned %v in new storage, want the first one's refilled", again)
		}
	})
}

func TestEpollCtlDelete(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	s.Go("t", func(tk *sim.Task) {
		lfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		efd := int(call(k, tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(lfd), 1}})
		call(k, tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(lfd), 0}})
		call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}})
		// lfd is ready but no longer watched: epoll_wait must block, so
		// run it with a killer.
		done := false
		waiter := tk.Scheduler().Go("waiter", func(tk2 *sim.Task) {
			call(k, tk2, sysabi.Call{Op: sysabi.OpEpollWait, FD: efd, Args: [2]int64{8, 0}})
			done = true
		})
		tk.Yield()
		tk.Yield()
		if done {
			t.Error("epoll_wait returned for an unwatched fd")
		}
		waiter.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestClockSyscall(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		tk.Advance(42 * time.Millisecond)
		r := call(k, tk, sysabi.Call{Op: sysabi.OpClock})
		if time.Duration(r.Ret) != 42*time.Millisecond {
			t.Errorf("clock = %v", time.Duration(r.Ret))
		}
	})
}

func TestGetPIDStablePerTask(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	pids := map[string]int64{}
	for _, name := range []string{"a", "b"} {
		name := name
		s.Go(name, func(tk *sim.Task) {
			p1 := call(k, tk, sysabi.Call{Op: sysabi.OpGetPID}).Ret
			p2 := call(k, tk, sysabi.Call{Op: sysabi.OpGetPID}).Ret
			if p1 != p2 {
				t.Errorf("pid changed: %d -> %d", p1, p2)
			}
			pids[name] = p1
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pids["a"] == pids["b"] {
		t.Fatal("distinct tasks share a pid")
	}
}

func TestBaseCostCharged(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	k.BaseCost = func(c sysabi.Call) time.Duration { return time.Microsecond }
	s.Go("t", func(tk *sim.Task) {
		for i := 0; i < 10; i++ {
			call(k, tk, sysabi.Call{Op: sysabi.OpClock})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Now() != 10*time.Microsecond {
		t.Fatalf("Now = %v, want 10µs", s.Now())
	}
}

func TestStatsCount(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		call(k, tk, sysabi.Call{Op: sysabi.OpClock})
		call(k, tk, sysabi.Call{Op: sysabi.OpClock})
		call(k, tk, sysabi.Call{Op: sysabi.OpGetPID})
		if k.Stats[sysabi.OpClock] != 2 || k.Stats[sysabi.OpGetPID] != 1 {
			t.Errorf("stats = %v", k.Stats)
		}
	})
}

func TestInvalidOp(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		if r := call(k, tk, sysabi.Call{Op: sysabi.Op(999)}); r.Err != sysabi.EINVAL {
			t.Errorf("invalid op = %v, want EINVAL", r.Err)
		}
	})
}

func TestCloseListenerWakesAcceptor(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	var acceptErr sysabi.Errno
	var lfd int
	s.Go("server", func(tk *sim.Task) {
		lfd = int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		acceptErr = call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Err
	})
	s.Go("closer", func(tk *sim.Task) {
		tk.Yield()
		call(k, tk, sysabi.Call{Op: sysabi.OpClose, FD: lfd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acceptErr != sysabi.EBADF {
		t.Fatalf("accept after close = %v, want EBADF", acceptErr)
	}
}

func TestFDLeakAccounting(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		before := k.OpenFDs()
		fd := int(call(k, tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f", Args: [2]int64{sysabi.OpenWrite, 0}}).Ret)
		if k.OpenFDs() != before+1 {
			t.Fatal("open did not add an fd")
		}
		call(k, tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
		if k.OpenFDs() != before {
			t.Fatal("close did not remove the fd")
		}
	})
}

// TestKernelRecIsTheSwitch: attaching a recorder is what turns the
// kernel's traffic metrics on. With Rec set and spans never enabled, a
// four-byte echo counts its 16 bytes (two writes, two reads) and the
// open-descriptor gauge follows the last call.
func TestKernelRecIsTheSwitch(t *testing.T) {
	rec := obs.New(nil, obs.Options{})
	run(t, func(k *Kernel, tk *sim.Task) {
		k.Rec = rec
		lfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		cfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		sfd := int(call(k, tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: cfd, Buf: []byte("ping")})
		r := call(k, tk, sysabi.Call{Op: sysabi.OpRead, FD: sfd, Args: [2]int64{64, 0}})
		call(k, tk, sysabi.Call{Op: sysabi.OpWrite, FD: sfd, Buf: r.Data})
		call(k, tk, sysabi.Call{Op: sysabi.OpRead, FD: cfd, Args: [2]int64{64, 0}})
	})
	if rec.SpansEnabled() {
		t.Fatal("spans on without EnableSpans")
	}
	if got := rec.Counter(obs.CVOSNetBytes); got != 16 {
		t.Errorf("%s = %d, want 16", obs.CVOSNetBytes, got)
	}
	if got := rec.Gauge(obs.GVOSOpenFDs); got != 3 {
		t.Errorf("%s = %d, want 3 (listener, client, server)", obs.GVOSOpenFDs, got)
	}
}

// TestSyscallFloorAllocations pins the kernel's allocation budget without
// timing anything: a read fills the buffer its caller offers or lends a
// view of the kernel's bytes, epoll_wait fills the epoll instance's own
// ready list, and the tables behind every call are slices, so nothing is
// allocated at all.
func TestSyscallFloorAllocations(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	k.WriteFile("/bulk", make([]byte, 1<<20))
	s.Go("t", func(tk *sim.Task) {
		lfd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		cfd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
		sfd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		efd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(lfd), 1}})
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(sfd), 1}})
		file := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/bulk"}).Ret)
		msg, buf := make([]byte, 64), make([]byte, 4096)
		bad := ""
		check := func(what string, r sysabi.Result, n int, filled bool) {
			if !r.OK() || int(r.Ret) != n || len(r.Data) != n || (&r.Data[0] == &buf[0]) != filled {
				bad = fmt.Sprintf("%s = %d/%v, %d bytes, in the offered buffer: %v", what, r.Ret, r.Err, len(r.Data), &r.Data[0] == &buf[0])
			}
		}
		cases := []struct {
			name string
			want float64
			step func()
		}{
			{"write64+read-offered", 0, func() {
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: cfd, Buf: msg})
				check("read", k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: sfd, Buf: buf[:0], Args: [2]int64{4096, 0}}), 64, true)
			}},
			{"fread4K-offered", 0, func() {
				check("fread", k.Invoke(tk, sysabi.Call{Op: sysabi.OpFRead, FD: file, Buf: buf[:0], Args: [2]int64{4096, 0}}), 4096, true)
			}},
			// A caller that offers nothing (the frozen benchmark client,
			// apptest, rolling) is lent a view of the inbox, and the next
			// write starts over in the inbox's spare array.
			{"write64+read-no-offer", 0, func() {
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: cfd, Buf: msg})
				check("read", k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: sfd, Args: [2]int64{4096, 0}}), 64, false)
			}},
			// An offer smaller than what is there is no offer: a view too.
			{"write64+read-small-offer", 0, func() {
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: cfd, Buf: msg})
				check("read", k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: sfd, Buf: buf[:0:32], Args: [2]int64{4096, 0}}), 64, false)
			}},
			{"epoll_wait-1-ready", 0, func() {
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: cfd, Buf: msg})
				r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efd, Args: [2]int64{64, 0}})
				if len(r.Ready) != 1 || r.Ready[0] != sfd {
					bad = fmt.Sprintf("epoll_wait = %v, want [%d]", r.Ready, sfd)
				}
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: sfd, Buf: buf[:0], Args: [2]int64{4096, 0}})
			}},
		}
		for _, tc := range cases {
			tc.step() // stream buffers reach their steady size
			if got := testing.AllocsPerRun(100, tc.step); got != tc.want || bad != "" {
				t.Errorf("%s: %v allocations per call, want %v %s", tc.name, got, tc.want, bad)
				bad = ""
			}
		}
		// The offer is capacity only: a read whose Buf has length is a
		// caller bug (the ring would copy it, the cost model charge it).
		for _, c := range []sysabi.Call{{Op: sysabi.OpRead, FD: sfd}, {Op: sysabi.OpFRead, FD: file}} {
			c.Buf, c.Args = buf[:8], [2]int64{4096, 0}
			if r := k.Invoke(tk, c); r.Err != sysabi.EINVAL {
				t.Errorf("%v with len(Buf) = 8: %v, want EINVAL", c.Op, r.Err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
