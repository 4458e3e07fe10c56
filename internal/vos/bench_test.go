package vos_test

import (
	"testing"

	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// Syscall-floor microbenchmarks: what one intercepted call costs an
// application under a single-leader monitor over a real kernel — the
// floor every workload stands on. The allocation column is the point
// (TestSyscallFloorAllocations pins it in tier-1).
//
// Run with:
//
//	make bench-floor
//
// `make check` smoke-runs every benchmark for one iteration so they
// cannot silently rot.

// benchFloor runs body as the one application task of a fresh world; the
// application keeps the listener, an accepted connection and its client
// end, and an epoll descriptor watching watched connections of which only
// that one ever has data. The client's end is driven by the same task,
// through the same monitor. profiled attaches a virtual-clock profiler
// sink to the world's scheduler, so the twin of a floor prices the
// profiler's wall-clock tax.
func benchFloor(b *testing.B, watched int, profiled bool, body func(p sysabi.Dispatcher, tk *sim.Task, efd, cfd, sfd int)) {
	s := sim.New()
	if profiled {
		s.SetProfiler(obs.NewProfiler().ShardSink(0, s.Now))
	}
	k := vos.NewKernel(s)
	k.WriteFile("/bulk", make([]byte, 1<<20))
	p := mve.New(k, 16, mve.Costs{}).StartSingleLeader("leader")
	s.Go("app", func(tk *sim.Task) {
		lfd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		efd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
		var cfd, sfd int
		for i := 0; i < watched; i++ {
			cfd = int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
			sfd = int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(sfd), 1}})
		}
		body(p, tk, efd, cfd, sfd)
	})
	if err := s.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkSyscallFloorEcho64 is a 64-byte request read into the
// application's buffer and echoed back.
func BenchmarkSyscallFloorEcho64(b *testing.B) { benchEcho64(b, false) }

// BenchmarkSyscallFloorEcho64Profiled is the same echo with a profiler
// sink attached: the difference to BenchmarkSyscallFloorEcho64 is what
// profiling costs per four intercepted calls.
func BenchmarkSyscallFloorEcho64Profiled(b *testing.B) { benchEcho64(b, true) }

func benchEcho64(b *testing.B, profiled bool) {
	benchFloor(b, 1, profiled, func(p sysabi.Dispatcher, tk *sim.Task, _, cfd, sfd int) {
		msg, buf, reply := make([]byte, 64), make([]byte, 4096), make([]byte, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: cfd, Buf: msg}) // the client's side
			r := p.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: sfd, Buf: buf[:0], Args: [2]int64{4096, 0}})
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: sfd, Buf: r.Data})
			if r = p.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: cfd, Buf: reply[:0], Args: [2]int64{4096, 0}}); r.Ret != 64 {
				b.Fatalf("echo = %d/%v", r.Ret, r.Err)
			}
		}
	})
}

// BenchmarkSyscallFloorFRead4K is one 4 KiB chunk of a file transfer:
// read from the file into the application's buffer, written to the
// socket (and drained on the client's side).
func BenchmarkSyscallFloorFRead4K(b *testing.B) {
	benchFloor(b, 1, false, func(p sysabi.Dispatcher, tk *sim.Task, _, cfd, sfd int) {
		buf, sink := make([]byte, 4096), make([]byte, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		file := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/bulk"}).Ret)
		for i := 0; i < b.N; i++ {
			r := p.Invoke(tk, sysabi.Call{Op: sysabi.OpFRead, FD: file, Buf: buf[:0], Args: [2]int64{4096, 0}})
			if r.Ret == 0 { // end of file: the next transfer starts
				p.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: file})
				file = int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/bulk"}).Ret)
				r = p.Invoke(tk, sysabi.Call{Op: sysabi.OpFRead, FD: file, Buf: buf[:0], Args: [2]int64{4096, 0}})
			}
			if r.Ret != 4096 {
				b.Fatalf("fread = %d/%v", r.Ret, r.Err)
			}
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: sfd, Buf: r.Data})
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: cfd, Buf: sink[:0], Args: [2]int64{4096, 0}})
		}
	})
}

// BenchmarkSyscallFloorEpollWait1of64 is an epoll_wait over 64 watched
// connections of which one is ready.
func BenchmarkSyscallFloorEpollWait1of64(b *testing.B) {
	benchFloor(b, 64, false, func(p sysabi.Dispatcher, tk *sim.Task, efd, cfd, sfd int) {
		p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: cfd, Buf: make([]byte, 64)})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := p.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efd, Args: [2]int64{64, 0}})
			if len(r.Ready) != 1 || r.Ready[0] != sfd {
				b.Fatalf("epoll_wait = %v, want [%d]", r.Ready, sfd)
			}
		}
	})
}
