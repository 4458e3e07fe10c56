package memcache

import (
	"testing"
	"time"

	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// Syscall-floor microbenchmarks for the request path on a worker thread:
// one iteration is one client request served by a worker's event loop
// under a single-leader monitor over a real kernel — epoll_wait, read,
// parse, execute, and the reply's writes. The allocation column is the
// point (TestServeLoopAllocations pins it in tier-1); `make bench-floor`
// runs them with the kernel's and kvstore's.

// floorRig is a one-worker 1.2.3 server with a few preloaded items and
// one client that repeats a request for ever; step serves exactly one.
type floorRig struct {
	s      *sim.Scheduler
	k      *vos.Kernel
	srv    *Server
	rt     *dsu.Runtime
	client *sim.Task
	bad    int // replies that were not the expected one
}

// floorTick is the client's think time; RunFor of one tick is one
// request.
const floorTick = time.Microsecond

func newFloorRig(tb testing.TB, req, want string) *floorRig {
	tb.Helper()
	s := sim.New()
	k := vos.NewKernel(s)
	m := mve.New(k, 16, mve.Costs{})
	r := &floorRig{s: s, k: k, srv: New(SpecFor("1.2.3", 1))}
	preload(r.srv, 16)
	r.rt = dsu.NewRuntime(s, r.srv, dsu.Config{Name: "leader", Dispatcher: m.StartSingleLeader("leader")})
	r.rt.Start()
	r.client = s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{Port, 0}}).Ret)
		// The main thread hands the connection to the worker before the
		// first request makes it readable.
		tk.Sleep(floorTick)
		msg, buf := []byte(req), make([]byte, 0, 256)
		for {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: msg})
			got := buf[:0]
			for len(got) < len(want) {
				res := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Buf: got[len(got):], Args: [2]int64{256, 0}})
				if res.Ret <= 0 {
					break
				}
				got = got[:len(got)+len(res.Data)]
			}
			if string(got) != want {
				r.bad++
			}
			tk.Sleep(floorTick)
		}
	})
	for i := 0; i < 32; i++ { // buffers and tables reach their steady size
		r.step(tb)
	}
	tb.Cleanup(func() {
		r.client.Kill()
		r.rt.KillAll()
		s.Run()
	})
	return r
}

func (r *floorRig) step(tb testing.TB) {
	if err := r.s.RunFor(floorTick); err != nil {
		tb.Fatalf("RunFor: %v", err)
	}
}

const (
	floorGet, floorGetReply = "get key:00000003\r\n", "VALUE key:00000003 0 12\r\nval:00000003\r\nEND\r\n"
	floorSet, floorSetReply = "set key:00000005 0 0 11\r\nfresh-value\r\n", "STORED\r\n"
)

// TestServeLoopAllocations pins the worker's allocation budget without
// timing anything: one request allocates only what the cache keeps. The
// line is a view, epoll_wait's Ready list the kernel's, the key is looked
// up without a copy and the VALUE block is encoded into the worker's
// scratch, so a get hit allocates nothing, and a set copies its key and
// its data. The replies' writes are what they always were: a hit's VALUE
// block and its END are two.
func TestServeLoopAllocations(t *testing.T) {
	for _, tc := range []struct {
		name, req, want string
		allocs          float64
		writes          int
	}{
		{"get-hit", floorGet, floorGetReply, 0, 2},
		{"set", floorSet, floorSetReply, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFloorRig(t, tc.req, tc.want)
			ops, writes := r.srv.Ops, r.k.Stats[sysabi.OpWrite]
			const runs = 100
			if got := testing.AllocsPerRun(runs, func() { r.step(t) }); got > tc.allocs {
				t.Errorf("%v allocations per request, want at most %v", got, tc.allocs)
			}
			// AllocsPerRun makes one warm-up call on top of runs.
			if n := r.srv.Ops - ops; n != runs+1 || r.bad != 0 {
				t.Errorf("served %d requests in %d steps, %d wrong replies", n, runs+1, r.bad)
			}
			// The client writes each request once.
			if n := r.k.Stats[sysabi.OpWrite] - writes; n != (runs+1)*(1+tc.writes) {
				t.Errorf("%d writes for %d requests, want %d each and the client's", n, runs+1, tc.writes)
			}
		})
	}
}

func benchFloor(b *testing.B, req, want string) {
	r := newFloorRig(b, req, want)
	ops := r.srv.Ops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step(b)
	}
	b.StopTimer()
	if got := r.srv.Ops - ops; got != int64(b.N) || r.bad != 0 {
		b.Fatalf("served %d requests in %d steps, %d wrong replies", got, b.N, r.bad)
	}
}

func BenchmarkSyscallFloorMCGet(b *testing.B) { benchFloor(b, floorGet, floorGetReply) }
func BenchmarkSyscallFloorMCSet(b *testing.B) { benchFloor(b, floorSet, floorSetReply) }
