package kvstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// Syscall-floor microbenchmarks for the request path: one iteration is
// one client request served by the epoll loop under a single-leader
// monitor over a real kernel — epoll_wait, read, parse, execute, clock,
// write. The allocation column is the point (TestServeLoopAllocations
// pins it in tier-1); `make bench-floor` runs them with the kernel's.

// floorRig is a 2.0.0 server with a few preloaded keys and one client
// that repeats a request for ever; step serves exactly one.
type floorRig struct {
	s      *sim.Scheduler
	srv    *Server
	rt     *dsu.Runtime
	client *sim.Task
	bad    int // replies that were not the expected one
}

// floorTick is the client's think time; RunFor of one tick is one
// request.
const floorTick = time.Microsecond

func newFloorRig(tb testing.TB, cmd, want string) *floorRig {
	tb.Helper()
	s := sim.New()
	k := vos.NewKernel(s)
	m := mve.New(k, 16, mve.Costs{})
	r := &floorRig{s: s, srv: New(SpecFor("2.0.0", false))}
	r.srv.Preload(16)
	r.rt = dsu.NewRuntime(s, r.srv, dsu.Config{Name: "leader", Dispatcher: m.StartSingleLeader("leader")})
	r.rt.Start()
	r.client = s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{Port, 0}}).Ret)
		req, reply := []byte(cmd+"\r\n"), make([]byte, 0, 256)
		for {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: req})
			res := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Buf: reply, Args: [2]int64{256, 0}})
			if string(res.Data) != want {
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
	floorGet, floorGetReply = "GET key:00000003", "$12\r\nval:00000003\r\n"
	floorSet, floorSetReply = "SET key:00000005 fresh-value", "+OK\r\n"
)

func benchFloor(b *testing.B, cmd, want string) {
	r := newFloorRig(b, cmd, want)
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

func BenchmarkSyscallFloorKVGet(b *testing.B) { benchFloor(b, floorGet, floorGetReply) }
func BenchmarkSyscallFloorKVSet(b *testing.B) { benchFloor(b, floorSet, floorSetReply) }

// Store microbenchmarks at three sizes (`make bench-fork`). Fork is the
// point: its time and bytes must not depend on how much the store holds.
// Get and PutNew are the tax the trie charges the request path for that;
// Preload is kv_update_cycle's set-up.
var storeSizes = []int{5_000, 50_000, 500_000}

func benchSizes(b *testing.B, run func(b *testing.B, n int)) {
	for _, n := range storeSizes {
		b.Run(fmt.Sprintf("keys%d", n), func(b *testing.B) {
			b.ReportAllocs()
			run(b, n)
		})
	}
}

func preloaded(n int) *Server {
	s := New(SpecFor("2.0.0", false))
	s.Preload(n)
	return s
}

var forkSink dsu.App

func BenchmarkFork(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		s := preloaded(n)
		// What the collector charges per allocated byte grows with the
		// live heap whoever allocates; it runs off the clock here so the
		// time column is Fork's own.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%8192 == 8191 {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
			}
			forkSink = s.Fork()
		}
	})
}

func BenchmarkPreload(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		for i := 0; i < b.N; i++ {
			forkSink = preloaded(n)
		}
	})
}

// BenchmarkStoreGet reads every key once per pass, in an order unrelated
// to the trie's.
func BenchmarkStoreGet(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		s := preloaded(n)
		keys := make([]string, 0, n)
		s.db.each(func(k string, _ *entry) { keys = append(keys, k) })
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.db.get(keys[i%n]) == nil {
				b.Fatalf("lost %s", keys[i%n])
			}
		}
	})
}

// BenchmarkStorePutNew inserts keys the store does not hold yet, in
// batches that are deleted again off the clock so the size stays put.
func BenchmarkStorePutNew(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		s := preloaded(n)
		fresh := make([]string, 4096)
		for i := range fresh {
			fresh[i] = fmt.Sprintf("new:%08d", i)
		}
		b.ResetTimer()
		for done := 0; done < b.N; done += len(fresh) {
			batch := fresh[:min(len(fresh), b.N-done)]
			for _, k := range batch {
				s.db.put(k, entry{typ: typeString, str: k})
			}
			b.StopTimer()
			for _, k := range batch {
				s.db.del(k)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkWriteAfterFork: one op is a fork and 1 000 first writes to
// keys it shares, the copy-on-write an update pays for.
func BenchmarkWriteAfterFork(b *testing.B) {
	const writes = 1000
	benchSizes(b, func(b *testing.B, n int) {
		s := preloaded(n)
		keys := make([]string, 0, n)
		s.db.each(func(k string, _ *entry) { keys = append(keys, k) })
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := s.Fork().(*Server)
			for j := 0; j < writes; j++ {
				c.db.mut(keys[(i*writes+j)%n]).str = "written"
			}
		}
	})
}
