package mve

import (
	"fmt"
	"testing"
	"time"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// Record/replay microbenchmarks: one iteration is one leader syscall
// recorded into the ring and validated by every follower. The acceptance
// bar is the allocation column — 0 B/op for calls whose payload is only
// compared (TestReplayZeroAllocs pins the same numbers in tier-1).
//
// Run with:
//
//	make bench-replay
//
// `make check` smoke-runs every benchmark for one iteration so they
// cannot silently rot.

// replayRig is a leader and its followers, each an application that
// issues the same call for ever; step runs exactly one round trip (one
// call recorded, one replay per follower and thread).
type replayRig struct {
	s     *sim.Scheduler
	m     *Monitor
	procs []*Proc // leader first
	tasks []*sim.Task
	short int // OpFRead results that were not a full, intact chunk
}

// rigTick is the leader application's think time between calls; RunFor
// of one tick is therefore one round trip.
const rigTick = time.Microsecond

// rigFile is what an OpFRead rig reads: long enough for two thousand
// 4 KiB reads before EOF, each chunk filled with its own byte.
const rigFile, rigFileSize = "/bulk", 8 << 20

// newReplayRig builds the rig: followers == 1 attaches the duo follower,
// more attach that many fleet variants. Each of threads logical threads
// per process loops on call through a buffer of its own; an OpFRead call
// first opens rigFile and reads from that descriptor, into a buffer of
// offer bytes the thread offers (none for offer == 0), and checks what
// it gets.
func newReplayRig(tb testing.TB, followers, threads int, call sysabi.Call, offer int) *replayRig {
	tb.Helper()
	s := sim.New()
	k := vos.NewKernel(s)
	if call.Op == sysabi.OpFRead {
		file := make([]byte, rigFileSize)
		for i := range file {
			file[i] = byte(i / int(call.Args[0]))
		}
		k.WriteFile(rigFile, file)
	}
	r := &replayRig{s: s, m: New(k, 256, Costs{})}
	r.procs = []*Proc{r.m.StartSingleLeader("leader")}
	if followers == 1 {
		r.procs = append(r.procs, r.m.AttachFollower("follower", nil))
	} else {
		for i := 1; i <= followers; i++ {
			r.procs = append(r.procs, r.m.AttachVariant(fmt.Sprintf("v%d", i), nil))
		}
	}
	for pi, p := range r.procs {
		for tid := 0; tid < threads; tid++ {
			pi, p, tid := pi, p, tid
			r.tasks = append(r.tasks, s.Go(fmt.Sprintf("%s/t%d", p.Name(), tid), func(tk *sim.Task) {
				c := call.Clone()
				c.TID = tid
				if c.Op == sysabi.OpFRead {
					c.FD = int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: rigFile, TID: tid}).Ret)
					if offer > 0 {
						c.Buf = make([]byte, 0, offer)
					}
				}
				for n := 0; ; n++ {
					res := p.Invoke(tk, c)
					if d := res.Data; c.Op == sysabi.OpFRead &&
						(int64(len(d)) != c.Args[0] || d[0] != byte(n) || d[len(d)-1] != byte(n)) {
						r.short++
					}
					if pi == 0 {
						tk.Sleep(rigTick)
					}
				}
			}))
		}
	}
	// Warm up: backing arrays, per-thread streams and the payload pool
	// reach their steady state within a few round trips.
	for i := 0; i < 32; i++ {
		r.step(tb)
	}
	tb.Cleanup(r.stop)
	return r
}

func (r *replayRig) step(tb testing.TB) {
	if err := r.s.RunFor(rigTick); err != nil {
		tb.Fatalf("RunFor: %v", err)
	}
}

// stop unwinds the rig's tasks, which would otherwise stay parked.
func (r *replayRig) stop() {
	for _, tk := range r.tasks {
		tk.Kill()
	}
	r.s.Run()
}

func writeCall(size int) sysabi.Call {
	// No such descriptor: the kernel answers EBADF without touching the
	// payload, which the monitor records, compares and recycles all the same.
	return sysabi.Call{Op: sysabi.OpWrite, FD: 99, Buf: make([]byte, size)}
}

func freadCall(size int64) sysabi.Call {
	return sysabi.Call{Op: sysabi.OpFRead, Args: [2]int64{size, 0}}
}

func benchRecordReplay(b *testing.B, followers, threads int, call sysabi.Call) {
	r := newReplayRig(b, followers, threads, call, 0)
	recorded := r.m.Stats.Recorded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step(b)
	}
	b.StopTimer()
	if got, want := r.m.Stats.Recorded-recorded, int64(b.N*threads); got != want {
		b.Fatalf("recorded %d events in %d steps, want %d", got, b.N, want)
	}
}

func BenchmarkRecordReplayClock(b *testing.B) {
	benchRecordReplay(b, 1, 1, sysabi.Call{Op: sysabi.OpClock})
}
func BenchmarkRecordReplayWrite64(b *testing.B) { benchRecordReplay(b, 1, 1, writeCall(64)) }
func BenchmarkRecordReplayBulk4K(b *testing.B)  { benchRecordReplay(b, 1, 1, writeCall(4096)) }
func BenchmarkRecordReplayK3(b *testing.B)      { benchRecordReplay(b, 3, 1, writeCall(64)) }

// BenchmarkRecordReplayThreaded is four leader threads against four
// follower threads: one step is four events, demultiplexed by TID and
// validated in the leader's global order.
func BenchmarkRecordReplayThreaded(b *testing.B) { benchRecordReplay(b, 1, 4, writeCall(64)) }
