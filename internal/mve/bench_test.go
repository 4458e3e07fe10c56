package mve

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/dsl"
	"mvedsua/internal/obs"
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
// issues the same calls for ever; step runs exactly one round trip (one
// round recorded, one replay of it per follower and thread).
type replayRig struct {
	s     *sim.Scheduler
	m     *Monitor
	procs []*Proc // leader first
	tasks []*sim.Task
	gates []sim.WaitQueue // per TID: follower threads held until the next step (rigSpec.descending)
	short int             // OpFRead results that were not a full, intact chunk, OpEpollWait ones not the watched set
}

// rigTick is the leader application's think time between calls; RunFor
// of one tick is therefore one round trip.
const rigTick = time.Microsecond

// rigFile is what an OpFRead rig reads: long enough for two thousand
// 4 KiB reads before EOF, each chunk filled with its own byte.
const rigFile, rigFileSize = "/bulk", 8 << 20

// rigWatched is the file an OpEpollWait rig opens once per watched
// descriptor: an open file is always ready.
const rigWatched = "/watched"

// rigSpec says what a replay rig runs. followers == 1 attaches the duo
// follower, more attach that many fleet variants. Each of threads logical
// threads per process loops for ever, through buffers of its own, on
// round; a follower's threads issue replay instead when it is set — the
// same calls as another version orders them, which rules reconcile. An
// OpFRead call first opens rigFile and reads from that descriptor, into a
// buffer of offer bytes the thread offers (none for offer == 0), and
// checks what it gets. An OpEpollWait call first creates an epoll
// descriptor watching Args[0] descriptors of rigWatched, waits on it, and
// checks that it gets them all. With descending set the leader's threads record
// every round in descending TID order, and a follower's start on it only
// then, in ascending order (step releases them): all but one of them are
// out of turn at once. With recorded set the monitor has a flight
// recorder attached.
type rigSpec struct {
	followers, threads   int
	round, replay        []sysabi.Call
	rules                *dsl.RuleSet
	offer                int
	descending, recorded bool
}

// oneCall is the spec of a rule-less rig whose round is one call.
func oneCall(followers, threads int, call sysabi.Call, offer int) rigSpec {
	return rigSpec{followers: followers, threads: threads, round: []sysabi.Call{call}, offer: offer}
}

// rewritten is the spec of a rig in which every event pair is rewritten:
// kvstore 2.0.0 samples the clock and then writes its reply, 2.0.1 writes
// and then samples, and the shipped rule for the pair swaps the two for
// the follower — forward with a 2.0.0 leader, reverse with a 2.0.1 one.
func rewritten(followers int, reverse bool, reply sysabi.Call) rigSpec {
	fwd, rev := kvstore.RulesFor("2.0.0", "2.0.1")
	old := []sysabi.Call{{Op: sysabi.OpClock}, reply}
	updated := []sysabi.Call{reply, {Op: sysabi.OpClock}}
	if reverse {
		return rigSpec{followers: followers, threads: 1, round: updated, replay: old, rules: rev}
	}
	return rigSpec{followers: followers, threads: 1, round: old, replay: updated, rules: fwd}
}

// recorded is spec with a flight recorder attached.
func recorded(spec rigSpec) rigSpec {
	spec.recorded = true
	return spec
}

func newReplayRig(tb testing.TB, spec rigSpec) *replayRig {
	tb.Helper()
	s := sim.New()
	k := vos.NewKernel(s)
	for _, call := range spec.round {
		switch call.Op {
		case sysabi.OpFRead:
			file := make([]byte, rigFileSize)
			for i := range file {
				file[i] = byte(i / int(call.Args[0]))
			}
			k.WriteFile(rigFile, file)
		case sysabi.OpEpollWait:
			k.WriteFile(rigWatched, nil)
		}
	}
	r := &replayRig{s: s, m: New(k, 256, Costs{})}
	if spec.recorded {
		r.m.SetRecorder(obs.New(s.Now, obs.Options{}))
	}
	r.procs = []*Proc{r.m.StartSingleLeader("leader")}
	if spec.descending {
		r.gates = make([]sim.WaitQueue, spec.threads)
	}
	if spec.followers == 1 {
		r.procs = append(r.procs, r.m.AttachCandidate("follower", spec.rules, 0))
	} else {
		for i := 1; i <= spec.followers; i++ {
			r.procs = append(r.procs, r.m.AttachVariant(fmt.Sprintf("v%d", i), spec.rules))
		}
	}
	for pi, p := range r.procs {
		round := spec.round
		if pi > 0 && spec.replay != nil {
			round = spec.replay
		}
		for i := 0; i < spec.threads; i++ {
			pi, p, tid := pi, p, i
			if pi == 0 && spec.descending {
				tid = spec.threads - 1 - i
			}
			r.tasks = append(r.tasks, s.Go(fmt.Sprintf("%s/t%d", p.Name(), tid), func(tk *sim.Task) {
				calls := make([]sysabi.Call, len(round))
				var watched []int
				for i, call := range round {
					c := call.Clone()
					c.TID = tid
					switch c.Op {
					case sysabi.OpFRead:
						c.FD = int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: rigFile, TID: tid}).Ret)
						if spec.offer > 0 {
							c.Buf = make([]byte, 0, spec.offer)
						}
					case sysabi.OpEpollWait:
						c.FD = int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCreate, TID: tid}).Ret)
						for j := int64(0); j < c.Args[0]; j++ {
							fd := p.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: rigWatched, TID: tid}).Ret
							p.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: c.FD, Args: [2]int64{fd, 1}, TID: tid})
							watched = append(watched, int(fd))
						}
					}
					calls[i] = c
				}
				for n := 0; ; n++ {
					for _, c := range calls {
						res := p.Invoke(tk, c)
						switch d := res.Data; c.Op {
						case sysabi.OpFRead:
							if int64(len(d)) != c.Args[0] || d[0] != byte(n) || d[len(d)-1] != byte(n) {
								r.short++
							}
						case sysabi.OpEpollWait:
							if !slices.Equal(res.Ready, watched) {
								r.short++
							}
						}
					}
					if pi == 0 {
						tk.Sleep(rigTick)
					} else if spec.descending {
						tk.Block(&r.gates[tid])
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
	for i := range r.gates {
		r.gates[i].WakeAll(r.s)
	}
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

// epollWaitCall is an epoll_wait that finds ready descriptors ready.
func epollWaitCall(ready int64) sysabi.Call {
	return sysabi.Call{Op: sysabi.OpEpollWait, Args: [2]int64{ready, 0}}
}

func benchRecordReplay(b *testing.B, spec rigSpec) {
	benchRecordReplayRig(b, newReplayRig(b, spec), spec)
}

func benchRecordReplayRig(b *testing.B, r *replayRig, spec rigSpec) {
	recorded := r.m.Stats.Recorded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step(b)
	}
	b.StopTimer()
	if got, want := r.m.Stats.Recorded-recorded, int64(b.N*spec.threads*len(spec.round)); got != want {
		b.Fatalf("recorded %d events in %d steps, want %d", got, b.N, want)
	}
}

func BenchmarkRecordReplayClock(b *testing.B) {
	benchRecordReplay(b, oneCall(1, 1, sysabi.Call{Op: sysabi.OpClock}, 0))
}
func BenchmarkRecordReplayWrite64(b *testing.B) {
	benchRecordReplay(b, oneCall(1, 1, writeCall(64), 0))
}

// BenchmarkRecordReplayWrite64Recorded is Write64 with a flight recorder
// attached: the difference is the recorder's per-event tax.
func BenchmarkRecordReplayWrite64Recorded(b *testing.B) {
	benchRecordReplay(b, recorded(oneCall(1, 1, writeCall(64), 0)))
}
func BenchmarkRecordReplayBulk4K(b *testing.B) {
	benchRecordReplay(b, oneCall(1, 1, writeCall(4096), 0))
}
func BenchmarkRecordReplayK3(b *testing.B) { benchRecordReplay(b, oneCall(3, 1, writeCall(64), 0)) }

// BenchmarkRecordReplayThreaded is four leader threads against four
// follower threads: one step is four events, demultiplexed by TID and
// validated in the leader's global order.
func BenchmarkRecordReplayThreaded(b *testing.B) {
	benchRecordReplay(b, oneCall(1, 4, writeCall(64), 0))
}

// BenchmarkRecordReplayOutOfTurn is the same four events a step with
// the leader's order reversed, memcache's steady state in small: every
// retirement wakes three follower threads of which at most one is in
// turn, and the scheduler parks the others again without switching to
// them (sim.Task.BlockWhile; settled/op counts them).
func BenchmarkRecordReplayOutOfTurn(b *testing.B) {
	spec := oneCall(1, 4, writeCall(64), 0)
	spec.descending = true
	r := newReplayRig(b, spec)
	settled, dispatches := r.s.Settled(), r.s.Dispatches()
	benchRecordReplayRig(b, r, spec)
	b.ReportMetric(float64(r.s.Settled()-settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(r.s.Dispatches()-dispatches)/float64(b.N), "dispatches/op")
}

// BenchmarkRecordReplayRewritten is the steady state of a duo held in
// the outdated-leader stage of kvstore 2.0.0 -> 2.0.1: one step is a
// clock read and a 64-byte reply recorded, and a rule hit that swaps
// them before the follower validates its write and its clock read.
func BenchmarkRecordReplayRewritten(b *testing.B) {
	benchRecordReplay(b, rewritten(1, false, writeCall(64)))
}
