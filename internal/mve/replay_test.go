package mve

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// TestReplayZeroAllocs pins the record/replay path's allocation budget
// without timing anything: a recorded-and-replayed call whose payload is
// only compared allocates nothing, and neither does a read into a buffer
// the application offers, nor an epoll_wait; a read that offers none, or
// too little, allocates exactly the buffers the followers' applications
// end up owning — the leader's is lent a view of the kernel's bytes.
func TestReplayZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		spec rigSpec
		want float64
	}{
		{name: "clock", spec: oneCall(1, 1, sysabi.Call{Op: sysabi.OpClock}, 0)},
		{name: "write64", spec: oneCall(1, 1, writeCall(64), 0)},
		{name: "write4K", spec: oneCall(1, 1, writeCall(4096), 0)},
		// The kernel fills the leader's buffer, the follower's monitor
		// the follower's, and the ring's copy goes back to the pool.
		{name: "fread4K", spec: oneCall(1, 1, freadCall(4096), 4096)},
		// No offer: the leader application is lent a view of the file's
		// bytes, and the follower application's buffer is the ring's
		// copy, handed over.
		{name: "fread4K/no-offer", spec: oneCall(1, 1, freadCall(4096), 0), want: 1},
		// An offer too small for what the leader read is no offer.
		{name: "fread4K/small-offer", spec: oneCall(1, 1, freadCall(4096), 1024), want: 1},
		{name: "K3/write64", spec: oneCall(3, 1, writeCall(64), 0)},
		{name: "K3/write4K", spec: oneCall(3, 1, writeCall(4096), 0)},
		{name: "K3/fread4K", spec: oneCall(3, 1, freadCall(4096), 4096)},
		// One buffer per variant's application; the leader's is lent.
		{name: "K3/fread4K/no-offer", spec: oneCall(3, 1, freadCall(4096), 0), want: 3},
		{name: "K3/fread4K/small-offer", spec: oneCall(3, 1, freadCall(4096), 1024), want: 3},
		{name: "threaded/write64", spec: oneCall(1, 4, writeCall(64), 0)},
		// The kernel fills the epoll instance's ready list, each follower's
		// monitor the thread's own, and the ring's copy goes back to the pool.
		{name: "epoll_wait", spec: oneCall(1, 1, epollWaitCall(1), 0)},
		{name: "K3/epoll_wait", spec: oneCall(3, 1, epollWaitCall(1), 0)},
		// Every event pair rewritten: the rule binds the reply as a view,
		// the emitted write takes the recorded buffer, and retiring it
		// gives that buffer back to the ring.
		{name: "rewritten/write64", spec: rewritten(1, false, writeCall(64))},
		{name: "rewritten/write4K", spec: rewritten(1, false, writeCall(4096))},
		{name: "rewritten-reverse/write64", spec: rewritten(1, true, writeCall(64))},
		{name: "K3/rewritten/write64", spec: rewritten(3, false, writeCall(64))},
		{name: "K3/rewritten-reverse/write4K", spec: rewritten(3, true, writeCall(4096))},
		// A flight recorder counts every event and traces none, and a
		// rule's hits after its first are not milestones.
		{name: "recorded/write64", spec: recorded(oneCall(1, 1, writeCall(64), 0))},
		{name: "recorded/K3/fread4K", spec: recorded(oneCall(3, 1, freadCall(4096), 4096))},
		{name: "recorded/rewritten/write64", spec: recorded(rewritten(1, false, writeCall(64)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newReplayRig(t, tc.spec)
			replayed, rewritten := r.m.Stats.Replayed, r.m.Stats.Rewritten
			const runs = 100
			got := testing.AllocsPerRun(runs, func() { r.step(t) })
			if got != tc.want {
				t.Errorf("%v allocations per round trip, want %v", got, tc.want)
			}
			// AllocsPerRun makes one warm-up call on top of runs.
			trips := int64((runs + 1) * tc.spec.followers * tc.spec.threads)
			if n, want := r.m.Stats.Replayed-replayed, trips*int64(len(tc.spec.round)); n != want {
				t.Errorf("replayed %d events, want %d: a step is not one round trip", n, want)
			}
			if n := r.m.Stats.Rewritten - rewritten; tc.spec.rules != nil && n != trips {
				t.Errorf("%d rule hits in %d round trips", n, trips)
			}
			if len(r.m.Divergences()) != 0 {
				t.Errorf("divergences: %v", r.m.Divergences())
			}
			if r.short != 0 {
				t.Errorf("%d reads returned something other than the full chunk", r.short)
			}
		})
	}
}

// TestRewrittenWritesRecycleRingBuffers: AllocsPerRun rounds down, so a
// pool that made a new buffer every few round trips would still read 0
// above. A thousand rewritten 4 KiB replies must come to (next to) no
// bytes at all: the buffer a rule hit moves into its emitted event is the
// one retirement gives back, and the ring's pool makes no new one after
// warm-up. One each would be 4 MiB and more.
func TestRewrittenWritesRecycleRingBuffers(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec rigSpec
	}{
		{"forward", rewritten(1, false, writeCall(4096))},
		{"reverse", rewritten(1, true, writeCall(4096))},
		{"K3/forward", rewritten(3, false, writeCall(4096))},
		{"K3/reverse", rewritten(3, true, writeCall(4096))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReplayRig(t, tc.spec)
			const trips = 1000
			hits := r.m.Stats.Rewritten
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < trips; i++ {
				r.step(t)
			}
			runtime.ReadMemStats(&after)
			if n := r.m.Stats.Rewritten - hits; n != int64(trips*tc.spec.followers) || len(r.m.Divergences()) != 0 {
				t.Fatalf("%d rule hits, divergences %v; want %d and none", n, r.m.Divergences(), trips*tc.spec.followers)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("%d rewritten replies allocated %d bytes: the moved buffers are not recycled", trips*tc.spec.followers, got)
			}
		})
	}
}

// TestReplayedReadsRecycleRingBuffers: a thousand replayed 4 KiB reads
// draw the ring's copy of their data from the payload pool. Before reads
// filled the follower's own buffer, the follower's application kept each
// buffer it took, so the pool never had one to give and every read
// allocated a new one.
func TestReplayedReadsRecycleRingBuffers(t *testing.T) {
	for _, followers := range []int{1, 3} {
		t.Run(fmt.Sprintf("K%d", followers), func(t *testing.T) {
			r := newReplayRig(t, oneCall(followers, 1, freadCall(4096), 4096))
			const reads = 1000
			replayed := r.m.Stats.Replayed
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reads; i++ {
				r.step(t)
			}
			runtime.ReadMemStats(&after)
			if n := r.m.Stats.Replayed - replayed; n != int64(reads*followers) || r.short != 0 {
				t.Fatalf("replayed %d reads, %d of them short; want %d and none", n, r.short, reads*followers)
			}
			// One buffer each would be 4 MiB and more.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("%d replayed reads allocated %d bytes: the ring's buffers are not recycled", reads*followers, got)
			}
		})
	}
}

// TestReplayedReadyListsRecycleRingBuffers: the same for a thousand
// replayed epoll_waits that find 64 descriptors ready. Before a follower
// copied the recorded list into storage of its thread, its application
// kept the ring's copy, and every wait allocated a new one.
func TestReplayedReadyListsRecycleRingBuffers(t *testing.T) {
	for _, followers := range []int{1, 3} {
		t.Run(fmt.Sprintf("K%d", followers), func(t *testing.T) {
			r := newReplayRig(t, oneCall(followers, 1, epollWaitCall(64), 0))
			const waits = 1000
			replayed := r.m.Stats.Replayed
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < waits; i++ {
				r.step(t)
			}
			runtime.ReadMemStats(&after)
			if n := r.m.Stats.Replayed - replayed; n != int64(waits*followers) || r.short != 0 {
				t.Fatalf("replayed %d waits, %d of them wrong; want %d and none", n, r.short, waits*followers)
			}
			// One list each would be 512 KiB and more.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("%d replayed waits allocated %d bytes: the ring's lists are not recycled", waits*followers, got)
			}
		})
	}
}

// TestRefusedAppendCopiesNothing: under FullDiscard an event the full
// ring refuses must cost the serving path nothing — the leader used to
// clone call and result before asking. The drop is still counted and
// traced exactly as before.
func TestRefusedAppendCopiesNothing(t *testing.T) {
	s, _, m := world(2, Costs{})
	rec := obs.New(s.Now, obs.Options{})
	m.FullPolicy = FullDiscard
	leader := m.StartSingleLeader("v0")
	m.AttachCandidate("v1", nil, 0) // never consumes
	stalls := 0
	m.OnStall = func(st Stall) {
		stalls++
		if st.Reason != "buffer-full" || st.Proc != "v1" || st.Pending != 2 || st.Dropped != stalls {
			t.Errorf("stall %d = %+v", stalls, st)
		}
	}
	const refused = 200
	var perCall uint64
	s.Go("leader", func(tk *sim.Task) {
		call := writeCall(4096)
		leader.Invoke(tk, call)
		leader.Invoke(tk, call) // the ring is full from here on
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < refused; i++ {
			leader.Invoke(tk, call)
		}
		runtime.ReadMemStats(&after)
		perCall = (after.TotalAlloc - before.TotalAlloc) / refused
		// One more with the recorder attached, for the trace text.
		m.SetRecorder(rec)
		leader.Invoke(tk, call)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The stall report itself is a few dozen bytes; a copied payload
	// would be 4 096 and more.
	if perCall >= 512 {
		t.Errorf("a refused append allocates %d bytes, want none for the 4 KiB payload", perCall)
	}
	if b := m.Buffer(); b.Dropped != refused+1 || b.Len() != 2 || m.Stats.Recorded != 2 {
		t.Errorf("Dropped = %d, Len = %d, Recorded = %d; want %d, 2, 2", b.Dropped, b.Len(), m.Stats.Recorded, refused+1)
	}
	var discards []string
	for _, e := range rec.Milestones() {
		if e.Kind == obs.KindRingDiscard {
			discards = append(discards, e.Detail)
		}
	}
	if len(discards) != 1 || !strings.Contains(discards[0], fmt.Sprintf("dropped (%d total, occ 2/2)", refused+1)) ||
		!strings.HasPrefix(discards[0], "#0 write(fd=99, ") {
		t.Errorf("ring.discard trace = %q", discards)
	}
}

// ownerEcho is the echo server run by an application that treats every
// buffer as its own the moment the syscall returns. With scribble it
// overwrites the data it was handed and, after the write, the buffer it
// wrote from; without, it holds both across the write and checks that
// nobody else wrote to them. It logs every request it served.
func ownerEcho(p *Proc, scribble bool, delay time.Duration, log *[]string) func(*sim.Task) {
	fill := func(b []byte, c byte) {
		for i := range b {
			b[i] = c
		}
	}
	return func(tk *sim.Task) {
		lfd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}}).Ret)
		fd := int(p.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
		for {
			if delay > 0 {
				tk.Sleep(delay)
			}
			r := p.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
			if r.Ret == 0 {
				return
			}
			in := string(r.Data)
			out := append([]byte("echo:"), r.Data...)
			if scribble {
				fill(r.Data, '!')
			}
			p.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: out})
			if scribble {
				fill(out, '?')
			} else if string(r.Data) != in || string(out) != "echo:"+in {
				in = fmt.Sprintf("%q: buffers changed while held: data %q, out %q", in, r.Data, out)
			}
			*log = append(*log, in)
		}
	}
}

// runScribbleWorld serves msgs through a leader and k followers (a lone
// candidate for k == 1, replicas otherwise) on a four-entry ring, so
// slots and pooled buffers are reused constantly, and returns the client's
// replies, every process's reply log and the divergences.
func runScribbleWorld(t *testing.T, k int, scribble bool, msgs []string) (replies []string, logs [][]string, divs []Divergence) {
	t.Helper()
	s, kern, m := world(4, Costs{})
	procs := []*Proc{m.StartSingleLeader("v0")}
	if k == 1 {
		procs = append(procs, m.AttachCandidate("v1", nil, 0))
	} else {
		for i := 1; i <= k; i++ {
			procs = append(procs, m.AttachVariant(fmt.Sprintf("r%d", i), nil))
		}
	}
	logs = make([][]string, len(procs))
	for i, p := range procs {
		// Followers run at different paces, so both hand-over and copy
		// happen on the takers' side.
		s.Go(p.Name(), ownerEcho(p, scribble, time.Duration(i)*time.Microsecond, &logs[i]))
	}
	s.Go("client", client(kern, msgs, &replies))
	s.Go("teardown", func(tk *sim.Task) {
		for i := 0; i < len(logs); i++ {
			for len(logs[i]) < len(msgs) {
				tk.Sleep(time.Millisecond)
			}
		}
		// The leader reads EOF next and exits; the followers are reaped.
		ejectAll(m, "test teardown")
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return replies, logs, m.Divergences()
}

// TestApplicationsOwnTheirBuffers: the leader application overwrites its
// write buffer and the data it was handed right after each syscall
// returns, and so does every follower application; nobody diverges, and
// the client and every process see exactly what a run that leaves the
// buffers alone (and checks that nobody else touches them) sees.
func TestApplicationsOwnTheirBuffers(t *testing.T) {
	var msgs, echoes []string
	for i := 0; i < 300; i++ {
		msgs = append(msgs, strings.Repeat(string(rune('a'+i%26)), 1+i%100))
		echoes = append(echoes, "echo:"+msgs[i])
	}
	for _, k := range []int{1, 3} {
		for _, scribble := range []bool{false, true} {
			t.Run(fmt.Sprintf("K%d/scribble=%v", k, scribble), func(t *testing.T) {
				replies, logs, divs := runScribbleWorld(t, k, scribble, msgs)
				if len(divs) != 0 {
					t.Fatalf("diverged: %v", divs[0])
				}
				if strings.Join(replies, "|") != strings.Join(echoes, "|") {
					t.Fatalf("client replies = %q...", replies[:min(len(replies), 3)])
				}
				for i := range logs {
					if strings.Join(logs[i], "|") != strings.Join(msgs, "|") {
						t.Fatalf("process %d served %d requests: %q...", i, len(logs[i]), logs[i][:min(len(logs[i]), 3)])
					}
				}
			})
		}
	}
}

// TestDivergenceReportOwnsItsBytes: a canary absorbs a divergence inside
// its budget, retires the event — its write payload goes back to the
// ring — and validates a thousand more events through the recycled
// buffers. The report must still show the bytes the leader wrote.
func TestDivergenceReportOwnsItsBytes(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			s, kern, m := world(4, Costs{})
			leader := m.StartSingleLeader("v0")
			for i := 1; i < k; i++ {
				m.AttachVariant(fmt.Sprintf("r%d", i), nil)
			}
			canary := m.AttachCandidate(fmt.Sprintf("r%d", k), nil, 1)

			const events = 1001
			msgs := make([]string, events)
			for i := range msgs {
				msgs[i] = fmt.Sprintf("msg-%04d", i)
			}
			var replies []string
			done := 0
			s.Go("leader", leaderEcho(kern, leader, events))
			for _, v := range m.Variants() {
				v := v
				first := true
				s.Go(v.Name(), func(tk *sim.Task) {
					leaderEchoLike(v, events, func(b []byte) []byte {
						if v == canary && first {
							first = false
							return bytes.ToUpper(b) // the one disagreement
						}
						return b
					})(tk)
					done++
				})
			}
			s.Go("client", client(kern, msgs, &replies))
			s.Go("teardown", func(tk *sim.Task) {
				for done < k {
					tk.Sleep(time.Millisecond)
				}
				ejectAll(m, "test teardown")
			})
			if err := s.RunFor(time.Second); err != nil {
				t.Fatalf("Run: %v", err)
			}
			divs := m.Divergences()
			if len(divs) != 1 || canary.Failed() || done != k {
				t.Fatalf("divergences = %v, canary failed = %v, done = %d", divs, canary.Failed(), done)
			}
			if got := string(divs[0].Expected.Call.Buf); got != "msg-0000" {
				t.Errorf("Expected.Call.Buf = %q after %d recycled events, want %q", got, events-1, "msg-0000")
			}
			if got := string(divs[0].Got.Buf); got != "MSG-0000" {
				t.Errorf("Got.Buf = %q, want %q", got, "MSG-0000")
			}
			if replies[events-1] != msgs[events-1] {
				t.Errorf("last reply = %q", replies[events-1])
			}
		})
	}
}
