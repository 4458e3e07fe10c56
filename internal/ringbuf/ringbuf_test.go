package ringbuf

import (
	"testing"
	"testing/quick"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

func ev(op sysabi.Op, payload string) sysabi.Event {
	return sysabi.Event{
		Call:   sysabi.Call{Op: op, Buf: []byte(payload)},
		Result: sysabi.Result{Ret: int64(len(payload))},
	}
}

// putEvent records a syscall event.
func putEvent(b *Buffer, t *sim.Task, ev sysabi.Event) bool {
	return b.Put(t, Entry{Kind: KindSyscall, Event: ev})
}

func TestPutGetOrder(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	var got []string
	s.Go("producer", func(tk *sim.Task) {
		for _, p := range []string{"a", "b", "c"} {
			putEvent(b, tk, ev(sysabi.OpWrite, p))
		}
	})
	s.Go("consumer", func(tk *sim.Task) {
		for i := 0; i < 3; i++ {
			e, ok := b.Get(tk)
			if !ok {
				t.Error("Get failed")
				return
			}
			got = append(got, string(e.Event.Call.Buf))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got = %v", got)
	}
}

func TestSequenceNumbersAssigned(t *testing.T) {
	s := sim.New()
	b := New(s, 8)
	s.Go("t", func(tk *sim.Task) {
		for i := 0; i < 3; i++ {
			putEvent(b, tk, ev(sysabi.OpRead, "x"))
		}
		for want := uint64(0); want < 3; want++ {
			e, _ := b.Get(tk)
			if e.Event.Seq != want {
				t.Errorf("seq = %d, want %d", e.Event.Seq, want)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestProducerBlocksWhenFull(t *testing.T) {
	s := sim.New()
	b := New(s, 2)
	produced := 0
	s.Go("producer", func(tk *sim.Task) {
		for i := 0; i < 5; i++ {
			putEvent(b, tk, ev(sysabi.OpWrite, "x"))
			produced++
		}
	})
	s.Go("consumer", func(tk *sim.Task) {
		// Give the producer a chance to fill the buffer.
		tk.Yield()
		if produced != 2 {
			t.Errorf("produced = %d before drain, want 2 (blocked on full)", produced)
		}
		if b.ProducerBlocked == 0 {
			t.Error("ProducerBlocked not counted")
		}
		for i := 0; i < 5; i++ {
			if _, ok := b.Get(tk); !ok {
				t.Error("Get failed")
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if produced != 5 {
		t.Fatalf("produced = %d, want 5", produced)
	}
}

// TestProducerStaysBlockedUntilDrained pins down the blocking contract
// the full-buffer policy relies on: a producer on a full buffer stays
// parked — through arbitrary virtual time — until the consumer drains a
// slot, and its pending entry is never lost or reordered.
func TestProducerStaysBlockedUntilDrained(t *testing.T) {
	s := sim.New()
	b := New(s, 1)
	var produced []string
	s.Go("producer", func(tk *sim.Task) {
		putEvent(b, tk, ev(sysabi.OpWrite, "first"))
		produced = append(produced, "first")
		putEvent(b, tk, ev(sysabi.OpWrite, "second")) // blocks: full
		produced = append(produced, "second")
	})
	var got []string
	s.Go("consumer", func(tk *sim.Task) {
		// Let a lot of virtual time pass while the producer is parked.
		tk.Sleep(10 * time.Second)
		if len(produced) != 1 {
			t.Errorf("produced = %v while buffer full, want just [first]", produced)
		}
		if b.ProducerBlocked == 0 {
			t.Error("ProducerBlocked not counted")
		}
		for i := 0; i < 2; i++ {
			e, ok := b.Get(tk)
			if !ok {
				t.Fatalf("Get %d failed", i)
			}
			got = append(got, string(e.Event.Call.Buf))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got = %v", got)
	}
}

func TestTryAppendNeverBlocks(t *testing.T) {
	s := sim.New()
	b := New(s, 2)
	s.Go("t", func(tk *sim.Task) {
		if !b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "a")}) {
			t.Error("TryAppend on empty buffer failed")
		}
		if !b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "b")}) {
			t.Error("TryAppend on non-full buffer failed")
		}
		// Full: must report false immediately, without blocking the task.
		if b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "c")}) {
			t.Error("TryAppend on full buffer succeeded")
		}
		if b.Len() != 2 {
			t.Errorf("Len = %d after rejected append", b.Len())
		}
		// Sequence numbers are only consumed by accepted entries.
		e, _ := b.Get(tk)
		if e.Event.Seq != 0 {
			t.Errorf("first seq = %d", e.Event.Seq)
		}
		if !b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "d")}) {
			t.Error("TryAppend after drain failed")
		}
		e, _ = b.Get(tk)
		if string(e.Event.Call.Buf) != "b" || e.Event.Seq != 1 {
			t.Errorf("second entry = %q seq %d", e.Event.Call.Buf, e.Event.Seq)
		}
		e, _ = b.Get(tk)
		if string(e.Event.Call.Buf) != "d" || e.Event.Seq != 2 {
			t.Errorf("third entry = %q seq %d", e.Event.Call.Buf, e.Event.Seq)
		}
		b.Close()
		if b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "e")}) {
			t.Error("TryAppend on closed buffer succeeded")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTryAppendWakesConsumer(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	var got string
	s.Go("consumer", func(tk *sim.Task) {
		e, ok := b.Get(tk) // blocks: empty
		if !ok {
			t.Error("Get failed")
			return
		}
		got = string(e.Event.Call.Buf)
	})
	s.Go("producer", func(tk *sim.Task) {
		tk.Yield() // let the consumer park first
		if !b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "w")}) {
			t.Error("TryAppend failed")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "w" {
		t.Fatalf("consumer got %q", got)
	}
}

func TestConsumerBlocksWhenEmpty(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	var order []string
	s.Go("consumer", func(tk *sim.Task) {
		e, _ := b.Get(tk)
		order = append(order, "got:"+string(e.Event.Call.Buf))
	})
	s.Go("producer", func(tk *sim.Task) {
		order = append(order, "put")
		putEvent(b, tk, ev(sysabi.OpWrite, "z"))
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "put" || order[1] != "got:z" {
		t.Fatalf("order = %v", order)
	}
}

func TestCloseUnblocksConsumer(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	var ok bool
	ok = true
	s.Go("consumer", func(tk *sim.Task) {
		_, ok = b.Get(tk)
	})
	s.Go("closer", func(tk *sim.Task) {
		tk.Yield()
		b.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ok {
		t.Fatal("Get on closed empty buffer should report false")
	}
}

func TestCloseUnblocksProducer(t *testing.T) {
	s := sim.New()
	b := New(s, 1)
	var second bool
	second = true
	s.Go("producer", func(tk *sim.Task) {
		putEvent(b, tk, ev(sysabi.OpWrite, "a"))
		second = putEvent(b, tk, ev(sysabi.OpWrite, "b")) // blocks: full
	})
	s.Go("closer", func(tk *sim.Task) {
		tk.Yield()
		b.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if second {
		t.Fatal("Put on closed buffer should report false")
	}
}

func TestDrainAfterClose(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	s.Go("t", func(tk *sim.Task) {
		putEvent(b, tk, ev(sysabi.OpWrite, "a"))
		putEvent(b, tk, ev(sysabi.OpWrite, "b"))
		b.Close()
		e, ok := b.Get(tk)
		if !ok || string(e.Event.Call.Buf) != "a" {
			t.Errorf("first drain = %v %v", e, ok)
		}
		e, ok = b.Get(tk)
		if !ok || string(e.Event.Call.Buf) != "b" {
			t.Errorf("second drain = %v %v", e, ok)
		}
		if _, ok = b.Get(tk); ok {
			t.Error("Get after full drain should fail")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPromoteEntryPassesThrough(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	s.Go("t", func(tk *sim.Task) {
		putEvent(b, tk, ev(sysabi.OpWrite, "x"))
		b.Put(tk, Entry{Kind: KindPromote})
		e, _ := b.Get(tk)
		if e.Kind != KindSyscall {
			t.Errorf("first = %v", e.Kind)
		}
		e, _ = b.Get(tk)
		if e.Kind != KindPromote {
			t.Errorf("second = %v, want promote", e.Kind)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPeek(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	s.Go("t", func(tk *sim.Task) {
		if _, ok := b.Peek(); ok {
			t.Error("Peek on empty should fail")
		}
		putEvent(b, tk, ev(sysabi.OpWrite, "x"))
		e, ok := b.Peek()
		if !ok || string(e.Event.Call.Buf) != "x" {
			t.Errorf("Peek = %v %v", e, ok)
		}
		if b.Len() != 1 {
			t.Error("Peek consumed the entry")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestHighWaterTracking(t *testing.T) {
	s := sim.New()
	b := New(s, 8)
	s.Go("t", func(tk *sim.Task) {
		for i := 0; i < 5; i++ {
			putEvent(b, tk, ev(sysabi.OpWrite, "x"))
		}
		for i := 0; i < 5; i++ {
			b.Get(tk)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b.HighWater != 5 {
		t.Fatalf("HighWater = %d, want 5", b.HighWater)
	}
}

func TestReset(t *testing.T) {
	s := sim.New()
	b := New(s, 2)
	s.Go("t", func(tk *sim.Task) {
		putEvent(b, tk, ev(sysabi.OpWrite, "x"))
		b.Close()
		b.Reset()
		if b.Closed() || !b.Empty() || b.NextSeq() != 0 {
			t.Error("Reset did not restore a fresh buffer")
		}
		if !putEvent(b, tk, ev(sysabi.OpWrite, "y")) {
			t.Error("Put after Reset failed")
		}
		e, _ := b.Get(tk)
		if string(e.Event.Call.Buf) != "y" || e.Event.Seq != 0 {
			t.Errorf("entry after reset = %v", e)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMinimumCapacity(t *testing.T) {
	s := sim.New()
	b := New(s, 0)
	if b.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", b.Cap())
	}
}

func TestKindString(t *testing.T) {
	if KindSyscall.String() != "syscall" || KindPromote.String() != "promote" ||
		KindShutdown.String() != "shutdown" || Kind(9).String() != "kind(9)" {
		t.Fatal("Kind.String mismatch")
	}
}

// Property: for any sequence of payloads and any capacity, FIFO order and
// content are preserved through the buffer.
func TestFIFOProperty(t *testing.T) {
	f := func(payloads [][]byte, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		if len(payloads) > 64 {
			payloads = payloads[:64]
		}
		s := sim.New()
		b := New(s, capacity)
		var got [][]byte
		s.Go("producer", func(tk *sim.Task) {
			for _, p := range payloads {
				putEvent(b, tk, sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, Buf: p}})
			}
			b.Close()
		})
		s.Go("consumer", func(tk *sim.Task) {
			for {
				e, ok := b.Get(tk)
				if !ok {
					return
				}
				got = append(got, e.Event.Call.Buf)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			if string(got[i]) != string(payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity.
func TestBoundedOccupancyProperty(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		count := int(n % 40)
		s := sim.New()
		b := New(s, capacity)
		okAll := true
		s.Go("producer", func(tk *sim.Task) {
			for i := 0; i < count; i++ {
				putEvent(b, tk, ev(sysabi.OpWrite, "x"))
				if b.Len() > b.Cap() {
					okAll = false
				}
			}
			b.Close()
		})
		s.Go("consumer", func(tk *sim.Task) {
			for {
				if _, ok := b.Get(tk); !ok {
					return
				}
				if b.Len() > b.Cap() {
					okAll = false
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return okAll && b.HighWater <= b.Cap()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestResetWakesBlockedProducer is the regression test for the Reset
// wakeup bug: a producer parked on a full buffer when Reset fires must
// be woken and observe the now-empty buffer. Before the fix, Reset
// cleared the queue without waking either wait queue, so the producer
// stayed parked forever — the scheduler deadlocked with a runnable-free
// task set.
func TestResetWakesBlockedProducer(t *testing.T) {
	s := sim.New()
	b := New(s, 1)
	var produced []uint64
	s.Go("producer", func(tk *sim.Task) {
		putEvent(b, tk, ev(sysabi.OpWrite, "a"))
		// Blocks: buffer full. Only the Reset below can free it.
		if !putEvent(b, tk, ev(sysabi.OpWrite, "b")) {
			t.Error("Put after Reset reported closed")
			return
		}
		e, ok := b.Peek()
		if !ok {
			t.Error("entry missing after post-Reset Put")
			return
		}
		produced = append(produced, e.Event.Seq)
	})
	s.Go("resetter", func(tk *sim.Task) {
		tk.Sleep(time.Second) // the producer is parked by now
		if b.ProducerBlocked == 0 {
			t.Error("producer never blocked; test is not exercising the wakeup")
		}
		b.Reset()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v (producer still parked across Reset?)", err)
	}
	// The renumbered stream restarts at zero: the pre-reset "a" (seq 0)
	// was discarded, and the post-reset "b" gets seq 0 again.
	if len(produced) != 1 || produced[0] != 0 {
		t.Fatalf("post-reset seqs = %v, want [0]", produced)
	}
}

// TestResetWakesBlockedConsumer: the symmetric case — a consumer parked
// on an empty buffer must re-check after Reset reopens the stream, and
// then consume the renumbered entries.
func TestResetWakesBlockedConsumer(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	var got uint64 = 99
	s.Go("consumer", func(tk *sim.Task) {
		e, ok := b.Get(tk) // blocks: empty
		if !ok {
			t.Error("Get reported closed")
			return
		}
		got = e.Event.Seq
	})
	s.Go("resetter", func(tk *sim.Task) {
		tk.Sleep(time.Second)
		b.Reset()
		// The woken consumer sees the buffer still empty and parks again;
		// this Put delivers the first renumbered entry.
		putEvent(b, tk, ev(sysabi.OpWrite, "x"))
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Fatalf("seq after reset = %d, want 0", got)
	}
}

// TestResetRenumbersMidStream: sequence numbering restarts at zero even
// when the buffer was mid-stream (seq well above zero) at reset time.
func TestResetRenumbersMidStream(t *testing.T) {
	s := sim.New()
	b := New(s, 8)
	s.Go("t", func(tk *sim.Task) {
		for i := 0; i < 5; i++ {
			putEvent(b, tk, ev(sysabi.OpWrite, "x"))
		}
		b.Get(tk)
		b.Get(tk)
		if b.NextSeq() != 5 {
			t.Fatalf("NextSeq = %d before reset", b.NextSeq())
		}
		b.Reset()
		if b.NextSeq() != 0 || !b.Empty() {
			t.Fatalf("after reset: NextSeq=%d Len=%d", b.NextSeq(), b.Len())
		}
		putEvent(b, tk, ev(sysabi.OpWrite, "y"))
		e, _ := b.Get(tk)
		if e.Event.Seq != 0 {
			t.Fatalf("first post-reset seq = %d, want 0", e.Event.Seq)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestPeekOnClosedDrainedBuffer: Peek is a pure observation — on a
// closed buffer it keeps returning pending entries until they are
// drained, then reports nothing without blocking or panicking.
func TestPeekOnClosedDrainedBuffer(t *testing.T) {
	s := sim.New()
	b := New(s, 4)
	s.Go("t", func(tk *sim.Task) {
		putEvent(b, tk, ev(sysabi.OpWrite, "x"))
		b.Close()
		if e, ok := b.Peek(); !ok || string(e.Event.Call.Buf) != "x" {
			t.Errorf("Peek on closed buffer with pending entry = %v %v", e, ok)
		}
		b.Get(tk)
		if _, ok := b.Peek(); ok {
			t.Error("Peek on closed-and-drained buffer reported an entry")
		}
		if _, ok := b.Get(tk); ok {
			t.Error("Get on closed-and-drained buffer reported an entry")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDroppedCounter: TryAppend on a full buffer counts each refusal in
// Dropped, and Reset clears it with the rest of the accounting.
func TestDroppedCounter(t *testing.T) {
	s := sim.New()
	b := New(s, 2)
	s.Go("t", func(tk *sim.Task) {
		b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "a")})
		b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "b")})
		for i := 0; i < 3; i++ {
			if b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "x")}) {
				t.Error("TryAppend on full buffer succeeded")
			}
		}
		if b.Dropped != 3 {
			t.Errorf("Dropped = %d, want 3", b.Dropped)
		}
		// A refusal on a closed buffer is not a discard-policy drop.
		b.Close()
		b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "y")})
		if b.Dropped != 3 {
			t.Errorf("Dropped = %d after closed TryAppend, want 3", b.Dropped)
		}
		b.Reset()
		if b.Dropped != 0 || b.HighWater != 0 || b.ProducerBlocked != 0 {
			t.Errorf("Reset left accounting: dropped=%d hw=%d blocked=%d",
				b.Dropped, b.HighWater, b.ProducerBlocked)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRecorderMetricsFlow: with a recorder attached, the buffer's
// accounting (puts, gets, blocks, drops, high water) lands in the
// metrics registry and survives into a snapshot.
func TestRecorderMetricsFlow(t *testing.T) {
	s := sim.New()
	rec := obs.New(s.Now, obs.Options{})
	b := New(s, 2)
	b.Rec = rec
	s.Go("producer", func(tk *sim.Task) {
		for i := 0; i < 4; i++ {
			putEvent(b, tk, ev(sysabi.OpWrite, "x"))
		}
		b.TryAppend(Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "x")})
	})
	s.Go("consumer", func(tk *sim.Task) {
		tk.Sleep(time.Second) // let the producer fill and block
		for i := 0; i < 4; i++ {
			b.Get(tk)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := rec.Snapshot()
	if snap.Counters[obs.CRingPut] != 4 || snap.Counters[obs.CRingGet] != 4 {
		t.Fatalf("put/get = %d/%d", snap.Counters[obs.CRingPut], snap.Counters[obs.CRingGet])
	}
	if snap.Counters[obs.CRingBlocked] != int64(b.ProducerBlocked) || b.ProducerBlocked == 0 {
		t.Fatalf("blocked counter %d vs ProducerBlocked %d",
			snap.Counters[obs.CRingBlocked], b.ProducerBlocked)
	}
	if snap.Counters[obs.CRingDropped] != 1 {
		t.Fatalf("dropped counter = %d", snap.Counters[obs.CRingDropped])
	}
	if snap.Gauges[obs.GRingHighWater] != int64(2) {
		t.Fatalf("highwater gauge = %d", snap.Gauges[obs.GRingHighWater])
	}
	if h := snap.Histograms[obs.HRingBlockWait]; h.Count == 0 || h.MaxNS <= 0 {
		t.Fatalf("block wait histogram = %+v", h)
	}
}

// A stalled consumer that frees one slot at a time parks the producer on
// every put: one backpressure episode. The lifecycle gets one ring.block
// milestone for it, while the counter and the wait histogram still see
// every park.
func TestRingBlockIsOneMilestonePerEpisode(t *testing.T) {
	const parks = 6
	s := sim.New()
	rec := obs.New(s.Now, obs.Options{})
	mb := NewMulti(s, 2)
	mb.Rec = rec
	cur := mb.OpenCursor("consumer")
	s.Go("producer", func(tk *sim.Task) {
		for i := 0; i < mb.Cap()+parks; i++ {
			mb.Put(tk, Entry{Kind: KindSyscall, Event: ev(sysabi.OpWrite, "x")})
		}
	})
	s.Go("consumer", func(tk *sim.Task) {
		for i := 0; i < mb.Cap()+parks; i++ {
			tk.Sleep(time.Second)
			cur.Get(tk)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mb.ProducerBlocked != parks {
		t.Fatalf("ProducerBlocked = %d, want %d", mb.ProducerBlocked, parks)
	}
	snap := rec.Snapshot()
	if snap.Counters[obs.CRingBlocked] != parks || snap.Histograms[obs.HRingBlockWait].Count != parks {
		t.Errorf("blocked counter %d, wait histogram count %d, want %d each",
			snap.Counters[obs.CRingBlocked], snap.Histograms[obs.HRingBlockWait].Count, parks)
	}
	blocks := 0
	for _, m := range rec.Milestones() {
		if m.Kind == obs.KindRingBlock {
			blocks++
		}
	}
	if blocks != 1 {
		t.Errorf("%d ring.block milestones for one episode of %d parks, want 1:\n%s", blocks, parks, rec.FormatTimeline())
	}
}
