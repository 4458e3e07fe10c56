package ringbuf

import (
	"testing"
	"time"

	"mvedsua/internal/sim"
)

// Tests for the v2 transition-only wakeup contract: consumers are woken
// exactly on the empty→non-empty edge, producers exactly on the
// full→not-full edge, and (the PR 2 regression, re-pinned against the
// circular implementation) Reset wakes everything parked on either
// queue. WaitDrained waiters are covered by the same edges.

// countDispatches counts, from now on, every dispatch of the named task
// s makes.
func countDispatches(s *sim.Scheduler, task string) *int {
	n := new(int)
	s.OnSlice = func(name string, _, _ time.Duration) {
		if name == task {
			*n++
		}
	}
	return n
}

// TestTransitionWakeupConsumer parks a consumer on an empty ring and
// feeds it a 3-entry batch: the consumer must be dispatched exactly once
// for the whole batch (woken on the empty→non-empty edge only), and must
// drain all three entries in that one dispatch.
func TestTransitionWakeupConsumer(t *testing.T) {
	s := sim.New()
	buf := New(s, 8)
	var got []Entry
	var woken *int
	s.Go("consumer", func(tk *sim.Task) {
		got = buf.DrainInto(tk, nil) // parks: ring is empty
	})
	s.Go("producer", func(tk *sim.Task) {
		woken = countDispatches(s, "consumer")
		batch := []Entry{{Kind: KindSyscall}, {Kind: KindSyscall}, {Kind: KindSyscall}}
		if n, ok := buf.PutBatch(tk, batch); n != 3 || !ok {
			t.Errorf("PutBatch = (%d,%v), want (3,true)", n, ok)
		}
		buf.Close() // let the consumer exit once drained
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("consumer drained %d entries, want 3", len(got))
	}
	if *woken != 1 {
		t.Errorf("consumer dispatched %d times after parking, want 1 (transition-only wake)", *woken)
	}
}

// TestTransitionWakeupProducer parks a producer on a full ring and has
// the consumer remove two entries in one batched drain: the producer
// must be dispatched exactly once (woken on the full→not-full edge, not
// per removed entry) and then complete its pending put.
func TestTransitionWakeupProducer(t *testing.T) {
	s := sim.New()
	buf := New(s, 2)
	produced := 0
	var woken *int
	s.Go("producer", func(tk *sim.Task) {
		for i := 0; i < 3; i++ {
			buf.Put(tk, Entry{Kind: KindSyscall}) // third Put parks: ring full
			produced++
		}
	})
	s.Go("consumer", func(tk *sim.Task) {
		woken = countDispatches(s, "producer")
		if got := buf.DrainInto(tk, nil); len(got) != 2 {
			t.Errorf("drained %d entries, want 2", len(got))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if produced != 3 {
		t.Fatalf("produced = %d, want 3", produced)
	}
	if buf.ProducerBlocked != 1 {
		t.Errorf("ProducerBlocked = %d, want 1", buf.ProducerBlocked)
	}
	if *woken != 1 {
		t.Errorf("producer dispatched %d times after parking, want 1 (transition-only wake)", *woken)
	}
}

// TestResetWakesBothQueuesV2 re-pins the PR 2 regression against the
// circular implementation: a producer parked on a full ring and (after
// the producer completes) a consumer parked on an empty one must both be
// released by Reset, not sleep through the reopen.
func TestResetWakesBothQueuesV2(t *testing.T) {
	s := sim.New()
	buf := New(s, 1)
	producerDone, consumerDone := false, false
	s.Go("producer", func(tk *sim.Task) {
		buf.Put(tk, Entry{Kind: KindSyscall})
		buf.Put(tk, Entry{Kind: KindSyscall}) // parks: full
		producerDone = true
	})
	s.Go("resetter1", func(tk *sim.Task) {
		buf.Reset() // frees the parked producer
	})
	s.Go("consumer", func(tk *sim.Task) {
		// The producer's second Put lands post-reset; drain it, then
		// park on the now-empty ring.
		buf.Get(tk)
		buf.Get(tk) // parks: empty
		consumerDone = true
	})
	s.Go("resetter2", func(tk *sim.Task) {
		tk.Yield() // let the consumer park first
		buf.Reset()
		buf.Close() // consumer observes closed-and-drained
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !producerDone {
		t.Error("producer still parked after Reset")
	}
	if !consumerDone {
		t.Error("consumer still parked after Reset+Close")
	}
}

// TestWaitDrained covers the third wait queue: a waiter parks until the
// consumer empties the ring and resumes at that edge; Close and Reset
// release waiters too.
func TestWaitDrained(t *testing.T) {
	s := sim.New()
	buf := New(s, 8)
	var emptyAtResume bool
	s.Go("producer", func(tk *sim.Task) {
		buf.PutBatch(tk, []Entry{{Kind: KindSyscall}, {Kind: KindSyscall}})
		buf.WaitDrained(tk) // parks: two entries pending
		emptyAtResume = buf.Empty()
	})
	s.Go("consumer", func(tk *sim.Task) {
		buf.Get(tk) // removing one entry must NOT wake the waiter
		buf.Get(tk) // removing the last one must
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !emptyAtResume {
		t.Error("WaitDrained resumed with entries still pending")
	}

	// Close releases a waiter even with entries pending.
	s2 := sim.New()
	buf2 := New(s2, 8)
	released := false
	s2.Go("waiter", func(tk *sim.Task) {
		buf2.Put(tk, Entry{Kind: KindSyscall})
		buf2.WaitDrained(tk)
		released = true
	})
	s2.Go("closer", func(tk *sim.Task) { buf2.Close() })
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Error("WaitDrained not released by Close")
	}

	// Reset empties the ring and must release a waiter the same way.
	s3 := sim.New()
	buf3 := New(s3, 8)
	released3 := false
	s3.Go("waiter", func(tk *sim.Task) {
		buf3.Put(tk, Entry{Kind: KindSyscall})
		buf3.WaitDrained(tk)
		released3 = true
	})
	s3.Go("resetter", func(tk *sim.Task) { buf3.Reset() })
	if err := s3.Run(); err != nil {
		t.Fatal(err)
	}
	if !released3 {
		t.Error("WaitDrained not released by Reset")
	}
}

// TestPutBatchBlocksThroughFullRing pushes a batch three times the ring
// capacity through a slow consumer: every entry must arrive in order
// with consecutive sequence numbers, and the producer must have parked
// at least once per refill.
func TestPutBatchBlocksThroughFullRing(t *testing.T) {
	s := sim.New()
	buf := New(s, 2)
	batch := make([]Entry, 6)
	for i := range batch {
		batch[i] = Entry{Kind: KindSyscall}
	}
	var got []Entry
	s.Go("producer", func(tk *sim.Task) {
		if n, ok := buf.PutBatch(tk, batch); n != 6 || !ok {
			t.Errorf("PutBatch = (%d,%v), want (6,true)", n, ok)
		}
		buf.Close()
	})
	s.Go("consumer", func(tk *sim.Task) {
		for {
			e, ok := buf.Get(tk)
			if !ok {
				return
			}
			got = append(got, e)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("consumed %d entries, want 6", len(got))
	}
	for i, e := range got {
		if e.Event.Seq != uint64(i) {
			t.Errorf("entry %d: seq %d, want %d", i, e.Event.Seq, i)
		}
	}
	if buf.ProducerBlocked == 0 {
		t.Error("ProducerBlocked = 0, want blocking on the full ring")
	}
}

// TestPutBatchClosedMidway closes the ring while the producer is parked
// mid-batch: PutBatch must report the prefix it managed to append.
func TestPutBatchClosedMidway(t *testing.T) {
	s := sim.New()
	buf := New(s, 2)
	s.Go("producer", func(tk *sim.Task) {
		batch := make([]Entry, 5)
		for i := range batch {
			batch[i] = Entry{Kind: KindSyscall}
		}
		n, ok := buf.PutBatch(tk, batch) // parks after 2
		if n != 2 || ok {
			t.Errorf("PutBatch = (%d,%v), want (2,false)", n, ok)
		}
	})
	s.Go("closer", func(tk *sim.Task) {
		buf.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainUpToBound verifies the bounded drain takes at most max
// entries and leaves the rest, preserving FIFO order across the split.
func TestDrainUpToBound(t *testing.T) {
	s := sim.New()
	buf := New(s, 8)
	s.Go("driver", func(tk *sim.Task) {
		for i := 0; i < 5; i++ {
			buf.Put(tk, Entry{Kind: KindSyscall})
		}
		first := buf.DrainUpTo(tk, nil, 2)
		if len(first) != 2 || first[0].Event.Seq != 0 || first[1].Event.Seq != 1 {
			t.Errorf("DrainUpTo(2) = %+v, want seqs 0,1", first)
		}
		if buf.Len() != 3 {
			t.Errorf("Len after bounded drain = %d, want 3", buf.Len())
		}
		rest := buf.DrainInto(tk, nil)
		if len(rest) != 3 || rest[0].Event.Seq != 2 {
			t.Errorf("DrainInto = %+v, want seqs 2,3,4", rest)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
