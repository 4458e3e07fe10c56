package ringbuf

import (
	"fmt"
	"math/rand"
	"testing"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// Model-based property test: the circular ring and a naive reference
// slice-queue consume an identical randomized op sequence and must stay
// observably identical after every step — occupancy, fullness, closed
// state, sequence numbering (including renumbering across Reset), the
// drop counter, and every entry handed back. Small capacities force
// constant wraparound at the capacity boundary, which is exactly where a
// head/count indexing bug would bite.

// refQueue is the straight-line reference implementation: an append/
// shift slice with the same observable contract as Buffer, minus the
// scheduler blocking (the driver only issues ops that cannot block).
type refQueue struct {
	capacity  int
	q         []Entry
	seq       uint64
	closed    bool
	highWater int
	dropped   int
}

func newRef(capacity int) *refQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &refQueue{capacity: capacity}
}

func (r *refQueue) full() bool  { return len(r.q) >= r.capacity }
func (r *refQueue) empty() bool { return len(r.q) == 0 }

func (r *refQueue) append(e Entry) {
	if e.Kind == KindSyscall {
		e.Event.Seq = r.seq
		r.seq++
	}
	r.q = append(r.q, e)
	if len(r.q) > r.highWater {
		r.highWater = len(r.q)
	}
}

func (r *refQueue) put(e Entry) bool {
	if r.closed || r.full() {
		return false
	}
	r.append(e)
	return true
}

func (r *refQueue) tryAppend(e Entry) bool {
	if r.closed || r.full() {
		if !r.closed {
			r.dropped++
		}
		return false
	}
	r.append(e)
	return true
}

func (r *refQueue) putBatch(batch []Entry) int {
	n := 0
	for _, e := range batch {
		if !r.put(e) {
			return n
		}
		n++
	}
	return n
}

func (r *refQueue) get() (Entry, bool) {
	if r.empty() {
		return Entry{}, false
	}
	e := r.q[0]
	r.q = r.q[1:]
	return e, true
}

func (r *refQueue) drain(max int) []Entry {
	n := len(r.q)
	if max > 0 && n > max {
		n = max
	}
	out := append([]Entry(nil), r.q[:n]...)
	r.q = r.q[n:]
	return out
}

func (r *refQueue) peek() (Entry, bool) {
	if r.empty() {
		return Entry{}, false
	}
	return r.q[0], true
}

func (r *refQueue) reset() {
	r.q = nil
	r.seq = 0
	r.closed = false
	r.highWater = 0
	r.dropped = 0
}

// entryEq compares the observable payload of two entries.
func entryEq(a, b Entry) bool {
	return a.Kind == b.Kind && a.Event.Seq == b.Event.Seq &&
		a.Event.Call.TID == b.Event.Call.TID && a.Event.Call.Op == b.Event.Call.Op
}

// consumerK1 is the consumer side of a one-cursor ring as driveOps uses
// it. Reset is part of it because the consumer must survive one: the
// Buffer view re-attaches its cursor, bareK1 opens a fresh one.
type consumerK1 interface {
	Get(t *sim.Task) (Entry, bool)
	Peek() (Entry, bool)
	DrainUpTo(t *sim.Task, dst []Entry, max int) []Entry
	Reset()
}

// bareK1 is the ring used with no view in between, the way mve uses it:
// NewMulti plus one OpenCursor, and a new cursor after every Reset.
type bareK1 struct {
	mb *MultiBuffer
	*Cursor
}

func (b *bareK1) Reset() {
	b.mb.Reset()
	b.Cursor = b.mb.OpenCursor("consumer")
}

// buildK1 builds a one-cursor ring on a scheduler, returning its
// producer side and its consumer side.
type buildK1 func(s *sim.Scheduler, capacity int) (*MultiBuffer, consumerK1)

func viewK1(s *sim.Scheduler, capacity int) (*MultiBuffer, consumerK1) {
	b := New(s, capacity)
	return b.MultiBuffer, b
}

func bareRingK1(s *sim.Scheduler, capacity int) (*MultiBuffer, consumerK1) {
	mb := NewMulti(s, capacity)
	return mb, &bareK1{mb: mb, Cursor: mb.OpenCursor("consumer")}
}

// TestPropertyMatchesReferenceQueue drives the same op script through
// the Buffer view and through a bare one-cursor ring. Each must match
// the reference queue after every step, and the two must end with the
// same counters after the same number of scheduler dispatches: the view
// adds no behaviour of its own.
func TestPropertyMatchesReferenceQueue(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 8, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			capacity, seed := capacity, seed
			t.Run(fmt.Sprintf("cap%d_seed%d", capacity, seed), func(t *testing.T) {
				drive := func(name string, build buildK1) (*MultiBuffer, int64) {
					s := sim.New()
					mb, c := build(s, capacity)
					var failure error
					s.Go("driver", func(tk *sim.Task) {
						failure = driveOps(tk, mb, c, newRef(capacity), rand.New(rand.NewSource(seed)), 2500)
					})
					if err := s.Run(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if failure != nil {
						t.Fatalf("%s: %v", name, failure)
					}
					return mb, s.Dispatches()
				}
				view, viewDispatches := drive("view", viewK1)
				bare, bareDispatches := drive("bare", bareRingK1)
				if view.HighWater != bare.HighWater || view.ProducerBlocked != bare.ProducerBlocked ||
					view.Dropped != bare.Dropped || view.NextSeq() != bare.NextSeq() || view.Len() != bare.Len() {
					t.Errorf("view ends at hw=%d blocked=%d dropped=%d seq=%d len=%d, bare ring at hw=%d blocked=%d dropped=%d seq=%d len=%d",
						view.HighWater, view.ProducerBlocked, view.Dropped, view.NextSeq(), view.Len(),
						bare.HighWater, bare.ProducerBlocked, bare.Dropped, bare.NextSeq(), bare.Len())
				}
				if viewDispatches != bareDispatches {
					t.Errorf("view took %d dispatches, bare ring %d", viewDispatches, bareDispatches)
				}
			})
		}
	}
}

// TestViewAndBareRingBlockAlike is the blocking counterpart of the op
// script above (which never parks): a producer pushes through a 2-entry
// ring while the consumer alternates Get and bounded drains, so both
// sides park and wake repeatedly. The view and the bare ring must hand
// over the same stream with the same number of producer blocks and
// scheduler dispatches.
func TestViewAndBareRingBlockAlike(t *testing.T) {
	const total = 60
	drive := func(build buildK1) (seqs []uint64, blocked int, dispatches int64) {
		s := sim.New()
		mb, c := build(s, 2)
		s.Go("producer", func(tk *sim.Task) {
			for i := 0; i < total; i++ {
				mb.Put(tk, Entry{Kind: KindSyscall})
				if i%7 == 0 {
					tk.Yield()
				}
			}
			mb.Close()
		})
		s.Go("consumer", func(tk *sim.Task) {
			var scratch []Entry
			for i := 0; ; i++ {
				if i%3 == 0 {
					scratch = c.DrainUpTo(tk, scratch[:0], 2)
				} else if e, ok := c.Get(tk); ok {
					scratch = append(scratch[:0], e)
				} else {
					scratch = scratch[:0]
				}
				if len(scratch) == 0 {
					return
				}
				for _, e := range scratch {
					seqs = append(seqs, e.Event.Seq)
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return seqs, mb.ProducerBlocked, s.Dispatches()
	}
	vSeqs, vBlocked, vDispatches := drive(viewK1)
	bSeqs, bBlocked, bDispatches := drive(bareRingK1)
	if len(vSeqs) != total || fmt.Sprint(vSeqs) != fmt.Sprint(bSeqs) {
		t.Fatalf("view delivered %v\nbare ring   %v", vSeqs, bSeqs)
	}
	if vBlocked == 0 || vBlocked != bBlocked || vDispatches != bDispatches {
		t.Fatalf("view: %d producer blocks, %d dispatches; bare ring: %d, %d (blocks must be > 0)",
			vBlocked, vDispatches, bBlocked, bDispatches)
	}
}

// driveOps applies n random operations to both implementations and
// compares every observable after each one. Blocking is avoided by
// construction: puts are only issued when a slot is free or the buffer
// is closed (fail-fast), gets/drains only when non-empty or closed.
func driveOps(tk *sim.Task, buf *MultiBuffer, c consumerK1, ref *refQueue, rng *rand.Rand, n int) error {
	nextTID := 0
	mkEntry := func() Entry {
		nextTID++
		kind := KindSyscall
		if rng.Intn(10) == 0 {
			kind = KindPromote // control entries consume no seq
		}
		return Entry{Kind: kind, Event: sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, TID: nextTID}}}
	}
	check := func(op string) error {
		if buf.Len() != len(ref.q) {
			return fmt.Errorf("%s: Len = %d, ref %d", op, buf.Len(), len(ref.q))
		}
		if buf.Empty() != ref.empty() || buf.Full() != ref.full() {
			return fmt.Errorf("%s: Empty/Full = %v/%v, ref %v/%v", op, buf.Empty(), buf.Full(), ref.empty(), ref.full())
		}
		if buf.Closed() != ref.closed {
			return fmt.Errorf("%s: Closed = %v, ref %v", op, buf.Closed(), ref.closed)
		}
		if buf.NextSeq() != ref.seq {
			return fmt.Errorf("%s: NextSeq = %d, ref %d", op, buf.NextSeq(), ref.seq)
		}
		if buf.HighWater != ref.highWater {
			return fmt.Errorf("%s: HighWater = %d, ref %d", op, buf.HighWater, ref.highWater)
		}
		if buf.Dropped != ref.dropped {
			return fmt.Errorf("%s: Dropped = %d, ref %d", op, buf.Dropped, ref.dropped)
		}
		be, bok := c.Peek()
		re, rok := ref.peek()
		if bok != rok || (bok && !entryEq(be, re)) {
			return fmt.Errorf("%s: Peek = (%+v,%v), ref (%+v,%v)", op, be, bok, re, rok)
		}
		return nil
	}
	var scratch []Entry
	for i := 0; i < n; i++ {
		switch op := rng.Intn(20); {
		case op < 5: // Put (guarded against blocking)
			if !buf.Full() || buf.Closed() {
				e := mkEntry()
				got, want := buf.Put(tk, e), ref.put(e)
				if got != want {
					return fmt.Errorf("op %d: Put = %v, ref %v", i, got, want)
				}
			}
		case op < 9: // TryAppend (never blocks)
			e := mkEntry()
			got, want := buf.TryAppend(e), ref.tryAppend(e)
			if got != want {
				return fmt.Errorf("op %d: TryAppend = %v, ref %v", i, got, want)
			}
		case op < 11: // PutBatch sized to the free space (or closed: fail-fast)
			free := buf.Cap() - buf.Len()
			size := 0
			if free > 0 {
				size = rng.Intn(free) + 1
			}
			if buf.Closed() {
				size = rng.Intn(3) + 1 // appends nothing, must not block
			}
			batch := make([]Entry, size)
			for j := range batch {
				batch[j] = mkEntry()
			}
			got, _ := buf.PutBatch(tk, batch)
			if want := ref.putBatch(batch); got != want {
				return fmt.Errorf("op %d: PutBatch = %d, ref %d", i, got, want)
			}
		case op < 15: // Get (guarded against blocking)
			if !buf.Empty() || buf.Closed() {
				ge, gok := c.Get(tk)
				re, rok := ref.get()
				if gok != rok || (gok && !entryEq(ge, re)) {
					return fmt.Errorf("op %d: Get = (%+v,%v), ref (%+v,%v)", i, ge, gok, re, rok)
				}
			}
		case op < 17: // DrainUpTo (guarded against blocking)
			if !buf.Empty() || buf.Closed() {
				max := rng.Intn(buf.Cap() + 1)
				scratch = c.DrainUpTo(tk, scratch[:0], max)
				want := ref.drain(max)
				if len(scratch) != len(want) {
					return fmt.Errorf("op %d: DrainUpTo(%d) = %d entries, ref %d", i, max, len(scratch), len(want))
				}
				for j := range want {
					if !entryEq(scratch[j], want[j]) {
						return fmt.Errorf("op %d: DrainUpTo entry %d = %+v, ref %+v", i, j, scratch[j], want[j])
					}
				}
			}
		case op < 18: // Close
			buf.Close()
			ref.closed = true
		default: // Reset (reopens, renumbers from 0)
			c.Reset()
			ref.reset()
		}
		if err := check(fmt.Sprintf("after op %d", i)); err != nil {
			return err
		}
	}
	return nil
}

// TestPropertySeqRenumberAcrossReset pins the renumbering contract the
// property test exercises statistically: wrap a small ring past its
// capacity boundary, reset, and confirm the next accepted syscall entry
// restarts at seq 0 while control entries still consume nothing.
func TestPropertySeqRenumberAcrossReset(t *testing.T) {
	s := sim.New()
	buf := New(s, 3)
	s.Go("driver", func(tk *sim.Task) {
		e := Entry{Kind: KindSyscall}
		for i := 0; i < 7; i++ { // wraps the 3-slot ring twice
			buf.Put(tk, e)
			got, _ := buf.Get(tk)
			if got.Event.Seq != uint64(i) {
				t.Errorf("pre-reset entry %d: seq %d", i, got.Event.Seq)
			}
		}
		buf.Reset()
		if buf.NextSeq() != 0 {
			t.Errorf("NextSeq after Reset = %d, want 0", buf.NextSeq())
		}
		buf.Put(tk, Entry{Kind: KindPromote}) // no seq consumed
		buf.Put(tk, e)
		if first, _ := buf.Get(tk); first.Kind != KindPromote {
			t.Errorf("first post-reset entry = %v, want promote", first.Kind)
		}
		if second, _ := buf.Get(tk); second.Event.Seq != 0 {
			t.Errorf("first post-reset syscall seq = %d, want 0", second.Event.Seq)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReferenceShiftQueue measures the v1-style slice-shift queue
// for contrast with BenchmarkPutGet: the shifting layout reallocates
// every time the backing array drains, so its B/op stays visibly
// non-zero while the circular ring's is ~0.
func BenchmarkReferenceShiftQueue(b *testing.B) {
	ref := newRef(1024)
	e := Entry{Kind: KindSyscall, Event: sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, TID: 1}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.put(e)
		if _, ok := ref.get(); !ok {
			b.Fatal("empty")
		}
		if len(ref.q) == 0 {
			ref.q = nil // v1 dropped the drained backing array
		}
	}
}
