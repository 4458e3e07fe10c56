package ringbuf

import (
	"fmt"
	"math/rand"
	"testing"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// Model-based property test for the multi-cursor ring, in the style of
// property_test.go: MultiBuffer and a naive reference (one shared
// absolute-indexed log plus per-cursor offsets) consume an identical
// randomized op sequence — appends, per-cursor drains, cursor opens,
// cursor closes (variant eject), resets — and must stay observably
// identical after every step: retained occupancy, fullness w.r.t. the
// slowest cursor, per-cursor lag, sequence numbering, and every entry
// each cursor reads back.

// refMulti is the straight-line reference: an ever-growing log slice
// with absolute base/next indexes and per-cursor positions. No circular
// storage, no wakeups — just the observable contract.
type refMulti struct {
	capacity  int
	log       []Entry // log[i] holds absolute index base0+i conceptually; we keep all
	next      int     // absolute index of the next append
	base      int     // absolute index of the oldest retained entry
	seq       uint64
	closed    bool
	highWater int
	dropped   int
	cursors   map[string]int // name -> absolute position
}

func newRefMulti(capacity int) *refMulti {
	if capacity < 1 {
		capacity = 1
	}
	return &refMulti{capacity: capacity, cursors: map[string]int{}}
}

func (r *refMulti) len() int   { return r.next - r.base }
func (r *refMulti) full() bool { return r.len() >= r.capacity }

func (r *refMulti) reclaim() {
	min := r.next
	for _, pos := range r.cursors {
		if pos < min {
			min = pos
		}
	}
	r.base = min
}

func (r *refMulti) append(e Entry) {
	if e.Kind == KindSyscall {
		e.Event.Seq = r.seq
		r.seq++
	}
	r.log = append(r.log, e)
	r.next++
	if len(r.cursors) == 0 {
		r.reclaim()
	}
	if occ := r.len(); occ > r.highWater {
		r.highWater = occ
	}
}

func (r *refMulti) put(e Entry) bool {
	if r.closed || r.full() {
		return false
	}
	r.append(e)
	return true
}

func (r *refMulti) tryAppend(e Entry) bool {
	if r.closed || r.full() {
		if !r.closed {
			r.dropped++
		}
		return false
	}
	r.append(e)
	return true
}

func (r *refMulti) putBatch(batch []Entry) int {
	n := 0
	for _, e := range batch {
		if !r.put(e) {
			return n
		}
		n++
	}
	return n
}

func (r *refMulti) open(name string) {
	r.cursors[name] = r.next
}

func (r *refMulti) closeCursor(name string) {
	delete(r.cursors, name)
	r.reclaim()
}

func (r *refMulti) lag(name string) int { return r.next - r.cursors[name] }

func (r *refMulti) drain(name string, max int) []Entry {
	pos := r.cursors[name]
	n := r.next - pos
	if max > 0 && n > max {
		n = max
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.log[pos+i-(r.next-len(r.log))])
	}
	r.cursors[name] = pos + n
	r.reclaim()
	return out
}

func (r *refMulti) reset() {
	r.log = nil
	r.base, r.next = 0, 0
	r.seq = 0
	r.closed = false
	r.highWater = 0
	r.dropped = 0
	r.cursors = map[string]int{}
}

func TestMultiPropertyMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 8, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			capacity, seed := capacity, seed
			t.Run(fmt.Sprintf("cap%d_seed%d", capacity, seed), func(t *testing.T) {
				s := sim.New()
				mb := NewMulti(s, capacity)
				ref := newRefMulti(capacity)
				var failure error
				s.Go("driver", func(tk *sim.Task) {
					failure = driveMultiOps(tk, mb, ref, rand.New(rand.NewSource(seed)), 2500)
				})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if failure != nil {
					t.Fatal(failure)
				}
			})
		}
	}
}

// driveMultiOps applies n random operations to both implementations and
// compares every observable after each one. Blocking is avoided by
// construction, as in driveOps: appends only when retention has a free
// slot (or closed: fail-fast), drains only on cursors with pending
// entries (or closed).
func driveMultiOps(tk *sim.Task, mb *MultiBuffer, ref *refMulti, rng *rand.Rand, n int) error {
	nextTID := 0
	mkEntry := func() Entry {
		nextTID++
		kind := KindSyscall
		if rng.Intn(10) == 0 {
			kind = KindPromote // control entries consume no seq
		}
		return Entry{Kind: kind, Event: sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, TID: nextTID}}}
	}
	cursors := map[string]*Cursor{}
	nextCursor := 0
	check := func(op string) error {
		if mb.Len() != ref.len() {
			return fmt.Errorf("%s: Len = %d, ref %d", op, mb.Len(), ref.len())
		}
		if mb.Full() != ref.full() {
			return fmt.Errorf("%s: Full = %v, ref %v", op, mb.Full(), ref.full())
		}
		if mb.Closed() != ref.closed {
			return fmt.Errorf("%s: Closed = %v, ref %v", op, mb.Closed(), ref.closed)
		}
		if mb.NextSeq() != ref.seq {
			return fmt.Errorf("%s: NextSeq = %d, ref %d", op, mb.NextSeq(), ref.seq)
		}
		if mb.HighWater != ref.highWater {
			return fmt.Errorf("%s: HighWater = %d, ref %d", op, mb.HighWater, ref.highWater)
		}
		if mb.Dropped != ref.dropped {
			return fmt.Errorf("%s: Dropped = %d, ref %d", op, mb.Dropped, ref.dropped)
		}
		if len(mb.cursors) != len(ref.cursors) {
			return fmt.Errorf("%s: Cursors = %d, ref %d", op, len(mb.cursors), len(ref.cursors))
		}
		for name, c := range cursors {
			if c.Lag() != ref.lag(name) {
				return fmt.Errorf("%s: cursor %s Lag = %d, ref %d", op, name, c.Lag(), ref.lag(name))
			}
			if c.Empty() != (ref.lag(name) == 0) {
				return fmt.Errorf("%s: cursor %s Empty = %v, ref lag %d", op, name, c.Empty(), ref.lag(name))
			}
		}
		return nil
	}
	var scratch []Entry
	for i := 0; i < n; i++ {
		switch op := rng.Intn(20); {
		case op < 5: // Put (guarded against blocking)
			if !mb.Full() || mb.Closed() {
				e := mkEntry()
				got, want := mb.Put(tk, e), ref.put(e)
				if got != want {
					return fmt.Errorf("op %d: Put = %v, ref %v", i, got, want)
				}
			}
		case op < 8: // TryAppend (never blocks)
			e := mkEntry()
			got, want := mb.TryAppend(e), ref.tryAppend(e)
			if got != want {
				return fmt.Errorf("op %d: TryAppend = %v, ref %v", i, got, want)
			}
		case op < 10: // PutBatch sized to the free space (or closed: fail-fast)
			free := mb.Cap() - mb.Len()
			size := 0
			if free > 0 {
				size = rng.Intn(free) + 1
			}
			if mb.Closed() {
				size = rng.Intn(3) + 1 // appends nothing, must not block
			}
			batch := make([]Entry, size)
			for j := range batch {
				batch[j] = mkEntry()
			}
			got, _ := mb.PutBatch(tk, batch)
			if want := ref.putBatch(batch); got != want {
				return fmt.Errorf("op %d: PutBatch = %d, ref %d", i, got, want)
			}
		case op < 12: // OpenCursor (bounded so the test stays meaningful)
			if len(cursors) < 4 {
				name := fmt.Sprintf("v%d", nextCursor)
				nextCursor++
				cursors[name] = mb.OpenCursor(name)
				ref.open(name)
			}
		case op < 13: // Close a random cursor (variant eject)
			if len(cursors) > 0 {
				name := pickCursor(cursors, rng)
				cursors[name].Close()
				delete(cursors, name)
				ref.closeCursor(name)
			}
		case op < 17: // DrainUpTo on a random cursor (guarded against blocking)
			if len(cursors) > 0 {
				name := pickCursor(cursors, rng)
				c := cursors[name]
				if !c.Empty() || c.Closed() {
					max := rng.Intn(mb.Cap() + 1)
					scratch = c.DrainUpTo(tk, scratch[:0], max)
					want := ref.drain(name, max)
					if len(scratch) != len(want) {
						return fmt.Errorf("op %d: cursor %s DrainUpTo(%d) = %d entries, ref %d",
							i, name, max, len(scratch), len(want))
					}
					for j := range want {
						if !entryEq(scratch[j], want[j]) {
							return fmt.Errorf("op %d: cursor %s entry %d = %+v, ref %+v",
								i, name, j, scratch[j], want[j])
						}
					}
				}
			}
		case op < 18: // Close
			mb.Close()
			ref.closed = true
		default: // Reset (reopens, detaches cursors, renumbers from 0)
			mb.Reset()
			ref.reset()
			cursors = map[string]*Cursor{}
		}
		if err := check(fmt.Sprintf("after op %d", i)); err != nil {
			return err
		}
	}
	return nil
}

// pickCursor selects a deterministic random cursor name: map iteration
// order is randomized by the runtime, so sort-by-scan over the known
// bounded name space keeps the choice reproducible per seed.
func pickCursor(cursors map[string]*Cursor, rng *rand.Rand) string {
	names := make([]string, 0, len(cursors))
	for name := range cursors {
		names = append(names, name)
	}
	// Insertion sort: tiny fixed-size slice, avoids importing sort just
	// for determinism plumbing.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names[rng.Intn(len(names))]
}

// TestMultiLaggingCursorRetention pins the retention contract directly:
// a fast cursor running ahead must not free entries a lagging sibling
// has not consumed, and the lagging cursor reads the full stream.
func TestMultiLaggingCursorRetention(t *testing.T) {
	s := sim.New()
	mb := NewMulti(s, 8)
	s.Go("driver", func(tk *sim.Task) {
		fast := mb.OpenCursor("fast")
		slow := mb.OpenCursor("slow")
		for i := 0; i < 6; i++ {
			mb.Put(tk, Entry{Kind: KindSyscall, Event: sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, TID: i + 1}}})
		}
		got := fast.DrainUpTo(tk, nil, 0)
		if len(got) != 6 {
			t.Errorf("fast drained %d entries, want 6", len(got))
		}
		// The fast cursor consumed everything, but retention is pinned by
		// the slow cursor: nothing has been reclaimed.
		if mb.Len() != 6 {
			t.Errorf("retained occupancy = %d after fast drain, want 6 (slow cursor lags)", mb.Len())
		}
		if slow.Lag() != 6 {
			t.Errorf("slow cursor lag = %d, want 6", slow.Lag())
		}
		// The lagging cursor still reads the full stream, in order.
		got = slow.DrainUpTo(tk, nil, 0)
		if len(got) != 6 {
			t.Fatalf("slow drained %d entries, want 6", len(got))
		}
		for i, e := range got {
			if e.Event.Seq != uint64(i) || e.Event.Call.TID != i+1 {
				t.Errorf("slow entry %d: seq %d tid %d, want seq %d tid %d",
					i, e.Event.Seq, e.Event.Call.TID, i, i+1)
			}
		}
		if mb.Len() != 0 {
			t.Errorf("retained occupancy = %d after both drains, want 0", mb.Len())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCursorReleaseUnblocksProducer pins the eject contract: a
// producer parked behind a dead variant's backlog resumes the moment the
// variant's cursor closes, without any sibling action.
func TestMultiCursorReleaseUnblocksProducer(t *testing.T) {
	s := sim.New()
	mb := NewMulti(s, 4)
	var produced int
	s.Go("producer", func(tk *sim.Task) {
		live := mb.OpenCursor("live")
		stuck := mb.OpenCursor("stuck")
		s.Go("live-consumer", func(ct *sim.Task) {
			for {
				got := live.DrainUpTo(ct, nil, 0)
				if len(got) == 0 {
					return // cursor or buffer closed
				}
			}
		})
		s.Go("ejector", func(et *sim.Task) {
			// Let the producer fill retention behind the stuck cursor, then
			// eject it. The producer must resume without anyone draining.
			et.Sleep(10)
			if !mb.Full() {
				t.Error("buffer not full at eject time; stuck cursor did not pin retention")
			}
			stuck.Close()
		})
		for i := 0; i < 8; i++ {
			if !mb.Put(tk, Entry{Kind: KindSyscall}) {
				t.Errorf("Put %d failed", i)
			}
			produced++
		}
		if stuck.Lag() != 0 {
			t.Errorf("closed cursor lag = %d, want 0 retention effect", mb.Len())
		}
		mb.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if produced != 8 {
		t.Errorf("produced %d entries, want 8", produced)
	}
	if mb.ProducerBlocked == 0 {
		t.Error("producer never blocked; test did not exercise the full path")
	}
}

// TestMultiCursorClosedMidDrainObservesTeardown pins the consumer side
// of eject: a consumer parked on its cursor's empty view wakes and
// observes teardown when the cursor is closed out from under it.
func TestMultiCursorClosedMidDrainObservesTeardown(t *testing.T) {
	s := sim.New()
	mb := NewMulti(s, 4)
	c := mb.OpenCursor("victim")
	drainReturned := false
	s.Go("consumer", func(tk *sim.Task) {
		got := c.DrainUpTo(tk, nil, 0) // parks: nothing appended yet
		if len(got) != 0 {
			t.Errorf("drain returned %d entries after eject, want 0", len(got))
		}
		drainReturned = true
	})
	s.Go("ejector", func(tk *sim.Task) {
		tk.Sleep(5)
		c.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !drainReturned {
		t.Error("consumer never returned from DrainUpTo after cursor close")
	}
	if !c.Closed() {
		t.Error("cursor not Closed after Close")
	}
}
