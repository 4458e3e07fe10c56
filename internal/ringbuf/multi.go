package ringbuf

import (
	"fmt"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// minStorage is the initial backing-array size (entries). Small so tiny
// test buffers stay tiny; doubling reaches any capacity quickly.
const minStorage = 8

// MultiBuffer is the ring: a single-producer stream readable through any
// number of independent Cursors, with cooperative blocking semantics on
// the sim scheduler.
type MultiBuffer struct {
	sched    *sim.Scheduler
	capacity int
	buf      []Entry // circular storage; len(buf) is a power of two
	base     uint64  // absolute index of the oldest retained entry
	next     uint64  // absolute index the next append lands on
	seq      uint64  // sequence numbers assigned to syscall events

	cursors []*Cursor // open cursors, attach order

	// pool recycles payload buffers: append copies an entry's payloads
	// into buffers from it, and Recycle/RecycleBytes (and the reclaim of
	// entries nobody took) give them back.
	pool payloadPool

	notFull sim.WaitQueue // producer parked on a full buffer
	drained sim.WaitQueue // WaitDrained callers parked until all cursors drain

	closed bool

	// HighWater tracks the maximum retained occupancy ever reached, for
	// reporting.
	HighWater int
	// ProducerBlocked counts how many times the producer had to wait on a
	// full buffer (the visible service pause of Figure 7).
	ProducerBlocked int
	// Dropped counts entries TryAppend refused on a full buffer — the
	// discard-policy path. A discarded consumer shows Dropped > 0 while a
	// merely stalled one shows ProducerBlocked > 0; the two failure
	// shapes are distinguishable in the trace and in reports.
	Dropped int

	// Rec, if non-nil, receives ring-buffer metrics and trace events
	// (the flight recorder). Nil costs one pointer check per operation.
	Rec *obs.Recorder
	// blocking is set by a producer park and cleared by a put that did
	// not park: one ring.block milestone per backpressure episode, not
	// per park. Kept only while Rec is on.
	blocking bool
}

// Cursor is one consumer's position in a MultiBuffer's stream.
type Cursor struct {
	mb   *MultiBuffer
	name string
	pos  uint64 // absolute index of the next entry this cursor reads

	notEmpty sim.WaitQueue // this cursor's consumer parked on an empty view
	closed   bool
}

// NewMulti returns a ring with the given capacity (minimum 1). Capacity
// bounds retention: the producer blocks (or TryAppend fails) once the
// slowest open cursor lags that far behind.
func NewMulti(sched *sim.Scheduler, capacity int) *MultiBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &MultiBuffer{sched: sched, capacity: capacity}
}

// Cap returns the retention capacity.
func (mb *MultiBuffer) Cap() int { return mb.capacity }

// Len returns the retained occupancy (entries not yet consumed by the
// slowest open cursor; zero when no cursors are open).
func (mb *MultiBuffer) Len() int { return int(mb.next - mb.base) }

// Empty reports whether every open cursor has consumed every entry.
func (mb *MultiBuffer) Empty() bool { return mb.next == mb.base }

// Full reports whether retention has no free slot.
func (mb *MultiBuffer) Full() bool { return mb.Len() >= mb.capacity }

// Closed reports whether Close has been called.
func (mb *MultiBuffer) Closed() bool { return mb.closed }

// NextSeq returns the sequence number the next recorded event will get.
func (mb *MultiBuffer) NextSeq() uint64 { return mb.seq }

// OpenCursor attaches a named cursor positioned at the next appended
// entry: the new consumer sees only events recorded from now on, the
// fork point of a freshly attached variant.
func (mb *MultiBuffer) OpenCursor(name string) *Cursor {
	c := &Cursor{mb: mb, name: name}
	mb.attach(c)
	return c
}

// attach (re)opens c at the stream's current end.
func (mb *MultiBuffer) attach(c *Cursor) {
	c.pos, c.closed = mb.next, false
	mb.cursors = append(mb.cursors, c)
}

// slot returns the storage slot for absolute index i.
func (mb *MultiBuffer) slot(i uint64) *Entry { return &mb.buf[int(i)&(len(mb.buf)-1)] }

// grow enlarges the backing array (retained == len(buf) < capacity),
// unwrapping so base restarts at slot zero of the new array.
func (mb *MultiBuffer) grow() {
	size := minStorage
	if len(mb.buf) > 0 {
		size = len(mb.buf) * 2
	}
	if max := pow2ceil(mb.capacity); size > max {
		size = max
	}
	next := make([]Entry, size)
	n := mb.Len()
	for i := 0; i < n; i++ {
		next[i] = *mb.slot(mb.base + uint64(i))
	}
	// Rebase absolute indexes so slot arithmetic stays aligned with the
	// unwrapped copy: base must land on slot 0.
	shift := mb.base
	mb.buf = next
	mb.base -= shift
	mb.next -= shift
	for _, c := range mb.cursors {
		c.pos -= shift
	}
}

// minPos returns the position of the slowest open cursor (next when no
// cursor is open): every entry below it has been taken by everyone.
func (mb *MultiBuffer) minPos() uint64 {
	min := mb.next
	for _, c := range mb.cursors {
		if c.pos < min {
			min = c.pos
		}
	}
	return min
}

// reclaim advances base to the slowest open cursor.
func (mb *MultiBuffer) reclaim() { mb.reclaimTo(mb.minPos()) }

// reclaimTo frees the slots below min — entries no cursor will take, whose
// payloads go back to the pool — and advances base to it.
func (mb *MultiBuffer) reclaimTo(min uint64) {
	for i := mb.base; i < min; i++ {
		s := mb.slot(i)
		mb.pool.recycle(&s.Event)
		*s = Entry{} // release the remaining references promptly
	}
	mb.advance(min)
}

// advance moves base up to min over slots already emptied, waking the
// producer and drain waiters on the relevant transitions.
func (mb *MultiBuffer) advance(min uint64) {
	if min == mb.base {
		return
	}
	wasFull := mb.Full()
	mb.base = min
	if mb.Rec.Enabled() {
		mb.Rec.SetGauge(obs.GRingOccupancy, int64(mb.Len()))
	}
	if wasFull && !mb.Full() {
		// full→not-full: the only edge a producer can be parked behind.
		mb.notFull.WakeAll(mb.sched)
	}
	if mb.Len() == 0 {
		mb.drained.WakeAll(mb.sched)
	}
}

// append stores one entry (capacity already checked) and updates the
// occupancy accounting shared by Put, PutBatch and TryAppend. This is the
// one place payload bytes enter the ring: they are copied here, once,
// into recycled buffers, so the producer keeps its own buffers and a
// refused append has copied nothing.
func (mb *MultiBuffer) append(e Entry) {
	if e.Kind == KindSyscall {
		e.Event.Seq = mb.seq
		mb.seq++
	}
	mb.pool.adopt(&e.Event)
	e.PutAt = mb.sched.Now()
	if mb.Len() == len(mb.buf) {
		mb.grow()
	}
	*mb.slot(mb.next) = e
	mb.next++
	if len(mb.cursors) == 0 {
		// Nobody will ever read it: reclaim immediately so a cursor-less
		// buffer cannot wedge its producer (and never counts as occupancy).
		mb.reclaim()
	}
	occ := mb.Len()
	if occ > mb.HighWater {
		mb.HighWater = occ
	}
	if mb.Rec.Enabled() {
		mb.Rec.Inc(obs.CRingPut)
		mb.Rec.SetGauge(obs.GRingOccupancy, int64(occ))
		mb.Rec.MaxGauge(obs.GRingHighWater, int64(mb.HighWater))
	}
	// empty→non-empty per cursor: the only edge a consumer can be parked
	// behind, so only cursors that were waiting for exactly this entry
	// are woken.
	for _, c := range mb.cursors {
		if c.pos+1 == mb.next {
			c.notEmpty.WakeAll(mb.sched)
		}
	}
}

// blockUntilNotFull parks the producer until retention frees a slot, a
// cursor closes, or the buffer closes, charging the per-park accounting
// Put and PutBatch share; the first park of a backpressure episode also
// leaves a milestone. It reports false if closed.
func (mb *MultiBuffer) blockUntilNotFull(t *sim.Task) bool {
	if mb.Rec.Enabled() && !mb.Full() {
		mb.blocking = false
	}
	for mb.Full() {
		if mb.closed {
			return false
		}
		mb.ProducerBlocked++
		mb.Rec.Inc(obs.CRingBlocked)
		if mb.Rec.Enabled() && !mb.blocking {
			mb.blocking = true
			mb.Rec.Emitf(obs.KindRingBlock, t.Name(), "buffer full (%d/%d)", mb.Len(), mb.capacity)
		}
		blockedAt := t.Now()
		t.Block(&mb.notFull)
		mb.Rec.Observe(obs.HRingBlockWait, t.Now()-blockedAt)
		t.ChargeWait(obs.LblRingWait, blockedAt)
	}
	return !mb.closed
}

// Put appends one entry, blocking the producer task while retention is
// full. It reports false if the buffer was closed.
func (mb *MultiBuffer) Put(t *sim.Task, e Entry) bool {
	if !mb.blockUntilNotFull(t) {
		return false
	}
	mb.append(e)
	return true
}

// PutBatch appends every entry in order, blocking whenever retention is
// full, and returns how many entries were appended. Appended ==
// len(batch) unless the buffer closes mid-batch, in which case the tail
// is dropped and ok is false. Occupancy accounting and sequence
// numbering are per-entry, exactly as if each entry had been Put
// individually.
func (mb *MultiBuffer) PutBatch(t *sim.Task, batch []Entry) (appended int, ok bool) {
	for _, e := range batch {
		if !mb.blockUntilNotFull(t) {
			return appended, false
		}
		mb.append(e)
		appended++
	}
	return appended, true
}

// TryAppend appends an entry without ever blocking: it reports false if
// retention is full or the buffer closed, leaving the entry unrecorded.
// This is the producer side of the discard policy — instead of parking
// the leader behind a lagging consumer, the monitor observes the failed
// append and drops the laggard (the dMVX-style degradation path).
func (mb *MultiBuffer) TryAppend(e Entry) bool {
	if mb.closed || mb.Full() {
		if !mb.closed {
			mb.Dropped++
			mb.Rec.Inc(obs.CRingDropped)
			if mb.Rec.Enabled() {
				mb.Rec.Emitf(obs.KindRingDiscard, e.Kind.String(), "%s dropped (%d total, occ %d/%d)",
					entryDetail(e), mb.Dropped, mb.Len(), mb.capacity)
			}
		}
		return false
	}
	mb.append(e)
	return true
}

// Recycle gives the payload buffers of a taken event back to the ring
// and clears ev's references to them. Optional — an event that is never
// recycled costs an allocation later, nothing else — but the caller must
// hold the only references: the next append may overwrite the bytes.
func (mb *MultiBuffer) Recycle(ev *sysabi.Event) { mb.pool.recycle(ev) }

// RecycleBytes is Recycle for a single byte payload, for a taker that
// keeps the rest of the event (a follower gives back the compared
// Call.Buf, and a read's Result.Data once it is copied into the buffer
// its application offered; data nobody offered room for it hands over).
func (mb *MultiBuffer) RecycleBytes(b []byte) { mb.pool.bytes.put(b) }

// RecycleReady is RecycleBytes for an epoll_wait's Result.Ready, which a
// follower copies into storage of the issuing thread before giving the
// ring's back.
func (mb *MultiBuffer) RecycleReady(r []int) { mb.pool.ints.put(r) }

// WaitDrained blocks until every open cursor has consumed every
// appended entry, or the buffer closed. The lockstep leader uses this to
// wait for its consumers after each recorded event without burning a
// scheduler dispatch per poll.
func (mb *MultiBuffer) WaitDrained(t *sim.Task) {
	blockedAt := t.Now()
	for mb.Len() > 0 && !mb.closed {
		t.Block(&mb.drained)
	}
	t.ChargeWait(obs.LblLockstepWait, blockedAt)
}

// Close marks the buffer closed and wakes all waiters: cursor consumers,
// the producer, and drain waiters. Cursors can still drain what is
// retained; Put fails afterwards.
func (mb *MultiBuffer) Close() {
	if mb.closed {
		return
	}
	mb.closed = true
	for _, c := range mb.cursors {
		c.notEmpty.WakeAll(mb.sched)
	}
	mb.notFull.WakeAll(mb.sched)
	mb.drained.WakeAll(mb.sched)
}

// Reset discards all retained entries, detaches every cursor, reopens
// the buffer, and restarts sequence numbering at zero: the next attached
// consumer validates a fresh stream. Used when an update rolls back and
// later retries, and when a fleet is torn down and rebuilt.
//
// All wait queues are woken: a producer parked on a full buffer at the
// moment of a reset must re-check its condition (the buffer is now
// empty, so it proceeds), and a consumer parked on an empty cursor must
// observe the detach rather than sleep through the reopen. Without the
// wakeups such a task stays wedged forever — no future append can reach
// a queue nobody ever wakes.
func (mb *MultiBuffer) Reset() {
	for i := mb.base; i < mb.next; i++ {
		s := mb.slot(i)
		mb.pool.recycle(&s.Event)
		*s = Entry{}
	}
	mb.base, mb.next = 0, 0
	mb.seq = 0
	mb.closed = false
	mb.HighWater = 0
	mb.ProducerBlocked = 0
	mb.Dropped = 0
	mb.Rec.Inc(obs.CRingResets)
	mb.Rec.SetGauge(obs.GRingOccupancy, 0)
	mb.Rec.Emit(obs.KindRingReset, "ringbuf", "reset: entries discarded, seq restarted at 0")
	mb.notFull.WakeAll(mb.sched)
	for _, c := range mb.cursors {
		c.closed = true
		c.notEmpty.WakeAll(mb.sched)
	}
	mb.cursors = nil
	mb.drained.WakeAll(mb.sched)
}

// Lag returns how many appended entries this cursor has not consumed.
// A closed cursor reports 0: it retains nothing and will read nothing.
func (c *Cursor) Lag() int {
	if c.closed {
		return 0
	}
	return int(c.mb.next - c.pos)
}

// Len reports the cursor's pending entries (its view of occupancy).
func (c *Cursor) Len() int { return c.Lag() }

// Empty reports whether the cursor has consumed every appended entry.
func (c *Cursor) Empty() bool { return c.pos == c.mb.next }

// Closed reports whether the cursor was released (or its buffer closed):
// the consumer-side teardown signal.
func (c *Cursor) Closed() bool { return c.closed || c.mb.closed }

// Close releases the cursor: its retention is reclaimed immediately, a
// producer parked behind its backlog resumes, and any consumer parked on
// it observes teardown. Closing twice is a no-op. This is the variant
// eject path.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	mb := c.mb
	for i, oc := range mb.cursors {
		if oc == c {
			mb.cursors = append(mb.cursors[:i], mb.cursors[i+1:]...)
			break
		}
	}
	c.notEmpty.WakeAll(mb.sched)
	mb.reclaim()
	if len(mb.cursors) == 0 && mb.Len() == 0 {
		mb.drained.WakeAll(mb.sched)
	}
}

// take consumes the entry at the cursor position (bounds already
// checked), charging the per-entry accounting Get and the drain calls
// share. The taker owns what it takes: the last cursor to take an entry
// receives the ring's own payload buffers, an earlier one a copy, so the
// returned entry never aliases storage the producer will write again.
func (c *Cursor) take() Entry {
	mb := c.mb
	s := mb.slot(c.pos)
	e := *s
	c.pos++
	// Only a cursor that sat on the oldest retained entry can be its last
	// taker (and only then is the O(K) scan paid).
	if c.pos-1 == mb.base && mb.minPos() == c.pos {
		*s = Entry{} // handed over, payloads included
		mb.advance(c.pos)
	} else {
		mb.pool.adopt(&e.Event)
	}
	if mb.Rec.Enabled() {
		mb.Rec.Inc(obs.CRingGet)
	}
	return e
}

// blockEmpty parks a consumer on the cursor's empty view, attributing
// the blocked interval to the ring_wait profiling dimension (one episode
// per park, charged under the task's current label stack).
func (c *Cursor) blockEmpty(t *sim.Task) {
	blockedAt := t.Now()
	t.Block(&c.notEmpty)
	t.ChargeWait(obs.LblRingWait, blockedAt)
}

// Get removes and returns the cursor's oldest pending entry, blocking
// the consumer task while its view is empty. It reports false once the
// cursor (or buffer) is closed and drained.
func (c *Cursor) Get(t *sim.Task) (Entry, bool) {
	for c.Empty() {
		if c.Closed() {
			return Entry{}, false
		}
		c.blockEmpty(t)
	}
	if c.closed {
		return Entry{}, false
	}
	return c.take(), true
}

// Peek returns the cursor's oldest pending entry without consuming it,
// if one is available. The entry is a view of the slot: its payloads
// stay valid only until the entry is taken.
func (c *Cursor) Peek() (Entry, bool) {
	if c.closed || c.Empty() {
		return Entry{}, false
	}
	return *c.mb.slot(c.pos), true
}

// DrainUpTo removes up to max pending entries (all of them when max <= 0)
// in one call, appending them to dst and returning the extended slice.
// It blocks while the cursor's view is empty; a return with no entries
// appended means the cursor or buffer closed. Unlike repeated Get calls,
// the whole batch transfers in a single scheduler round-trip, but
// occupancy accounting stays per-entry (the occupancy gauge and the
// put/get counters are indistinguishable from a Get loop).
func (c *Cursor) DrainUpTo(t *sim.Task, dst []Entry, max int) []Entry {
	for c.Empty() {
		if c.Closed() {
			return dst
		}
		c.blockEmpty(t)
	}
	if c.closed {
		return dst
	}
	n := c.Lag()
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, c.take())
	}
	return dst
}

// String describes the cursor for logs.
func (c *Cursor) String() string {
	return fmt.Sprintf("cursor %s@#%d (lag %d)", c.name, c.pos, c.Lag())
}
