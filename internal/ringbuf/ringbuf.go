// Package ringbuf implements the Varan-style shared ring buffer at the
// heart of MVEDSUA's update pipeline (§3.1-3.2 of the paper).
//
// There is one ring, MultiBuffer, and any number of Cursors over it. The
// leader appends each executed system call and its result exactly once;
// every consumer — the paper's single follower, the demoted leader after
// a promotion, each replica or canary of an N-variant fleet — validates
// through its own Cursor, so adding a consumer costs no extra copy of
// the stream. Volckaert et al.'s MVEE replicates the same way: one
// shared buffer that every variant reads at its own position.
//
// Retention follows the slowest cursor: an entry is reclaimed only once
// every open cursor has consumed it, so a lagging consumer sees the full
// stream while fast siblings run ahead. The ring has a fixed capacity:
// when the slowest cursor lags that far, the leader blocks until it
// drains entries — exactly the mechanism behind the paper's Figure 7
// (small buffers reintroduce the update pause; a 2^24 buffer hides it
// completely). Closing a cursor (variant eject) releases its retention
// immediately, so a leader parked behind a dead variant's backlog
// resumes as soon as the eject lands. A cursor opens at the stream's
// current end: a freshly attached consumer sees only what is recorded
// from then on, which is also why a leader demoted at t4 can never read
// the pre-promotion tail meant for the process taking over.
//
// Besides syscall events the ring carries control entries: promotion
// (the leader demotes itself, §3.2 t4) and termination.
//
// Payload bytes (Call.Buf, Result.Data, Result.Ready) are copied once per
// hop, into buffers the ring recycles, under one ownership rule — the
// taker owns what it takes:
//
//   - The producer keeps its buffers. An append copies the entry's
//     payloads into the ring's own buffers, and only an append that really
//     happens copies anything: TryAppend on a full ring costs nothing.
//   - An entry returned by Get or a drain belongs to the caller for good.
//     The last cursor to take an entry receives the ring's buffers
//     themselves, an earlier one a copy; either way nothing the ring will
//     write again is aliased, however long the entry is held. (Peek does
//     alias the slot, until the entry is taken.)
//   - Giving buffers back is explicit and optional: Recycle/RecycleBytes/
//     RecycleReady, called by a taker that holds the only reference. A forgotten buffer
//     costs a later allocation, never a corruption. Entries nobody will
//     take (their cursor closed, the ring was reset) recycle themselves.
//
// The pool of recycled buffers is a field of the ring — one scheduler, no
// lock, nothing shared between the rings of different shards — and never
// holds more than was once in flight.
//
// Storage is a true circular buffer: absolute base/next indexes over a
// power-of-two backing array, so append and take are O(1) with no slice
// shifting and no steady-state allocation, and only the cursor sitting
// on the oldest entry pays the O(K) reclaim scan. The backing array
// grows lazily toward the configured capacity, so a 2^24-entry buffer
// (the paper's largest, §6.1) only consumes memory proportional to the
// occupancy it actually reaches.
//
// Wakeups are transition-only: a cursor's consumer is woken when its
// view goes empty→non-empty and the producer when retention goes
// full→not-full, never on other appends or removes. This is
// behaviorally identical to waking on every operation — a task only
// parks at the corresponding boundary, so the first opposite operation
// after it parks *is* the transition — but it keeps the wake bookkeeping
// off the hot path.
//
// Buffer is the K=1 view: one MultiBuffer plus its one Cursor behind the
// classic single-consumer queue API. It holds no state of its own. It
// stays because the single-consumer test suites use it as the reference
// behaviour the ring must reproduce with one cursor open, and because
// the benchmark's ring probes are written against it.
package ringbuf

import (
	"fmt"
	"time"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// Kind discriminates ring buffer entries.
type Kind int

// Entry kinds.
const (
	KindSyscall  Kind = iota // a recorded syscall event
	KindPromote              // leader demoted itself; consumer becomes leader
	KindShutdown             // producer exited; consumers should stop
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindPromote:
		return "promote"
	case KindShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Entry is one slot of the ring buffer.
type Entry struct {
	Kind  Kind
	Event sysabi.Event

	// PutAt is the virtual time the entry was appended, stamped by the
	// buffer itself. It lets the consumer attribute how long an entry
	// queued in the ring (the "ring wait" component of per-request
	// latency) without a side table.
	PutAt time.Duration
}

// pow2ceil returns the smallest power of two >= n (n >= 1).
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// entryDetail renders an entry for the trace.
func entryDetail(e Entry) string {
	if e.Kind == KindSyscall {
		return e.Event.String()
	}
	return e.Kind.String()
}

// Buffer is the K=1 view of the ring: a MultiBuffer with exactly one
// Cursor, presented as a single-producer single-consumer queue. The
// producer side (Put, PutBatch, TryAppend, WaitDrained, Close, the
// occupancy observables and counters) is the embedded MultiBuffer's;
// the consumer side forwards to the cursor.
type Buffer struct {
	*MultiBuffer
	cur *Cursor
}

// New returns a single-consumer buffer with the given capacity
// (minimum 1).
func New(sched *sim.Scheduler, capacity int) *Buffer {
	mb := NewMulti(sched, capacity)
	return &Buffer{MultiBuffer: mb, cur: mb.OpenCursor("consumer")}
}

// Get removes and returns the oldest entry; see Cursor.Get.
func (b *Buffer) Get(t *sim.Task) (Entry, bool) { return b.cur.Get(t) }

// Peek returns the oldest entry without removing it, if one is available.
func (b *Buffer) Peek() (Entry, bool) { return b.cur.Peek() }

// DrainUpTo removes up to max pending entries; see Cursor.DrainUpTo.
func (b *Buffer) DrainUpTo(t *sim.Task, dst []Entry, max int) []Entry {
	return b.cur.DrainUpTo(t, dst, max)
}

// DrainInto removes every pending entry; see Cursor.DrainUpTo.
func (b *Buffer) DrainInto(t *sim.Task, dst []Entry) []Entry {
	return b.cur.DrainUpTo(t, dst, 0)
}

// Reset discards all pending entries, reopens the buffer and restarts
// sequence numbering; see MultiBuffer.Reset. The view's consumer stays
// attached: its cursor reopens on the fresh stream, so a consumer parked
// across the reset keeps reading.
func (b *Buffer) Reset() {
	b.MultiBuffer.Reset()
	b.attach(b.cur)
}
