package mve

import (
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// queue is a FIFO of values whose pending entries stay contiguous in
// memory, so the whole backlog can be handed to dsl.Engine.Transform as
// one window. Popping advances a head index; the dead prefix is squeezed
// out only when the backing array is full and at least half dead, so push
// and pop are amortised O(1) whatever the backlog (a multithreaded
// follower queues hundreds of events per thread). Vacated slots are
// zeroed: a popped value's payload must not stay reachable from here.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

// window returns the pending entries, oldest first. It aliases the
// queue's storage and is invalidated by the next push or pop.
func (q *queue[T]) window() []T { return q.buf[q.head:] }

// front returns the oldest pending entry, under window's aliasing rule.
func (q *queue[T]) front() *T { return &q.buf[q.head] }

func (q *queue[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head >= q.len() && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop drops the n oldest entries (n <= len).
func (q *queue[T]) pop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// expGroup is the result of one rule transformation — the events the
// follower is expected to issue, plus the raw sequence numbers they
// consumed, used for global-order retirement — or, when no rule fired, of
// an identity pass-through: then the one expected event is held inline
// (events stays nil) and consumed exactly its own sequence number.
type expGroup struct {
	one    sysabi.Event   // identity: the expected event
	events []sysabi.Event // rule fired: the emitted events
	seq    uint64         // first raw sequence number consumed
	more   []uint64       // rule fired: the other raw sequence numbers consumed
	idx    int            // next of events to validate
}

// tidStream is one logical thread's share of a proc's state. While the
// proc follows, the leader's recorded events are demultiplexed by TID;
// each follower thread validates against (and is fed from) its own
// stream, the way Varan matches per-thread event streams in multithreaded
// programs.
type tidStream struct {
	raw  queue[sysabi.Event] // pulled from the ring, pre-rewrite
	exp  queue[expGroup]     // rewritten, awaiting validation
	wait sim.WaitQueue       // the thread, awaiting its events or its turn
	req  reqOpen             // while serving: the thread's open tagged request (span mode only)
}

// stream returns tid's stream, creating it on first use. Logical TIDs are
// small dense integers (thread spawn order), so the index is a slice, and
// it holds pointers because a parked task refers to its wait queue by
// address.
func (p *Proc) stream(tid int) *tidStream {
	for tid >= len(p.streams) {
		p.streams = append(p.streams, nil)
	}
	if p.streams[tid] == nil {
		p.streams[tid] = &tidStream{}
	}
	return p.streams[tid]
}

// wakeAllTIDs wakes every thread parked on its stream, in ascending TID
// order. The order matters: this runs on the validation hot path (group
// retirement), and any other order would make multithreaded-follower
// interleavings — and with them the golden artifacts — differ.
func (p *Proc) wakeAllTIDs() {
	for _, st := range p.streams {
		if st != nil {
			st.wait.WakeAll(p.m.sched)
		}
	}
}

func (p *Proc) queuesEmpty() bool {
	for _, st := range p.streams {
		if st != nil && (st.raw.len() > 0 || st.exp.len() > 0) {
			return false
		}
	}
	return true
}

// retire marks every raw event g consumed as validated and advances
// globalNext over them. A group starts only once its first sequence
// number is globalNext, so that one retires in order; only a multi-event
// rule match can reach ahead, past other threads' events, and those
// sequence numbers wait in p.ahead until globalNext catches up.
func (p *Proc) retire(g *expGroup) {
	p.globalNext = g.seq + 1
	p.ahead = append(p.ahead, g.more...)
	for i := 0; i < len(p.ahead); {
		if p.ahead[i] != p.globalNext {
			i++
			continue
		}
		p.globalNext++
		last := len(p.ahead) - 1
		p.ahead[i] = p.ahead[last]
		p.ahead = p.ahead[:last]
		i = 0
	}
}

// dropQueued discards everything queued for validation, giving the
// payloads no application ever saw back to the ring. Parked threads stay
// parked on their streams.
func (p *Proc) dropQueued() {
	ring := p.m.ring
	for _, st := range p.streams {
		if st == nil {
			continue
		}
		raw := st.raw.window()
		for i := range raw {
			ring.Recycle(&raw[i])
		}
		st.raw.pop(len(raw))
		exp := st.exp.window()
		for i := range exp {
			if exp[i].events == nil {
				ring.Recycle(&exp[i].one)
			}
		}
		st.exp.pop(len(exp))
	}
	p.ahead = p.ahead[:0]
}
