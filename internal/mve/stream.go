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

// expGroup is the result of one transformation of the front of a thread's
// raw window: a rule's rewrite, or the identity pass-through of one event
// when no rule fired. The events the follower is expected to issue and the
// raw sequence numbers consumed besides the first (used for global-order
// retirement; only a multi-event rule match has any) wait in the stream's
// evs and seqs queues, in group order; the group holds the counts.
type expGroup struct {
	seq  uint64 // first raw sequence number consumed
	n    int    // events expected, at the front of evs once this group is the oldest
	more int    // other raw sequence numbers consumed, likewise in seqs
	idx  int    // events validated so far
}

// tidStream is one logical thread's share of a proc's state. While the
// proc follows, the leader's recorded events are demultiplexed by TID;
// each follower thread validates against (and is fed from) its own
// stream, the way Varan matches per-thread event streams in multithreaded
// programs.
type tidStream struct {
	p    *Proc               // the proc the stream belongs to
	raw  queue[sysabi.Event] // pulled from the ring, pre-rewrite
	exp  queue[expGroup]     // rewritten, awaiting validation
	evs  queue[sysabi.Event] // the expected events of exp's groups, each owning its payloads
	seqs queue[uint64]       // the extra sequence numbers of exp's groups
	wait sim.WaitQueue       // the thread, awaiting its events or its turn
	req  reqOpen             // while serving: the thread's open tagged request (span mode only)

	// ready is the Result.Ready the thread's last replayed epoll_wait
	// returned: a copy of the recorded list, refilled by its next one.
	ready []int
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
		p.streams[tid] = &tidStream{p: p}
	}
	return p.streams[tid]
}

// StillWaiting is the turn wait's re-check in invokeFollower, as its
// sim.Waiter: false on the thread's turn and on anything else — a role
// change, a stream dropQueued emptied — that the thread must wake to see.
func (st *tidStream) StillWaiting() bool {
	if st.p.role != RoleFollower || st.exp.len() == 0 {
		return false
	}
	g := st.exp.front()
	return g.idx == 0 && g.seq != st.p.globalNext
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

// retire marks every raw event g, the oldest group of st, consumed as
// validated and advances globalNext over them. A group starts only once
// its first sequence number is globalNext, so that one retires in order;
// only a multi-event rule match can reach ahead, past other threads'
// events, and those sequence numbers wait in p.ahead until globalNext
// catches up.
func (p *Proc) retire(st *tidStream, g *expGroup) {
	p.globalNext = g.seq + 1
	p.ahead = append(p.ahead, st.seqs.window()[:g.more]...)
	st.seqs.pop(g.more)
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
	drop := func(q *queue[sysabi.Event]) {
		evs := q.window()
		for i := range evs {
			p.m.ring.Recycle(&evs[i])
		}
		q.pop(len(evs))
	}
	for _, st := range p.streams {
		if st == nil {
			continue
		}
		drop(&st.raw)
		drop(&st.evs)
		st.exp.pop(st.exp.len())
		st.seqs.pop(st.seqs.len())
	}
	p.ahead = p.ahead[:0]
}
