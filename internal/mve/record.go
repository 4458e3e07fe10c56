package mve

import (
	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

func (p *Proc) invokeSingle(t *sim.Task, call sysabi.Call) sysabi.Result {
	if t.Profiled() {
		t.PushLabel(obs.LblLeader)
		t.PushLabel(obs.LblService)
		defer t.PopLabel()
		defer t.PopLabel()
	}
	p.m.Stats.Intercepted++
	if p.m.costs.Intercept > 0 {
		t.Advance(p.m.costs.Intercept)
	}
	if rec := p.m.rec; rec.Enabled() {
		rec.Inc(obs.CSyscallsSingle)
		start := t.Now()
		res := p.m.kernel.Invoke(t, call)
		rec.Observe(obs.HSyscallSingle, t.Now()-start)
		p.trackRequest(t, call, res, nil)
		return res
	}
	return p.m.kernel.Invoke(t, call)
}

func (p *Proc) invokeLeader(t *sim.Task, call sysabi.Call) sysabi.Result {
	if t.Profiled() {
		t.PushLabel(obs.LblLeader)
		t.PushLabel(obs.LblService)
		defer t.PopLabel()
		defer t.PopLabel()
	}
	if p.m.costs.Record > 0 {
		t.Advance(p.m.costs.Record)
	}
	rec := p.m.rec
	start := t.Now()
	res := p.m.kernel.Invoke(t, call)
	if rec.Enabled() {
		rec.Inc(obs.CSyscallsLeader)
		rec.Observe(obs.HSyscallLeader, t.Now()-start)
	}
	// The entry shares the live call's and result's payloads: the ring
	// copies them when (and only when) it really appends, so nothing is
	// copied for an event it refuses. Put may park first; an epoll_wait's
	// Ready stays intact meanwhile, because only this thread waits on its
	// epoll fd again (sysabi.Result.Ready), and so does the data the
	// kernel lent a read that offered no buffer, because only this thread
	// reads its fd next (sysabi.Call.Buf).
	e := ringbuf.Entry{Kind: ringbuf.KindSyscall, Event: sysabi.Event{Call: call, Result: res}}
	if rec.Enabled() {
		// Stamps the recorded event's call with the request id (the live
		// call is untouched, so validation semantics cannot change).
		p.trackRequest(t, call, res, &e.Event)
	}
	ring := p.m.ring
	if p.m.FullPolicy == FullDiscard {
		if !ring.TryAppend(e) {
			// A consumer lags too far behind: degrade the update, not
			// the service. The stall names the laggiest consumer, whose
			// pinned retention is what filled the ring, for the stall
			// handler (controller) to fail. The leader proceeds with its
			// result regardless.
			if lag := p.m.laggiest(); lag != nil && !ring.Closed() {
				p.m.raiseStall(Stall{Proc: lag.name, Reason: "buffer-full",
					Pending: ring.Len(), Dropped: ring.Dropped})
			}
			return res
		}
		p.m.Stats.Recorded++
		p.m.rec.Inc(obs.CMVERecorded)
		return res
	}
	// Blocking policy: Put parks the leader on a full buffer. It fails
	// only if the buffer was closed underneath us — the watchdog rescued
	// a leader blocked behind a hung follower — in which case the event is
	// dropped along with the follower.
	if !ring.Put(t, e) {
		return res
	}
	p.m.Stats.Recorded++
	p.m.rec.Inc(obs.CMVERecorded)
	if p.m.Lockstep {
		if p.m.costs.LockstepSync > 0 {
			t.Advance(p.m.costs.LockstepSync)
		}
		// Wait for every consumer to drain this event (MUC/Mx model). The
		// blocking wait replaces a yield-per-scheduler-round poll: the
		// leader still resumes at the same virtual instant (the drain
		// that empties the buffer, or teardown closing it), but without
		// burning a dispatch per poll while the follower catches up.
		p.m.ring.WaitDrained(t)
	}
	return res
}
