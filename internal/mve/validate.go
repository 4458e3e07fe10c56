package mve

import (
	"fmt"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// invokeFollower validates one follower syscall. The second return value
// requests re-dispatch after a role change (promotion).
func (p *Proc) invokeFollower(t *sim.Task, call sysabi.Call) (sysabi.Result, bool) {
	if t.Profiled() {
		t.PushLabel(p.roleLabel())
		t.PushLabel(obs.LblValidate)
		defer t.PopLabel()
		defer t.PopLabel()
	}
	if p.diverged {
		p.parkForever(t)
	}
	// A freshly demoted leader waits here until the promotion event has
	// been consumed and the new leader has taken over.
	for p.m.leader == p {
		t.Block(&p.m.promoWait)
		if p.role != RoleFollower {
			return sysabi.Result{}, true
		}
	}
	// Model the follower's per-event processing as parallel work. A
	// profiler charges the sleep-modeled interval to the off-CPU validate
	// dimension — this is the per-event cost that scales with the variant
	// count K in fleet profiles.
	if p.m.costs.Replay > 0 {
		start := t.Now()
		t.Sleep(p.m.costs.Replay)
		t.ChargeWait(obs.LblValidate, start)
	}
	st := p.stream(call.TID)
	var exp sysabi.Event
	for {
		for st.grp.n == 0 {
			if roleChanged := p.fillExpected(t, call.TID, st); roleChanged || p.role != RoleFollower {
				return sysabi.Result{}, true
			}
		}
		g := &st.grp
		// Honour the leader's global interleaving: a new group may only
		// start when its first raw event is the oldest unretired one. Every
		// retirement wakes every thread; sim settles those still out of turn.
		if g.idx == 0 && g.seq != p.globalNext {
			t.BlockWhile(&st.wait, st)
			if p.role != RoleFollower {
				return sysabi.Result{}, true
			}
			continue
		}
		exp = *st.q.front()
		st.q.pop(1)
		g.idx++
		p.m.Stats.Replayed++
		p.progress++
		if rec := p.m.rec; rec.Enabled() {
			rec.Inc(obs.CMVEReplayed)
			rec.Inc(obs.CSyscallsFollower)
		}
		if g.idx >= g.n {
			p.retire(st)
			p.wakeAllTIDs()
		}
		break
	}
	if reason, ok := compare(exp, call); !ok {
		if p.crashPromote {
			// The leader died mid-request: its stream is valid only up to
			// the crash point, and this mismatch is where the truncation
			// bites. Discard the garbage tail, complete the promotion, and
			// re-dispatch the in-flight call natively.
			p.m.rec.Emitf(obs.KindRole, p.name, "crashed leader's stream truncated at #%d (%s); promoting", exp.Seq, reason)
			p.discardTail(t, st)
			if p.role == RoleFollower {
				p.becomeLeader()
			}
			return sysabi.Result{}, true
		}
		// The report outlives this event — a candidate inside its budget
		// goes on to retire it — so it owns its bytes.
		d := Divergence{Proc: p.name, Seq: exp.Seq, Got: call.Clone(), Reason: reason,
			Expected: sysabi.Event{Seq: exp.Seq, Call: exp.Call.Clone(), Result: exp.Result.Clone()}}
		p.m.divergences = append(p.m.divergences, d)
		p.m.rec.Inc(obs.CMVEDivergences)
		p.m.rec.Emit(obs.KindDivergence, p.name, d.String())
		// Count it, and let a candidate inside its budget absorb the
		// mismatch — it adopts the leader's recorded result below and keeps
		// validating, so the gate can measure a divergence *rate* instead of
		// dying on the first disagreement.
		p.divergeCount++
		if p == p.m.candidate && p.divergeCount <= p.budget {
			p.m.rec.Inc(obs.CFleetDivsTolerated)
		} else {
			p.diverged = true
			v := p.m.failVariant(p, "divergence", &d)
			if p.m.OnVerdict != nil {
				p.m.OnVerdict(v)
			}
			p.parkForever(t)
		}
	}
	if rec := p.m.rec; rec.Enabled() && exp.Call.ReqID != 0 {
		// Validation-lag component, and the end of the request's async
		// span: the follower has now confirmed the response the client
		// already received.
		if drainedAt, ok := p.reqDrainAt[exp.Call.ReqID]; ok {
			delete(p.reqDrainAt, exp.Call.ReqID)
			rec.Observe(obs.HReqValidateLag, t.Now()-drainedAt)
		}
		rec.EndAsync("request", reqSpanName(exp.Call.ReqID), exp.Call.ReqID)
	}
	// If a promotion is pending and this was the last queued event,
	// complete the switch so the next syscall executes natively.
	if p.promoteSeen && p.queuesEmpty() {
		p.becomeLeader()
	}
	// The event is retired, and this proc owns its bytes — it took them
	// from the ring, or a rule moved or copied them into an event of its
	// own: the call's payload, needed only for the comparison above, goes
	// back to the ring, and so does a read's data once it is copied into
	// the buffer the application offered (sysabi.Call.Buf) — a follower's
	// read(2) fills the follower's own memory. With no offer, or one too
	// small for what the leader read, the data passes to the application
	// as it is. An epoll_wait's ready list is copied into the thread's
	// storage, which its next epoll_wait refills (sysabi.Result.Ready), and
	// goes back too.
	p.m.ring.RecycleBytes(exp.Call.Buf)
	if d := exp.Result.Data; len(d) > 0 && cap(call.Buf) >= len(d) &&
		(call.Op == sysabi.OpRead || call.Op == sysabi.OpFRead) {
		exp.Result.Data = append(call.Buf[:0], d...)
		p.m.ring.RecycleBytes(d)
	}
	if r := exp.Result.Ready; len(r) > 0 {
		st.ready = append(st.ready[:0], r...)
		exp.Result.Ready = st.ready
		p.m.ring.RecycleReady(r)
	}
	return exp.Result, false
}

// fillExpected makes progress towards having an expected group for tid
// (whose stream is st): it transforms buffered raw events or pulls more
// entries from the ring buffer (demultiplexing them to the owning
// threads). It reports true if the proc's role changed (promotion
// consumed).
func (p *Proc) fillExpected(t *sim.Task, tid int, st *tidStream) bool {
	for {
		if p.role != RoleFollower {
			return true
		}
		// Complete a pending promotion once every queue has drained.
		if p.promoteSeen && p.queuesEmpty() {
			p.becomeLeader()
			return true
		}
		// Group the front of this thread's queue if we have enough of it.
		need := 1
		if n := st.q.len(); n > 0 {
			need = p.engine.NeedsLookahead(st.q.front().Call.Op)
			if n >= need || p.promoteSeen {
				p.transform(tid, st)
				return false
			}
		}
		if p.promoteSeen {
			// Nothing buffered for this thread and no more pulls: wait
			// for the global switch performed by the last drainer.
			t.Block(&st.wait)
			continue
		}
		// Pull more entries from the buffer — up to this thread's
		// lookahead shortfall in one batched drain, so a multi-event
		// rewrite rule costs one scheduler round-trip instead of one per
		// event. The bound matters: draining beyond the shortfall would
		// pull entries earlier than the unbatched path did, changing
		// producer-blocking instants and with them the virtual-time
		// timeline the golden artifacts pin down. Only one thread pulls
		// at a time; the others wait to be fed.
		if p.pulling {
			t.Block(&st.wait)
			continue
		}
		want := 1
		if n := st.q.len(); n > 0 {
			want = need - n
		}
		p.pulling = true
		p.drain = p.cursor.DrainUpTo(t, p.drain[:0], want)
		p.pulling = false
		p.progress += int64(len(p.drain))
		if len(p.drain) == 0 {
			// Cursor closed: this consumer is being ejected. Wake peers so
			// they observe the teardown too, then park. (The progress
			// tick mirrors the per-pull accounting of the unbatched
			// path, which charged the failed pull too.)
			p.progress++
			p.wakeAllTIDs()
			p.parkForever(t)
		}
		for i := range p.drain {
			e := &p.drain[i]
			switch e.Kind {
			case ringbuf.KindPromote:
				// The candidate's cue; anyone else keeps validating whoever
				// leads next.
				if p == p.m.candidate {
					p.promoteSeen = true
					p.wakeAllTIDs()
				}
			case ringbuf.KindShutdown:
				p.wakeAllTIDs()
				p.parkForever(t)
			default:
				etid := e.Event.Call.TID
				if rec := p.m.rec; rec.Enabled() && e.Event.Call.ReqID != 0 {
					// Ring-queueing component: append instant -> this drain.
					rec.Observe(obs.HReqRingWait, t.Now()-e.PutAt)
					p.reqDrainAt[e.Event.Call.ReqID] = t.Now()
				}
				est := p.stream(etid)
				est.q.push(e.Event)
				if etid != tid {
					est.wait.WakeAll(p.m.sched)
				}
			}
		}
	}
}

// transform makes the front of tid's queue (non-empty, groupless, and
// long enough for every rule that could start there) its group. With no
// rule fired that is the front event as it lies, payloads and all; a
// rule's emitted events, good only until the engine's next call, take
// the place of the events it consumed.
func (p *Proc) transform(tid int, st *tidStream) {
	raw := st.q.window()
	expected, consumed, fired := p.engine.Transform(raw)
	st.grp = expGroup{seq: raw[0].Seq, n: len(expected)}
	if fired != nil {
		if p.m.rec.Enabled() {
			carryReqIDs(raw[:consumed], expected)
		}
		p.m.Stats.Rewritten++
		p.m.rec.Inc(obs.CRuleHits)
		// Every hit is counted; only a rule's first in this process is a
		// milestone, so steady-state rewriting cannot flood the lifecycle.
		if rec := p.m.rec; rec.Enabled() && !p.rulesHit[fired] {
			if p.rulesHit == nil {
				p.rulesHit = make(map[*dsl.Rule]bool)
			}
			p.rulesHit[fired] = true
			rec.Emitf(obs.KindRuleHit, p.name, "rule %q rewrote %d event(s) into %d for tid %d",
				fired.Name, consumed, len(expected), tid)
		}
		for i := range expected {
			expected[i].Seq = st.grp.seq
		}
		// What the rule forwarded has moved to the emitted events; what it
		// read, dropped or copied no application will see, and goes back
		// to the ring.
		for i := 0; i < consumed; i++ {
			if i > 0 {
				st.more = append(st.more, raw[i].Seq)
			}
			p.m.ring.Recycle(&raw[i])
		}
		st.q.replace(consumed, expected)
	}
}

// discardTail drops everything still queued for validation and then
// consumes (and discards) ring entries up to the promotion event. Only
// meaningful during a crash promotion: the entries past the crash point
// are garbage, but this proc must still reach the promotion event to
// take over. (The demoted process cannot misread them: its cursor opens
// past the promotion event.) Respects the one-puller discipline, so it
// composes with sibling follower threads blocked in fillExpected.
func (p *Proc) discardTail(t *sim.Task, st *tidStream) {
	for !p.promoteSeen {
		if p.role != RoleFollower {
			return // a sibling completed the switch already
		}
		if p.pulling {
			t.Block(&st.wait)
			continue
		}
		// Unlike fillExpected, the drain here is unbounded: everything
		// pending is garbage to be discarded, so taking it all in one
		// call removes the same entries at the same virtual instant a
		// one-at-a-time loop would (consecutive non-blocking pulls never
		// yield between entries).
		p.pulling = true
		p.drain = p.cursor.DrainUpTo(t, p.drain[:0], 0)
		p.pulling = false
		if len(p.drain) == 0 {
			// Buffer closed underneath us: rollback/teardown won the race.
			p.wakeAllTIDs()
			p.parkForever(t)
		}
		for i := range p.drain {
			if p.drain[i].Kind == ringbuf.KindPromote {
				p.promoteSeen = true
			}
			// Raw syscall events past the crash point are dropped unreplayed.
			p.m.ring.Recycle(&p.drain[i].Event)
		}
	}
	p.dropQueued()
	p.reqDrainAt = make(map[uint64]time.Duration)
	p.wakeAllTIDs()
}

// reqOpen tracks an in-flight tagged client request on one logical
// thread of the serving leader (recorder attached only). Request ids
// are never zero, so the zero value means no request is open.
type reqOpen struct {
	id uint64
	at time.Duration
}

func reqSpanName(id uint64) string { return fmt.Sprintf("req-%d", id) }

// carryReqIDs copies request tags from the consumed raw output events
// onto the transformed expected output events, in order. Rewrite rules
// rebuild events from scratch, which drops the observability-only
// ReqID field; pairing the Nth tagged output in with the Nth untagged
// output out keeps per-request attribution intact across rewrites.
func carryReqIDs(raw, expected []sysabi.Event) {
	j := 0
	for i := range raw {
		if !raw[i].Call.HasOutput() || raw[i].Call.ReqID == 0 {
			continue
		}
		for j < len(expected) && !(expected[j].Call.HasOutput() && expected[j].Call.ReqID == 0) {
			j++
		}
		if j == len(expected) {
			return
		}
		expected[j].Call.ReqID = raw[i].Call.ReqID
		j++
	}
}

// trackRequest attributes per-request latency. Callers gate on
// rec.Enabled; the async span additionally needs span mode. A tagged
// inbound read opens the request on the reading thread and begins its
// async span (the request id is the span id); the thread's next
// response write closes the leader-service component. In leader mode the *recorded* response event is stamped
// with the request id — the live call is never modified — so the
// follower's validation path can later observe ring wait and
// validation lag and close the span. In single-leader mode (ev == nil)
// nothing validates, so the span ends at the write.
func (p *Proc) trackRequest(t *sim.Task, call sysabi.Call, res sysabi.Result, ev *sysabi.Event) {
	rec := p.m.rec
	if res.ReqID != 0 && call.IsInput() {
		p.stream(call.TID).req = reqOpen{id: res.ReqID, at: t.Now()}
		rec.BeginAsyncID("request", reqSpanName(res.ReqID), "", res.ReqID)
		return
	}
	if !call.HasOutput() {
		return
	}
	st := p.stream(call.TID)
	open := st.req
	if open.id == 0 {
		return
	}
	st.req = reqOpen{}
	rec.Inc(obs.CReqTracked)
	rec.Observe(obs.HReqService, t.Now()-open.at)
	if ev != nil {
		ev.Call.ReqID = open.id
	} else {
		rec.EndAsync("request", reqSpanName(open.id), open.id)
	}
}

// compare checks a follower call against the expected (rewritten) event.
// The comparison contract mirrors Varan's: identical op; identical target
// object; byte-identical output payloads. Input calls need not match on
// incidental parameters like requested read size.
func compare(exp sysabi.Event, got sysabi.Call) (string, bool) {
	e := exp.Call
	if e.Op != got.Op {
		return fmt.Sprintf("syscall mismatch: %v vs %v", e.Op, got.Op), false
	}
	switch got.Op {
	case sysabi.OpWrite, sysabi.OpFWrite:
		if e.FD != got.FD {
			return fmt.Sprintf("fd mismatch: %d vs %d", e.FD, got.FD), false
		}
		if string(e.Buf) != string(got.Buf) {
			return fmt.Sprintf("output mismatch: %q vs %q", trim(e.Buf), trim(got.Buf)), false
		}
	case sysabi.OpRead, sysabi.OpFRead, sysabi.OpAccept, sysabi.OpClose, sysabi.OpEpollWait:
		if e.FD != got.FD {
			return fmt.Sprintf("fd mismatch: %d vs %d", e.FD, got.FD), false
		}
	case sysabi.OpEpollCtl:
		if e.FD != got.FD || e.Args != got.Args {
			return "epoll_ctl args mismatch", false
		}
	case sysabi.OpSocket, sysabi.OpConnect:
		if e.Args[0] != got.Args[0] {
			return fmt.Sprintf("port mismatch: %d vs %d", e.Args[0], got.Args[0]), false
		}
	case sysabi.OpOpen:
		if e.Path != got.Path || e.Args[0] != got.Args[0] {
			return fmt.Sprintf("open mismatch: %q vs %q", e.Path, got.Path), false
		}
	case sysabi.OpStat, sysabi.OpUnlink, sysabi.OpListDir:
		if e.Path != got.Path {
			return fmt.Sprintf("path mismatch: %q vs %q", e.Path, got.Path), false
		}
	}
	return "", true
}

func trim(b []byte) string {
	if len(b) > 40 {
		return string(b[:40]) + "..."
	}
	return string(b)
}
