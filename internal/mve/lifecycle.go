package mve

import (
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
)

// StartSingleLeader registers the initial process in single-leader mode
// and returns its dispatcher.
func (m *Monitor) StartSingleLeader(name string) *Proc {
	p := newProc(m, name, RoleSingleLeader)
	m.leader = p
	m.logf("%s started as single leader", name)
	m.rec.Emit(obs.KindRole, name, "started as single leader")
	p.setRoleSpan("single-leader")
	return p
}

// AttachFollower switches to leader/follower mode: the current leader
// starts recording and the returned Proc validates against the rules in
// rules (which may be nil for identity). The follower inherits a clone of
// the leader's tracked kernel state, as a forked process would.
func (m *Monitor) AttachFollower(name string, rules *dsl.RuleSet) *Proc {
	if m.leader == nil {
		panic("mve: AttachFollower without a leader")
	}
	if m.follower != nil {
		panic("mve: follower already attached")
	}
	if len(m.variants) > 0 {
		panic("mve: duo follower and fleet variants are exclusive")
	}
	m.ring.Reset()
	f := m.attach(name, rules)
	m.follower = f
	m.leader.role = RoleLeader
	m.logf("%s attached as follower of %s (buffer %d entries)", name, m.leader.name, m.ring.Cap())
	m.rec.Emitf(obs.KindRole, name, "attached as follower of %s (buffer %d entries)", m.leader.name, m.ring.Cap())
	m.leader.setRoleSpan("leader")
	f.setRoleSpan("follower")
	m.startWatchdog(f)
	return f
}

// attach builds a consumer proc for AttachFollower and AttachVariant: a
// cursor at the stream's current end, validation starting at the next
// recorded event, and a clone of the leader's tracked kernel state, as a
// forked process would have.
func (m *Monitor) attach(name string, rules *dsl.RuleSet) *Proc {
	p := newProc(m, name, RoleFollower)
	p.engine = dsl.NewEngine(rules)
	p.kstate = m.leader.kstate.Clone()
	p.follow()
	return p
}

// follow opens p's cursor at the stream's current end; p validates from
// the next recorded event on.
func (p *Proc) follow() {
	p.cursor = p.m.ring.OpenCursor(p.name)
	p.globalNext = p.m.ring.NextSeq()
}

// startWatchdog arms a liveness watchdog over consumer f: if f consumes
// no events for WatchdogDeadline of virtual time while entries are
// pending, the watchdog raises a Stall and exits. The watchdog also
// exits silently once f stops being a supervised consumer (promotion,
// rollback, commit, eject), so each pairing carries its own watchdog.
//
// The watchdog is strictly per-variant: it samples f's own progress
// counter against f's own stream, and the progress counter ticks on
// every drain — full or partial — so any batch f pulls resets its
// timer. A sibling variant draining the shared recorded stream at a
// different rate contributes nothing to f's progress and can neither
// mask a stalled f nor be masked by a busy f.
func (m *Monitor) startWatchdog(f *Proc) {
	if m.WatchdogDeadline <= 0 {
		return
	}
	deadline := m.WatchdogDeadline
	poll := deadline / 8
	if poll <= 0 {
		poll = deadline
	}
	m.sched.Go("mve/watchdog:"+f.name, func(t *sim.Task) {
		last := f.progress
		lastAt := t.Now()
		for {
			t.Sleep(poll)
			if f.role != RoleFollower || f.cursor.Closed() {
				return
			}
			if f.progress != last {
				last, lastAt = f.progress, t.Now()
				continue
			}
			if f.cursor.Empty() && f.queuesEmpty() {
				// Nothing to consume: an idle follower is not stalled.
				lastAt = t.Now()
				continue
			}
			if stalled := t.Now() - lastAt; m.judgeStall(f.name, stalled, f.cursor.Len(), deadline) {
				m.raiseStall(Stall{Proc: f.name, Reason: "no-progress", Stalled: stalled, Pending: f.cursor.Len()})
				return
			}
		}
	})
}

// judgeStall decides whether a follower's no-progress age warrants a
// stall: the installed StallJudge when present, the deadline compare
// otherwise.
func (m *Monitor) judgeStall(proc string, stalledFor time.Duration, pending int, deadline time.Duration) bool {
	if m.StallJudge != nil {
		return m.StallJudge(proc, stalledFor, pending)
	}
	return stalledFor >= deadline
}

// raiseStall records and dispatches a follower stall.
func (m *Monitor) raiseStall(st Stall) {
	m.Stats.Stalls++
	m.logf("%s", st)
	m.rec.Inc(obs.CMVEStalls)
	m.rec.Emit(obs.KindStall, st.Proc, st.String())
	if m.OnStall != nil {
		m.OnStall(st)
	}
}

// RequestPromote asks the leader to demote itself at its next syscall:
// it appends a promotion event and becomes the follower; the old follower
// becomes leader when it consumes that event (§3.2, t4-t5).
func (m *Monitor) RequestPromote() {
	if m.follower == nil {
		return
	}
	m.promoteRequested = true
	m.logf("promotion requested")
}

// MarkLeaderCrashed flags the pending promotion as crash-driven: the
// dead leader's recorded stream may end mid-request, so the follower
// replays the matching prefix for state catch-up and treats the first
// mismatch as the truncation point instead of a divergence (§3.2,
// "handling old-version errors"). Call synchronously from the crash
// handler, before scheduling PromoteNow, so the follower cannot observe
// the truncated tail first.
func (m *Monitor) MarkLeaderCrashed() {
	if m.follower != nil {
		m.follower.crashPromote = true
	}
}

// PromoteNow appends the promotion event on behalf of a leader that can
// no longer do it itself (e.g. it crashed). Must run from a sim task.
func (m *Monitor) PromoteNow(t *sim.Task) {
	if m.follower == nil {
		return
	}
	m.promoteRequested = false
	m.leader.setRoleSpan("follower")
	m.leader.demote(t)
	m.logf("promotion event injected")
}

// demote turns the leader into a follower (§3.2 t4): it appends the
// promotion event and then opens its cursor, so the demoted process
// starts validating at the new leader's first recorded event and can
// never read the pre-promotion tail meant for the process taking over.
func (p *Proc) demote(t *sim.Task) {
	p.role = RoleFollower
	p.m.ring.Put(t, ringbuf.Entry{Kind: ringbuf.KindPromote})
	p.follow()
}

// DropFollower terminates leader/follower mode, discarding the follower.
// The caller is responsible for killing the follower's tasks. The leader
// reverts to single-leader interception. Used for rollback (§3.2) and for
// dropping the outdated follower at t6.
func (m *Monitor) DropFollower() {
	if m.follower == nil {
		return
	}
	m.logf("follower %s dropped", m.follower.name)
	m.rec.Emitf(obs.KindRole, m.follower.name, "follower dropped (%d events dropped by discard policy)", m.ring.Dropped)
	m.follower.endRoleSpan()
	m.follower = nil
	m.promoteRequested = false
	m.ring.Close()
	if m.leader != nil {
		m.leader.role = RoleSingleLeader
		m.leader.promoteSeen = false
		m.leader.setRoleSpan("single-leader")
	}
	// A leader parked mid-promotion resumes as single leader.
	m.promoWait.WakeAll(m.sched)
}

func (p *Proc) becomeLeader() {
	if p.variant {
		p.becomeFleetLeader()
		return
	}
	m := p.m
	m.logf("%s promoted to leader", p.name)
	m.rec.Inc(obs.CMVEPromotions)
	m.rec.Emit(obs.KindRole, p.name, "promoted to leader")
	p.setRoleSpan("leader")
	old := m.leader
	m.leader = p
	m.follower = old
	p.role = RoleLeader
	// Fully drained; from here the demoted process's cursor alone
	// decides retention.
	p.cursor.Close()
	p.promoteSeen = false
	p.crashPromote = false
	p.wakeAllTIDs()
	// The demoted process validates the new leader's stream with no
	// rewrite rules unless the controller installed a reverse set.
	if old != nil && old.engine == nil {
		old.engine = dsl.NewEngine(nil)
	}
	m.promoWait.WakeAll(m.sched)
	m.Stats.Promotions++
	// The demoted process now consumes the stream; it gets its own
	// liveness watchdog (the previous one retires when it observes the
	// role swap).
	if old != nil {
		m.startWatchdog(old)
	}
	if m.OnPromoted != nil {
		m.OnPromoted(p)
	}
}

// setRoleSpan rolls p's role-epoch async span over to a new role (span
// mode only): the open epoch ends and the next begins, so each proc's
// track shows its single-leader / leader / follower eras end to end.
func (p *Proc) setRoleSpan(role string) {
	rec := p.m.rec
	if !rec.SpansEnabled() {
		return
	}
	if p.roleSpanID != 0 {
		rec.EndAsync(p.name, p.roleSpanName, p.roleSpanID)
	}
	p.roleSpanName = "role:" + role
	p.roleSpanID = rec.BeginAsync(p.name, p.roleSpanName, "")
}

// endRoleSpan closes p's open role epoch (e.g. the follower was
// dropped).
func (p *Proc) endRoleSpan() {
	rec := p.m.rec
	if !rec.SpansEnabled() || p.roleSpanID == 0 {
		return
	}
	rec.EndAsync(p.name, p.roleSpanName, p.roleSpanID)
	p.roleSpanID = 0
}

// SetReverseRules installs the updated-leader-stage rule set on the
// demoted follower (§3.3.2). Call before RequestPromote.
func (m *Monitor) SetReverseRules(rules *dsl.RuleSet) {
	if m.leader != nil {
		m.leader.engine = dsl.NewEngine(rules)
	}
}
