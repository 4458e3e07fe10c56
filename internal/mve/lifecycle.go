package mve

import (
	"slices"

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
	m.rec.Emit(obs.KindRole, name, "started as single leader")
	p.setRoleSpan("single-leader")
	return p
}

// AttachVariant adds a validating consumer. The first one in switches
// the leader from single-leader interception to recording, on a freshly
// reset ring; each consumer gets a private cursor positioned at the
// stream's current end and its own liveness watchdog. It inherits no
// kernel state: its application forked from the leader's and shares the
// virtual OS's fd table. rules may be nil for identity validation
// (same-version replicas).
func (m *Monitor) AttachVariant(name string, rules *dsl.RuleSet) *Proc {
	if m.leader == nil {
		panic("mve: attach without a leader")
	}
	first := len(m.variants) == 0
	if first {
		m.ring.Reset()
		m.leader.role = RoleLeader
	}
	p := newProc(m, name, RoleFollower)
	p.engine = dsl.NewEngine(rules)
	p.follow()
	m.variants = append(m.variants, p)
	m.rec.Emitf(obs.KindRole, name, "attached as follower of %s (%d attached, buffer %d entries)", m.leader.name, len(m.variants), m.ring.Cap())
	if first {
		m.leader.setRoleSpan("leader")
	}
	p.setRoleSpan("follower")
	m.startWatchdog(p)
	return p
}

// AttachCandidate attaches the one consumer on the other version — the
// paper's updated follower, a fleet's canary. It may absorb up to budget
// divergences (adopting the leader's recorded result each time) before
// one becomes fatal, its failures always render a verdict about the
// update instead of entering the quorum, and Promote hands it the lead.
func (m *Monitor) AttachCandidate(name string, rules *dsl.RuleSet, budget int) *Proc {
	if m.candidate != nil {
		panic("mve: candidate already attached")
	}
	p := m.AttachVariant(name, rules)
	p.budget = budget
	p.canary = len(m.variants) > 1
	m.candidate = p
	return p
}

// AttachFollower is AttachCandidate with no budget, kept for the frozen
// benchmark adapter; drop at benchmark revision 2.
func (m *Monitor) AttachFollower(name string, rules *dsl.RuleSet) *Proc {
	return m.AttachCandidate(name, rules, 0)
}

// follow opens p's cursor at the stream's current end; p validates from
// the next recorded event on.
func (p *Proc) follow() {
	p.cursor = p.m.ring.OpenCursor(p.name)
	p.globalNext = p.m.ring.NextSeq()
}

// Candidate returns the attached candidate, or nil.
func (m *Monitor) Candidate() *Proc { return m.candidate }

// Variants returns the attached consumers in attach order (a copy).
func (m *Monitor) Variants() []*Proc {
	return append([]*Proc(nil), m.variants...)
}

// VariantByName returns the attached consumer with the given proc name,
// or nil.
func (m *Monitor) VariantByName(name string) *Proc {
	for _, v := range m.variants {
		if v.name == name {
			return v
		}
	}
	return nil
}

// MultiBuffer always returns nil: Buffer() is the monitor's one ring.
// The stub remains only for the frozen benchmark adapter, which adds
// MultiBuffer()'s counters to Buffer()'s — returning the ring from both
// would double them. Drop at benchmark revision 2.
func (m *Monitor) MultiBuffer() *ringbuf.MultiBuffer { return nil }

// laggiest returns the consumer with the largest cursor lag (ties to the
// earliest-attached), or nil with none attached.
func (m *Monitor) laggiest() *Proc {
	var worst *Proc
	for _, v := range m.variants {
		if worst == nil || v.cursor.Lag() > worst.cursor.Lag() {
			worst = v
		}
	}
	return worst
}

// EjectVariant detaches a consumer: it leaves the set, its role span
// ends, and its cursor is closed — releasing its retention, so a leader
// parked behind its backlog resumes immediately. Its tasks observe the
// closed cursor and park; killing them (and respawning a replacement) is
// the controller's job. The last consumer out closes the ring instead,
// tail and all, and the leader reverts to single-leader interception. A
// candidate ejected mid-promotion leaves the old leader leading, demoted
// or retired as it was — which is how an update that fails before taking
// over leaves the old version in charge. Reports false if p was not
// attached.
func (m *Monitor) EjectVariant(p *Proc, reason string) bool {
	candidate := m.candidate == p
	if !m.leave(p) {
		return false
	}
	m.rec.Emitf(obs.KindRole, p.name, "ejected (%s); %d remain (%d events dropped by discard policy)", reason, len(m.variants), m.ring.Dropped)
	p.endRoleSpan()
	l := m.leader
	switch {
	case len(m.variants) == 0:
		m.ring.Close()
		l.role = RoleSingleLeader
		l.setRoleSpan("single-leader")
	case candidate && l.role != RoleLeader:
		// Mid-promotion, with others still validating: the old leader
		// records for them again (they skip the promotion entry).
		p.cursor.Close()
		if l.role == RoleFollower {
			l.cursor.Close()
		}
		l.role = RoleLeader
		l.setRoleSpan("leader")
	default:
		p.cursor.Close()
		return true
	}
	l.promoteSeen = false
	m.promoWait.WakeAll(m.sched)
	return true
}

// leave takes p out of the consumer set (and the candidacy), reporting
// whether it was in it.
func (m *Monitor) leave(p *Proc) bool {
	i := slices.Index(m.variants, p)
	if i < 0 {
		return false
	}
	m.variants = slices.Delete(m.variants, i, i+1)
	if m.candidate == p {
		m.candidate = nil
	}
	return true
}

// DropFollower ejects the candidate, if any, kept for the frozen
// benchmark adapter; drop at benchmark revision 2.
func (m *Monitor) DropFollower() { m.EjectVariant(m.candidate, "dropped") }

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
			if stalled := t.Now() - lastAt; stalled >= deadline {
				m.raiseStall(Stall{Proc: f.name, Reason: "no-progress", Stalled: stalled, Pending: f.cursor.Len()})
				return
			}
		}
	})
}

// raiseStall records and dispatches a follower stall.
func (m *Monitor) raiseStall(st Stall) {
	m.Stats.Stalls++
	m.rec.Inc(obs.CMVEStalls)
	m.rec.Emit(obs.KindStall, st.Proc, st.String())
	if m.OnStall != nil {
		m.OnStall(st)
	}
}

// MarkLeaderCrashed flags the pending promotion as crash-driven: the
// dead leader's recorded stream may end mid-request, so the candidate
// replays the matching prefix for state catch-up and treats the first
// mismatch as the truncation point instead of a divergence (§3.2,
// "handling old-version errors"). Call synchronously from the crash
// handler, before scheduling Promote, so the candidate cannot observe
// the truncated tail first.
func (m *Monitor) MarkLeaderCrashed() {
	if m.candidate != nil {
		m.candidate.crashPromote = true
	}
}

// PromotePolicy is what a promotion makes of the old leader.
type PromotePolicy int

// Promotion policies.
const (
	// PromoteDemote turns the old leader into a follower of the new one:
	// it validates in reverse, as the new candidate, until ejected.
	PromoteDemote PromotePolicy = iota
	// PromoteRetire parks the old leader until it is reaped: the
	// candidate was validated before the promotion, not after it.
	PromoteRetire
)

// Promote hands the lead to the candidate (§3.2 t4): it appends the
// promotion entry on the leader's behalf — at the leader's full
// quiescence, or for a leader that crashed — and the candidate takes
// over when it has drained the stream up to it. A demoted leader opens
// its cursor only after the entry, so it starts validating at the new
// leader's first recorded event and can never read the tail meant for
// the process taking over. Consumers that should not validate the next
// leader's stream are the caller's to eject first. Must run from a sim
// task; reports false without a healthy candidate.
func (m *Monitor) Promote(t *sim.Task, policy PromotePolicy) bool {
	if m.candidate == nil || m.candidate.failed {
		return false
	}
	old := m.leader
	old.role = RoleFollower
	if policy == PromoteRetire {
		old.role = RoleRetired
	}
	old.setRoleSpan(old.role.String())
	m.ring.Put(t, ringbuf.Entry{Kind: ringbuf.KindPromote})
	if policy == PromoteDemote {
		old.follow()
	}
	return true
}

// becomeLeader completes a promotion from inside the candidate's own
// validation path: it has drained its cursor up to the promotion entry,
// so it leaves the consumer set and serves natively — recording, if
// anyone is left to validate it. A demoted old leader is: it joins the
// set as the new candidate.
func (p *Proc) becomeLeader() {
	m := p.m
	m.rec.Inc(obs.CMVEPromotions)
	m.rec.Emit(obs.KindRole, p.name, "promoted to leader")
	old := m.leader
	m.leader = p
	m.leave(p)
	// Fully drained; from here the remaining cursors alone decide
	// retention.
	p.cursor.Close()
	p.promoteSeen, p.crashPromote, p.failed = false, false, false
	demoted := old.role == RoleFollower
	if demoted {
		m.variants = append(m.variants, old)
		m.candidate = old
	} else {
		old.endRoleSpan()
	}
	if len(m.variants) > 0 {
		p.role = RoleLeader
		p.setRoleSpan("leader")
	} else {
		p.role = RoleSingleLeader
		p.setRoleSpan("single-leader")
		m.ring.Close()
	}
	p.wakeAllTIDs()
	m.Stats.Promotions++
	if demoted {
		// The demoted process validates the new leader's stream with no
		// rewrite rules unless the controller installed a reverse set, and
		// gets its own liveness watchdog (the previous one retires when it
		// observes the role swap).
		if old.engine == nil {
			old.engine = dsl.NewEngine(nil)
		}
		m.promoWait.WakeAll(m.sched)
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

// endRoleSpan closes p's open role epoch (e.g. the consumer was
// ejected).
func (p *Proc) endRoleSpan() {
	rec := p.m.rec
	if !rec.SpansEnabled() || p.roleSpanID == 0 {
		return
	}
	rec.EndAsync(p.name, p.roleSpanName, p.roleSpanID)
	p.roleSpanID = 0
}

// SetReverseRules installs the updated-leader-stage rule set on the
// leader about to be demoted (§3.3.2). Call before Promote.
func (m *Monitor) SetReverseRules(rules *dsl.RuleSet) {
	if m.leader != nil {
		m.leader.engine = dsl.NewEngine(rules)
	}
}
