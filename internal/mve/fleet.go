// Fleet mode: N-variant execution on top of the duo monitor.
//
// Instead of the paper's single validating follower, the monitor can
// supervise a variant set of size K >= 1. The leader records each
// syscall once into the ring (internal/ringbuf.MultiBuffer); every
// variant validates through its own cursor, exactly as the duo follower
// does, so the entire follower machinery — TID demux, rewrite engine,
// global-order retirement, per-consumer watchdog — is shared.
//
// Failure handling follows the MVEE literature (Volckaert et al., dMVX)
// rather than the duo's binary keep-or-rollback: when a variant
// diverges, crashes or stalls, the monitor renders a quorum Verdict.
// A minority failure ejects just that variant — its cursor is closed,
// which releases its retention immediately, so a leader parked behind
// the dead variant's backlog resumes without client traffic noticing —
// and the controller respawns a replacement at the next leader
// quiescence. A majority failure indicts the leader's own output and
// aborts the fleet. A canary (the one variant running the updated
// version) bypasses quorum entirely: a different version disagreeing
// with the leader is evidence about the update, not about the leader,
// so its failure verdict is always a canary rollback.
package mve

import (
	"fmt"

	"mvedsua/internal/dsl"
	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
)

// VerdictAction is the quorum's decision about a failed variant.
type VerdictAction int

// Verdict actions.
const (
	// VerdictEject quarantines the minority variant: close its cursor,
	// reap its tasks, respawn a replacement. The update (if any) and
	// client traffic continue untouched.
	VerdictEject VerdictAction = iota
	// VerdictAbort tears the whole fleet down: a majority of variants
	// disagree with the leader, so the recorded stream itself is suspect
	// and per-variant quarantine would eject the wrong side.
	VerdictAbort
	// VerdictRollbackCanary rolls back just the updated canary variant;
	// the old-version fleet keeps validating.
	VerdictRollbackCanary
)

// String names the action.
func (a VerdictAction) String() string {
	switch a {
	case VerdictEject:
		return "eject"
	case VerdictAbort:
		return "abort"
	case VerdictRollbackCanary:
		return "rollback-canary"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Verdict is the quorum's judgement of one variant failure.
type Verdict struct {
	Proc   string // the failed variant
	Cause  string // "divergence", "crash" or "stall"
	Failed int    // failed variants at decision time, this one included
	Live   int    // still-healthy attached variants
	Total  int    // attached variants at decision time
	Action VerdictAction
	// Div carries the triggering divergence for divergence verdicts.
	Div *Divergence
}

// String formats the verdict for logs.
func (v Verdict) String() string {
	return fmt.Sprintf("verdict for %s (%s): %s [%d/%d failed]", v.Proc, v.Cause, v.Action, v.Failed, v.Total)
}

// AttachVariant adds a validating variant to the fleet. The first
// attach switches the leader from single-leader interception to
// recording into the ring; each variant gets a private cursor
// positioned at the stream's current end, a clone of the leader's
// tracked kernel state (as a forked process would), and its own
// liveness watchdog. rules may be nil for identity validation
// (same-version replicas).
func (m *Monitor) AttachVariant(name string, rules *dsl.RuleSet) *Proc {
	if m.leader == nil {
		panic("mve: AttachVariant without a leader")
	}
	if m.follower != nil {
		panic("mve: duo follower and fleet variants are exclusive")
	}
	if m.ring.Closed() && len(m.variants) == 0 {
		m.ring.Reset() // reuse after an abort
	}
	v := m.attach(name, rules)
	v.variant = true
	m.variants = append(m.variants, v)
	if m.leader.role == RoleSingleLeader {
		m.leader.role = RoleLeader
		m.leader.setRoleSpan("leader")
	}
	m.logf("%s attached as variant %d of %d (leader %s)", name, len(m.variants), len(m.variants), m.leader.name)
	m.rec.Emitf(obs.KindRole, name, "attached as fleet variant (%d attached, leader %s)", len(m.variants), m.leader.name)
	m.rec.SetGauge(obs.GFleetVariants, int64(len(m.variants)))
	v.setRoleSpan("follower")
	m.startWatchdog(v)
	return v
}

// MarkCanary designates an attached variant as the staged-update canary
// with the given divergence budget: the canary may absorb up to budget
// divergences (adopting the leader's recorded result each time) before
// one becomes fatal, and its failures always render a rollback verdict
// instead of entering the quorum.
func (m *Monitor) MarkCanary(p *Proc, budget int) {
	m.canary = p
	p.DivergenceBudget = budget
	m.logf("%s marked as canary (divergence budget %d)", p.name, budget)
	m.rec.Emitf(obs.KindRole, p.name, "marked as canary (divergence budget %d)", budget)
}

// Canary returns the current canary variant, or nil.
func (m *Monitor) Canary() *Proc { return m.canary }

// Variants returns the attached fleet variants (a copy).
func (m *Monitor) Variants() []*Proc {
	out := make([]*Proc, len(m.variants))
	copy(out, m.variants)
	return out
}

// VariantByName returns the attached variant with the given proc name,
// or nil.
func (m *Monitor) VariantByName(name string) *Proc {
	for _, v := range m.variants {
		if v.name == name {
			return v
		}
	}
	return nil
}

// MultiBuffer always returns nil: Buffer() is the monitor's one ring,
// in fleet mode too. The stub remains only for the frozen benchmark
// adapter, which adds MultiBuffer()'s counters to Buffer()'s — returning
// the ring from both would double them. Drop it at the next benchmark
// revision.
func (m *Monitor) MultiBuffer() *ringbuf.MultiBuffer { return nil }

// laggiest returns the consumer with the largest cursor lag — the duo
// follower, or among fleet variants the laggiest (ties to the
// earliest-attached) — or nil with no consumer attached.
func (m *Monitor) laggiest() *Proc {
	worst := m.follower
	for _, v := range m.variants {
		if worst == nil || v.cursor.Lag() > worst.cursor.Lag() {
			worst = v
		}
	}
	return worst
}

// failVariant marks p failed and renders the quorum verdict: canary
// failures roll back the canary; a minority failure ejects; a majority
// failure aborts the fleet.
func (m *Monitor) failVariant(p *Proc, cause string, d *Divergence) Verdict {
	p.failed = true
	failed := 0
	for _, v := range m.variants {
		if v.failed {
			failed++
		}
	}
	total := len(m.variants)
	v := Verdict{Proc: p.name, Cause: cause, Failed: failed, Live: total - failed, Total: total, Div: d}
	switch {
	case p == m.canary:
		v.Action = VerdictRollbackCanary
	case failed*2 > total:
		v.Action = VerdictAbort
	default:
		v.Action = VerdictEject
	}
	m.logf("%s", v)
	m.rec.Emit(obs.KindVerdict, p.name, v.String())
	return v
}

// FailVariant marks an attached variant failed for an externally
// detected cause (the controller's crash handler, a stall mapped to a
// variant) and returns the quorum verdict. The caller owns the
// consequences; OnVerdict is not invoked.
func (m *Monitor) FailVariant(p *Proc, cause string) Verdict {
	return m.failVariant(p, cause, nil)
}

// EjectVariant quarantines a variant: it leaves the fleet, its role
// span ends, and its cursor is closed — releasing its retention, so a
// leader parked behind the ejected variant's backlog resumes
// immediately. The variant's consumer tasks observe the closed cursor
// and park; killing them (and respawning a replacement) is the
// controller's job. Ejecting the canary clears the canary designation.
func (m *Monitor) EjectVariant(p *Proc, reason string) {
	for i, v := range m.variants {
		if v == p {
			m.variants = append(m.variants[:i], m.variants[i+1:]...)
			break
		}
	}
	if m.canary == p {
		m.canary = nil
	}
	p.endRoleSpan()
	p.cursor.Close()
	m.logf("variant %s ejected (%s); %d remain", p.name, reason, len(m.variants))
	m.rec.Inc(obs.CFleetEjects)
	m.rec.Emitf(obs.KindRole, p.name, "variant ejected (%s); %d remain", reason, len(m.variants))
	m.rec.SetGauge(obs.GFleetVariants, int64(len(m.variants)))
}

// AbortFleet tears the whole fleet down after a majority verdict (or an
// operator abort): every variant is ejected, the ring is closed, and the
// leader reverts to single-leader interception — it kept serving clients
// throughout, exactly like a duo rollback. The controller reaps the
// variants' tasks.
func (m *Monitor) AbortFleet(reason string) {
	for len(m.variants) > 0 {
		m.EjectVariant(m.variants[0], "fleet abort")
	}
	m.canary = nil
	m.ring.Close()
	if m.leader != nil && m.leader.role == RoleLeader {
		m.leader.role = RoleSingleLeader
		m.leader.promoteSeen = false
		m.leader.setRoleSpan("single-leader")
	}
	m.logf("fleet aborted: %s", reason)
	m.rec.Inc(obs.CFleetAborts)
	m.rec.Emit(obs.KindRole, "fleet", "fleet aborted: "+reason)
}

// PromoteFleet exposes the canary's version to clients. Must run at the
// leader's full quiescence (a DSU barrier), like the duo's PromoteNow:
// every non-canary variant is ejected — the canary alone consumes the
// stream tail — the leader retires, and the promotion control event is
// appended. When the canary drains up to it, it takes over natively
// (becomeFleetLeader); the controller then reaps the retired leader and
// respawns a fresh fleet from the new one. Reports false without a
// healthy canary.
func (m *Monitor) PromoteFleet(t *sim.Task) bool {
	c := m.canary
	if c == nil || c.failed {
		return false
	}
	for _, v := range m.Variants() {
		if v != c {
			m.EjectVariant(v, "superseded by canary promotion")
		}
	}
	if m.leader != nil {
		m.leader.role = RoleRetired
		m.leader.setRoleSpan("retired")
	}
	m.ring.Put(t, ringbuf.Entry{Kind: ringbuf.KindPromote})
	m.logf("canary promotion event injected for %s", c.name)
	m.rec.Emitf(obs.KindRole, c.name, "canary promotion event injected")
	return true
}

// becomeFleetLeader completes a canary promotion from inside the
// canary's own validation path: it has drained its cursor up to the
// promotion event, so it detaches from the fleet and serves natively.
// Unlike the duo, the old leader is not demoted into a reverse-
// validation stage — fleet promotion commits immediately; the retired
// leader parks until the controller reaps it.
func (p *Proc) becomeFleetLeader() {
	m := p.m
	m.logf("%s promoted to leader (canary gate passed)", p.name)
	m.rec.Inc(obs.CMVEPromotions)
	m.rec.Emit(obs.KindRole, p.name, "canary promoted to leader")
	old := m.leader
	if old != nil && old != p {
		old.endRoleSpan()
	}
	m.leader = p
	m.follower = nil
	m.variants = nil
	m.canary = nil
	p.variant = false
	p.role = RoleSingleLeader
	p.promoteSeen = false
	p.crashPromote = false
	p.failed = false
	p.setRoleSpan("single-leader")
	p.cursor.Close()
	// Clean slate for the fleet the controller respawns from this leader.
	m.ring.Reset()
	m.rec.SetGauge(obs.GFleetVariants, 0)
	p.wakeAllTIDs()
	m.promoWait.WakeAll(m.sched)
	m.Stats.Promotions++
	if m.OnPromoted != nil {
		m.OnPromoted(p)
	}
}

// VariantDivergences returns how many divergences this variant raised
// (for a canary, including those absorbed by the budget). The canary
// gate reads this at the end of the observation window.
func (p *Proc) VariantDivergences() int { return p.divergeCount }

// VariantLag returns how many recorded entries this variant has not yet
// consumed (0 for non-fleet procs).
func (p *Proc) VariantLag() int {
	if !p.variant {
		return 0
	}
	return p.cursor.Lag()
}

// Failed reports whether this fleet variant was marked failed.
func (p *Proc) Failed() bool { return p.failed }
