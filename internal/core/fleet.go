package core

import (
	"fmt"
	"time"

	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// CanaryGate parameterizes the staged-update observation window.
type CanaryGate struct {
	// Window is how long the canary validates before the promotion
	// decision. Must be > 0: a zero window would promote an unobserved
	// canary, defeating the staging entirely.
	Window time.Duration
	// MaxDivergences is the canary's divergence budget during the
	// window: it may disagree with the leader (adopting the leader's
	// result each time) up to this many times and still pass the gate.
	// Exceeding the budget mid-window is a divergence storm and rolls
	// the canary back immediately.
	MaxDivergences int
	// MaxLag, if > 0, fails the gate when the canary still has more
	// than this many recorded events unconsumed at window close — a
	// canary too slow to keep up would stall the fleet after promotion.
	MaxLag int
}

// FleetConfig configures a controller with the canary gate and K
// replicas. Every embedded Config field keeps its meaning: fleet updates
// take the duo's fork path, so they are requested, time out and are
// retried (RetryInterval, MaxRetries, RetryOnRollback) exactly like the
// duo's. DSU.OnAbort runs only while no replica is attached to miss it.
type FleetConfig struct {
	Config
	// Variants are the replica variant ids, K = len(Variants) >= 0 (the
	// gate needs no replicas). Each id names one validation slot: the
	// variant attached for it is respawned under the same id (with a new
	// incarnation) after an eject.
	Variants []string
	// Canary gates staged updates.
	Canary CanaryGate
}

// validate panics on fleet configurations that cannot mean what the
// caller intended, mirroring Config.validate's deploy-time strictness.
func (cfg FleetConfig) validate() {
	cfg.Config.validate()
	seen := make(map[string]bool, len(cfg.Variants))
	for i, id := range cfg.Variants {
		if id == "" {
			panic(fmt.Sprintf("core.FleetConfig: Variants[%d] is empty; every variant needs an id", i))
		}
		if seen[id] {
			panic(fmt.Sprintf("core.FleetConfig: duplicate variant id %q; ids name respawn slots and must be unique", id))
		}
		seen[id] = true
	}
	if cfg.Canary.Window <= 0 {
		panic(fmt.Sprintf("core.FleetConfig: Canary.Window = %v; must be > 0 (a zero window would promote an unobserved canary)", cfg.Canary.Window))
	}
	if cfg.Canary.MaxDivergences < 0 {
		panic(fmt.Sprintf("core.FleetConfig: Canary.MaxDivergences = %d; must be >= 0", cfg.Canary.MaxDivergences))
	}
	if cfg.Canary.MaxLag < 0 {
		panic(fmt.Sprintf("core.FleetConfig: Canary.MaxLag = %d; must be >= 0", cfg.Canary.MaxLag))
	}
}

// FleetController is the controller NewFleet builds. The alias remains
// for the frozen benchmark adapter; drop it at benchmark revision 2.
type FleetController = Controller

// FleetPhase, FleetSteady and Phase forward Stage to the frozen
// benchmark adapter, whose digested final state prints "steady"; drop
// them at benchmark revision 2.
type FleetPhase int

// FleetSteady is StageSingleLeader; drop at benchmark revision 2.
const FleetSteady = FleetPhase(StageSingleLeader)

// String names the phase: "steady" for FleetSteady, else the stage's
// name. Drop at benchmark revision 2.
func (p FleetPhase) String() string {
	if p == FleetSteady {
		return "steady"
	}
	return Stage(p).String()
}

// Phase returns Stage as a FleetPhase; drop at benchmark revision 2.
func (c *Controller) Phase() FleetPhase { return FleetPhase(c.stage) }

// NewFleet builds a controller with K = len(cfg.Variants) replicas and
// the timed canary gate on the kernel's scheduler.
func NewFleet(kernel *vos.Kernel, cfg FleetConfig) *Controller {
	cfg.validate()
	return newController(kernel, cfg)
}

// LiveVariants returns the proc names of the currently attached
// variants (replicas and canary), in attach order.
func (c *Controller) LiveVariants() []string {
	var out []string
	for _, p := range c.mon.Variants() {
		out = append(out, p.Name())
	}
	return out
}

// evaluateGate closes the observation window: promote on a clean gate,
// roll the canary back otherwise. A stale generation means the canary
// this timer was armed for is already gone (storm rollback, abort).
func (c *Controller) evaluateGate(gen int) {
	if gen != c.gateGen || c.stage != StageOutdatedLeader || c.candidate == nil {
		return
	}
	p := c.candidate.proc
	divs, lag := p.VariantDivergences(), p.VariantLag()
	if reason := c.gateFailure(divs, lag); reason != "" {
		c.Rollback("gate failed: " + reason)
		return
	}
	c.transition(StagePromoting, fmt.Sprintf("gate passed (%d/%d divergences, lag %d); promoting at next barrier",
		divs, c.cfg.Canary.MaxDivergences, lag))
	c.atBarrier("promote@"+c.candidate.name, func(t *sim.Task) {
		if c.stage != StagePromoting {
			return
		}
		canary := c.candidate.proc
		if canary.Failed() {
			c.Rollback("canary unhealthy at promotion barrier")
			return
		}
		// The replicas validated the old version: the canary alone consumes
		// the stream's tail, and K fresh ones respawn from it once it leads.
		for _, p := range c.mon.Variants() {
			if p != canary {
				c.detach(p, "superseded by canary promotion")
			}
		}
		c.mon.Promote(t, mve.PromoteRetire)
	})
}

// gateFailure checks the canary's window against the gate — the
// divergence budget, then the ring lag — strictly above each bound, with
// an unset lag bound skipped. It reads only the canary's own counts,
// never the recorder, so tracing cannot change the decision. Every
// tripped threshold is recorded; the first one's reason is returned, ""
// on a clean gate.
func (c *Controller) gateFailure(divs, lag int) string {
	g := c.cfg.Canary
	var first string
	trip := func(rule, reason string) {
		c.violate("canary-gate", rule, reason)
		if first == "" {
			first = reason
		}
	}
	if divs > g.MaxDivergences {
		trip("divergence-budget", fmt.Sprintf("%d divergences exceed budget %d", divs, g.MaxDivergences))
	}
	if g.MaxLag > 0 && lag > g.MaxLag {
		trip("ring-lag", fmt.Sprintf("lag %d exceeds %d", lag, g.MaxLag))
	}
	return first
}

// applyVerdict is the one consequence path of every consumer failure:
// the monitor's divergence verdicts, and the crash and stall verdicts
// the controller asks it for. What a failed candidate means depends on
// the stage (§3.2's pair of error rules): a failing updated version is
// dropped; a failing outdated one leaves the update nothing to validate
// against, so it commits. The two notes word those outcomes on the
// operator's timeline.
func (c *Controller) applyVerdict(v mve.Verdict, rollbackNote, commitNote string) {
	c.rec.Emit(obs.KindVerdict, v.Proc, v.String())
	switch v.Action {
	case mve.VerdictEject:
		c.ejectAndQueue(v)
	case mve.VerdictAbort:
		c.abortFleet(v)
	case mve.VerdictRollbackCandidate:
		if c.stage == StageUpdatedLeader {
			c.commit(commitNote)
		} else {
			c.Rollback(rollbackNote)
		}
	}
	if c.OnVerdict != nil {
		c.OnVerdict(v)
	}
}

// ejectAndQueue quarantines a minority variant and queues its slot for
// respawn at the leader's next quiescence barrier. The monitor-side
// ejection is deferred by one scheduling round: a failed variant stays
// counted against the quorum for the instant it failed in, so a second
// failure landing in the same event batch is judged 2-of-N (abort), not
// 1-of-(N-1) after a premature eject.
func (c *Controller) ejectAndQueue(v mve.Verdict) {
	fv := c.live[v.Proc]
	if fv == nil {
		return
	}
	c.rec.Inc(obs.CFleetEjects)
	c.transition(c.stage, fmt.Sprintf("variant %s ejected (%s); respawn queued", fv.name, v.Cause))
	c.sched.Go("eject:"+fv.name, func(t *sim.Task) {
		if c.live[fv.name] != fv {
			return // an abort, promotion or Shutdown already swept it up
		}
		c.detach(fv.proc, v.Cause)
		fv.rt.KillAll()
		delete(c.live, fv.name)
		c.respawnQ = append(c.respawnQ, fv.id)
		c.armRespawn()
	})
}

// abortFleet tears the fleet down after a majority verdict: the leader
// keeps serving solo; nothing is respawned, and no update is taken
// again.
func (c *Controller) abortFleet(v mve.Verdict) {
	killAll(c.live)
	for _, p := range c.mon.Variants() {
		c.detach(p, "fleet abort")
	}
	c.live = make(map[string]*variant)
	c.candidate = nil
	c.pending = nil
	c.respawnQ = nil
	c.gateGen++
	c.rec.Inc(obs.CFleetAborts)
	c.endUpdateSpan()
	c.transition(StageAborted, "fleet aborted: "+v.String())
	c.flushTrain("fleet abort")
}

// armRespawn schedules the queued slots to be refilled at the leader's
// next quiescence. One armed barrier drains the whole queue.
func (c *Controller) armRespawn() {
	if c.rearming || len(c.respawnQ) == 0 {
		return
	}
	c.rearming = true
	c.atBarrier("fleet-respawn", func(t *sim.Task) { c.respawnQueued() })
}

// respawnQueued runs at a leader barrier: every queued slot gets a
// fresh fork of the leader. The fork resumes mid-service (its state,
// descriptors and tables came with the fork), and its cursor opens at
// the quiescent stream end, so validation aligns from the first event.
func (c *Controller) respawnQueued() {
	c.rearming = false
	q := c.respawnQ
	c.respawnQ = nil
	if c.stage == StageAborted {
		return
	}
	for _, id := range q {
		fv := c.attach(id, c.leaderRT.App().Version(), nil, false)
		fv.rt = c.newRuntime("variant", fv.proc, c.leaderRT.App().Fork(), false)
		fv.rt.StartForked(fv.rt.App())
		c.rec.Inc(obs.CFleetRespawns)
		c.transition(c.stage, "respawned variant "+fv.name)
	}
}
