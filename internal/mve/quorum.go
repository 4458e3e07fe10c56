// Failure handling follows the MVEE literature (Volckaert et al., dMVX):
// when a consumer diverges, crashes or stalls, the monitor renders a
// quorum Verdict over the attached set. The candidate bypasses the
// quorum: a different version disagreeing with the leader is evidence
// about the update, not about the leader, so its verdict always concerns
// the update alone — rolled back before promotion, committed after it;
// the controller knows which. Among the same-version replicas a minority
// failure ejects just that one — its cursor is closed, which releases
// its retention immediately, so a leader parked behind the dead
// consumer's backlog resumes without client traffic noticing — and a
// majority failure indicts the leader's own output.
package mve

import "fmt"

// VerdictAction is the quorum's decision about a failed consumer.
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
	// VerdictRollbackCandidate gives up on the candidate alone; consumers on
	// the leader's version keep validating.
	VerdictRollbackCandidate
)

// String names the action.
func (a VerdictAction) String() string {
	switch a {
	case VerdictEject:
		return "eject"
	case VerdictAbort:
		return "abort"
	case VerdictRollbackCandidate:
		return "rollback-candidate"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Verdict is the quorum's judgement of one consumer failure.
type Verdict struct {
	Proc   string // the failed consumer
	Cause  string // "divergence", "crash" or "stall"
	Failed int    // failed consumers at decision time, this one included
	Total  int    // attached consumers at decision time
	Action VerdictAction
	// Div carries the triggering divergence for divergence verdicts.
	Div *Divergence
}

// String formats the verdict for logs.
func (v Verdict) String() string {
	return fmt.Sprintf("verdict for %s (%s): %s [%d/%d failed]", v.Proc, v.Cause, v.Action, v.Failed, v.Total)
}

// failVariant marks p failed and renders the quorum verdict: the
// candidate's failure concerns the update alone; a minority failure
// ejects; a majority failure aborts the fleet.
func (m *Monitor) failVariant(p *Proc, cause string, d *Divergence) Verdict {
	p.failed = true
	failed := 0
	for _, v := range m.variants {
		if v.failed {
			failed++
		}
	}
	total := len(m.variants)
	v := Verdict{Proc: p.name, Cause: cause, Failed: failed, Total: total, Div: d}
	switch {
	case p == m.candidate:
		v.Action = VerdictRollbackCandidate
	case failed*2 > total:
		v.Action = VerdictAbort
	default:
		v.Action = VerdictEject
	}
	return v
}

// FailVariant marks an attached consumer failed for an externally
// detected cause (the controller's crash handler, a stall mapped to a
// consumer) and returns the quorum verdict. The caller owns the
// consequences; OnVerdict is not invoked.
func (m *Monitor) FailVariant(p *Proc, cause string) Verdict {
	return m.failVariant(p, cause, nil)
}

// Failed reports whether this consumer was marked failed.
func (p *Proc) Failed() bool { return p.failed }

// VariantDivergences returns how many divergences this consumer raised
// (for a candidate, including those absorbed by its budget). The canary
// gate reads this at the end of the observation window.
func (p *Proc) VariantDivergences() int { return p.divergeCount }

// VariantLag returns how many recorded entries this consumer has not yet
// consumed.
func (p *Proc) VariantLag() int { return p.cursor.Lag() }
