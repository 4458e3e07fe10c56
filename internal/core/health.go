package core

import (
	"fmt"
	"time"

	"mvedsua/internal/obs"
)

// The health engine turns the controller's scattered bespoke
// thresholds — the canary gate's divergence budget / ring lag /
// validate-lag p99 checks and the follower watchdog's no-progress
// deadline — into one declarative rule set evaluated against named
// signal samples, producing a single verdict stream. The legacy
// behavior is preserved exactly: the gate and the watchdog install
// rules with the same bounds, comparison directions and reason strings
// they used inline, so the golden artifacts do not move; what changes
// is that every threshold now lives in one vocabulary that windowed
// SLO scenarios (and the roadmap's cluster/shard controllers) can
// extend with rules of their own, like a success-rate floor evaluated
// on window close.

// HealthSignal names one measurable input to the health engine.
type HealthSignal string

// Signal vocabulary. Duration-valued signals carry nanoseconds;
// rate-valued signals carry a fraction in [0,1].
const (
	SignalDivergences    HealthSignal = "divergences"      // canary divergences observed in the window
	SignalRingLag        HealthSignal = "ring-lag"         // recorded entries the variant has not consumed
	SignalValidateLagP99 HealthSignal = "validate-lag-p99" // p99 of request.validate_lag, ns
	SignalSuccessRate    HealthSignal = "success-rate"     // windowed request success fraction
	SignalStalledFor     HealthSignal = "stalled-for"      // time since the follower last made progress, ns
)

// HealthOp is the comparison direction of a rule.
type HealthOp int

// Comparison directions. The asymmetry between OpAbove and OpAtLeast
// is load-bearing: the canary gate trips strictly above its budgets
// (divs > MaxDivergences) while the watchdog trips at its deadline
// (stalled >= deadline), and both legacy behaviors must survive the
// move into rules.
const (
	OpAbove   HealthOp = iota // violated when sample > bound
	OpAtLeast                 // violated when sample >= bound
	OpBelow                   // violated when sample < bound
)

// String names the comparison.
func (op HealthOp) String() string {
	switch op {
	case OpAbove:
		return ">"
	case OpAtLeast:
		return ">="
	case OpBelow:
		return "<"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// HealthRule is one declarative threshold.
type HealthRule struct {
	Name   string
	Signal HealthSignal
	Op     HealthOp
	Bound  float64
	// Format renders the violation reason from the offending sample;
	// rules migrated from inline checks use it to reproduce their
	// legacy reason strings verbatim. Nil falls back to a generic form.
	Format func(sample float64) string
}

func (r HealthRule) violated(sample float64) bool {
	switch r.Op {
	case OpAbove:
		return sample > r.Bound
	case OpAtLeast:
		return sample >= r.Bound
	case OpBelow:
		return sample < r.Bound
	}
	return false
}

func (r HealthRule) reason(sample float64) string {
	if r.Format != nil {
		return r.Format(sample)
	}
	return fmt.Sprintf("%s: %s %v %v", r.Name, r.Signal, r.Op, r.Bound)
}

// HealthSample is one evaluation's signal readings. Rules whose signal
// is absent are skipped — that is how conditional legacy checks (p99
// only when span tracing is on) stay conditional.
type HealthSample map[HealthSignal]float64

// HealthVerdict is one rule violation.
type HealthVerdict struct {
	At      time.Duration
	Subject string // what was judged: proc name, "canary-gate", a window label
	Rule    string
	Sample  float64
	Reason  string
}

// healthVerdictCap bounds the retained verdict log.
const healthVerdictCap = 1024

// HealthEngine evaluates a fixed rule set against samples, recording
// violations as obs verdict milestones (when emission is enabled) and
// in a bounded verdict log. Evaluation is pure virtual-clock work:
// deterministic, never advancing time, safe to run from watchdog polls
// and window-close callbacks.
type HealthEngine struct {
	scope    string
	rec      *obs.Recorder
	rules    []HealthRule
	emit     bool
	verdicts []HealthVerdict
	droppedV int64
}

// NewHealthEngine builds an engine over a rule set. Verdict emission
// into the obs trace is off by default so engines installed on the
// default pipelines leave the golden artifacts byte-identical.
func NewHealthEngine(scope string, rec *obs.Recorder, rules []HealthRule) *HealthEngine {
	return &HealthEngine{scope: scope, rec: rec, rules: rules}
}

// EmitVerdicts turns on verdict milestones (obs.KindVerdict, actor
// "health:<scope>") and the health.verdicts counter for every
// violation this engine records.
func (e *HealthEngine) EmitVerdicts(on bool) {
	if e == nil {
		return
	}
	e.emit = on
}

// Scope returns the engine's scope label.
func (e *HealthEngine) Scope() string {
	if e == nil {
		return ""
	}
	return e.scope
}

// Verdicts returns the retained violation log in evaluation order.
func (e *HealthEngine) Verdicts() []HealthVerdict {
	if e == nil {
		return nil
	}
	return append([]HealthVerdict(nil), e.verdicts...)
}

// Evaluate judges one sample against the rule set, in rule order, and
// returns the first violation (nil when healthy). Every violated rule
// is logged and, with emission on, recorded as a verdict milestone;
// returning the first keeps the legacy "first failing threshold wins"
// reason selection of the inline checks this engine replaced.
func (e *HealthEngine) Evaluate(subject string, sample HealthSample) *HealthVerdict {
	if e == nil {
		return nil
	}
	var first *HealthVerdict
	for _, r := range e.rules {
		v, ok := sample[r.Signal]
		if !ok || !r.violated(v) {
			continue
		}
		verdict := HealthVerdict{
			At:      e.rec.Now(),
			Subject: subject,
			Rule:    r.Name,
			Sample:  v,
			Reason:  r.reason(v),
		}
		if len(e.verdicts) < healthVerdictCap {
			e.verdicts = append(e.verdicts, verdict)
		} else {
			e.droppedV++
		}
		if e.emit {
			e.rec.Inc(obs.CHealthVerdicts)
			e.rec.Emitf(obs.KindVerdict, "health:"+e.scope, "%s: %s", subject, verdict.Reason)
		}
		if first == nil {
			f := verdict
			first = &f
		}
	}
	return first
}

// StallJudge adapts the engine to the mve watchdog hook: the follower
// is declared stalled when any rule fires on its stalled-for sample.
func (e *HealthEngine) StallJudge() func(proc string, stalledFor time.Duration, pending int) bool {
	return func(proc string, stalledFor time.Duration, pending int) bool {
		return e.Evaluate(proc, HealthSample{SignalStalledFor: float64(stalledFor)}) != nil
	}
}

// FollowerLivenessRule is the watchdog's no-progress deadline as a
// health rule; OpAtLeast reproduces the legacy stalled >= deadline
// comparison exactly.
func FollowerLivenessRule(deadline time.Duration) HealthRule {
	return HealthRule{
		Name:   "follower-liveness",
		Signal: SignalStalledFor,
		Op:     OpAtLeast,
		Bound:  float64(deadline),
		Format: func(s float64) string {
			return fmt.Sprintf("no progress for %v (deadline %v)", time.Duration(s), deadline)
		},
	}
}

// SuccessRateFloorRule declares a windowed availability floor: violated
// when the success fraction drops below min.
func SuccessRateFloorRule(min float64) HealthRule {
	return HealthRule{
		Name:   "success-rate-floor",
		Signal: SignalSuccessRate,
		Op:     OpBelow,
		Bound:  min,
		Format: func(s float64) string {
			return fmt.Sprintf("success rate %.4f below floor %.4f", s, min)
		},
	}
}

// Rules converts the canary gate's thresholds into the equivalent
// health rules, preserving the inline checks' order, comparison
// directions and reason strings. Conditional thresholds (MaxLag,
// MaxValidateLagP99) only exist as rules when configured, and the p99
// rule still only fires when its signal is sampled (span tracing on).
func (g CanaryGate) Rules() []HealthRule {
	budget := g.MaxDivergences
	rules := []HealthRule{{
		Name:   "divergence-budget",
		Signal: SignalDivergences,
		Op:     OpAbove,
		Bound:  float64(budget),
		Format: func(s float64) string {
			return fmt.Sprintf("%d divergences exceed budget %d", int64(s), budget)
		},
	}}
	if g.MaxLag > 0 {
		maxLag := g.MaxLag
		rules = append(rules, HealthRule{
			Name:   "ring-lag",
			Signal: SignalRingLag,
			Op:     OpAbove,
			Bound:  float64(maxLag),
			Format: func(s float64) string {
				return fmt.Sprintf("lag %d exceeds %d", int64(s), maxLag)
			},
		})
	}
	if g.MaxValidateLagP99 > 0 {
		maxP99 := g.MaxValidateLagP99
		rules = append(rules, HealthRule{
			Name:   "validate-lag-p99",
			Signal: SignalValidateLagP99,
			Op:     OpAbove,
			Bound:  float64(maxP99),
			Format: func(s float64) string {
				return fmt.Sprintf("validate-lag p99 %v exceeds %v", time.Duration(s), maxP99)
			},
		})
	}
	return rules
}
