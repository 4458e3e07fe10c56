// Package chaos implements deterministic syscall-level fault injection
// for the MVEDSUA reproduction. It wraps a sysabi.Dispatcher — the same
// chokepoint through which the MVE monitor observes every externally
// visible effect — and, driven by a seeded plan, perturbs individual
// calls: error results, added latency, a crash at the Nth syscall, or a
// silent stall (the task simply stops consuming its event stream).
//
// Everything is deterministic under the sim virtual clock: the same plan
// against the same workload produces bit-identical runs, so every chaos
// scenario in the sweep (internal/bench) is a reproducible regression
// test, not a flake generator. This is the discipline dMVX and the
// parallel-program MVEEs arrive at the hard way — once variants can
// stall or flood the event stream, the monitor itself must be tested
// against exactly those behaviours.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// KindErrno replaces the call's result with an error, skipping the
	// real dispatch (models transient kernel-level failures and, on a
	// follower, event-stream desynchronization).
	KindErrno Kind = iota
	// KindDelay sleeps the issuing task for Delay of virtual time, then
	// executes the call normally (models a slow variant / CPU stall).
	KindDelay
	// KindCrash panics in the issuing task — the sim scheduler converts
	// it into a process crash (CrashInfo), the §6.2 crash class.
	KindCrash
	// KindStall parks the issuing task forever: the process silently
	// stops making progress without crashing — the failure class only a
	// timeout-based watchdog can detect (§3.3).
	KindStall
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindErrno:
		return "errno"
	case KindDelay:
		return "delay"
	case KindCrash:
		return "crash"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Injection is one planned fault. It fires at most once.
type Injection struct {
	// Role targets the fault at dispatchers wrapped with a matching role
	// ("leader", "follower"); empty matches every role.
	Role string
	// Proc targets the fault at one named process (the proc name the
	// controller passes to WrapDispatcher, e.g. a specific fleet variant
	// or the canary); empty matches every process.
	Proc string
	// Op restricts the trigger to one syscall; OpInvalid matches any.
	Op sysabi.Op
	// AfterCalls makes the fault fire on the Nth matching syscall after
	// arming (1-based; values below 1 mean the first match).
	AfterCalls int
	// When, if non-nil, gates arming: matching syscalls are not counted
	// until it first reports true. The chaos sweep uses this to aim
	// faults at a lifecycle phase (e.g. only once the update is
	// installed) without hardcoding syscall offsets.
	When func() bool
	// Kind selects the fault; Errno and Delay parameterize it.
	Kind  Kind
	Errno sysabi.Errno
	Delay time.Duration

	armed bool
	seen  int
	fired bool
}

// String describes the injection for logs and reports.
func (inj *Injection) String() string {
	target := inj.Role
	if target == "" {
		target = "any"
	}
	if inj.Proc != "" {
		target += "(" + inj.Proc + ")"
	}
	op := "any-op"
	if inj.Op != sysabi.OpInvalid {
		op = inj.Op.String()
	}
	switch inj.Kind {
	case KindErrno:
		return fmt.Sprintf("%s@%s#%d -> %v", target, op, inj.AfterCalls, inj.Errno)
	case KindDelay:
		return fmt.Sprintf("%s@%s#%d -> +%v", target, op, inj.AfterCalls, inj.Delay)
	default:
		return fmt.Sprintf("%s@%s#%d -> %v", target, op, inj.AfterCalls, inj.Kind)
	}
}

// Plan is the fault schedule one run executes. A plan is shared by all
// the run's wrapped dispatchers; each injection fires at most once.
type Plan struct {
	Injections []*Injection
	// Log accumulates the injections that actually fired, in order, as
	// Injection.String renders them. Rec's fault milestones say when each
	// fired, in which role and at which call.
	Log []string
	// Rec, if non-nil, receives a KindFault trace event for every fault
	// that fires, so injected chaos is auditable end-to-end in the same
	// timeline as the recovery it provokes.
	Rec *obs.Recorder
}

// NewPlan builds a plan over the given injections.
func NewPlan(injections ...*Injection) *Plan {
	return &Plan{Injections: injections}
}

// Fired returns how many injections have triggered.
func (p *Plan) Fired() int {
	n := 0
	for _, inj := range p.Injections {
		if inj.fired {
			n++
		}
	}
	return n
}

// Rand returns a deterministic generator for seed, for building seeded
// plans (trigger offsets, errno choices, delays).
func Rand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Dispatcher wraps an inner sysabi.Dispatcher with fault injection.
type Dispatcher struct {
	role  string
	name  string
	inner sysabi.Dispatcher
	plan  *Plan

	// Calls counts syscalls dispatched through this wrapper.
	Calls int
}

// Wrap returns inner with p's faults injected into its syscall stream.
// It has the signature of core.Config.WrapDispatcher, so binding a plan
// to a controller is `cfg.WrapDispatcher = plan.Wrap`. role matches
// Injection.Role; name is the process name Injection.Proc singles out
// among several sharing a role (a specific fleet variant, the canary) —
// Proc injections never match a dispatcher wrapped with an empty name.
func (p *Plan) Wrap(role, name string, inner sysabi.Dispatcher) sysabi.Dispatcher {
	return &Dispatcher{role: role, name: name, inner: inner, plan: p}
}

// Invoke implements sysabi.Dispatcher: it checks the plan for a due
// injection, applies at most one, and (except for errno faults, which
// short-circuit, and crash/stall faults, which never return) forwards
// the call to the wrapped dispatcher.
func (d *Dispatcher) Invoke(t *sim.Task, call sysabi.Call) sysabi.Result {
	d.Calls++
	for _, inj := range d.plan.Injections {
		if inj.fired || (inj.Role != "" && inj.Role != d.role) {
			continue
		}
		if inj.Proc != "" && inj.Proc != d.name {
			continue
		}
		if inj.Op != sysabi.OpInvalid && inj.Op != call.Op {
			continue
		}
		if !inj.armed {
			if inj.When != nil && !inj.When() {
				continue
			}
			inj.armed = true
		}
		inj.seen++
		need := inj.AfterCalls
		if need < 1 {
			need = 1
		}
		if inj.seen < need {
			continue
		}
		inj.fired = true
		d.plan.Log = append(d.plan.Log, inj.String())
		d.plan.Rec.Inc(obs.CChaosFired)
		d.plan.Rec.Emitf(obs.KindFault, d.role, "injected %s at %s", inj, call)
		switch inj.Kind {
		case KindErrno:
			return sysabi.Result{Err: inj.Errno}
		case KindDelay:
			t.Sleep(inj.Delay)
		case KindCrash:
			panic(fmt.Sprintf("chaos: injected crash in %s at syscall %d (%s)", d.role, d.Calls, call))
		case KindStall:
			// Silent hang: the task never issues another syscall and
			// never returns. Only Kill (rollback/teardown) unwinds it.
			var q sim.WaitQueue
			for {
				t.Block(&q)
			}
		}
		break // at most one injection per call
	}
	return d.inner.Invoke(t, call)
}
