package bench

import (
	"fmt"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apps/memcache"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// The chaos sweep extends §6.2's three hand-picked faults into a seeded
// matrix: every fault class the chaos layer can inject (syscall errors,
// latency, crashes, silent stalls), aimed at the leader, the follower,
// or the state transformation, across both stateful servers. The
// MVEDSUA claim under test is uniform — no fault during an update may
// become a client-visible request failure; every fault must resolve to
// a recorded tolerated outcome (rollback, promotion, or absorption).

// ChaosKinds are the fault classes of the sweep matrix.
var ChaosKinds = []string{
	"follower-errno",         // injected syscall error desyncs the follower -> divergence rollback
	"follower-crash",         // follower dies mid-validation -> crash rollback
	"follower-stall",         // follower hangs silently -> watchdog stall rollback
	"follower-stall-discard", // follower hangs, tiny ring + discard policy -> buffer-full rollback
	"follower-delay",         // follower merely slow -> absorbed, update proceeds
	"leader-crash",           // old leader dies during validation -> follower promoted
	"leader-delay",           // leader slowed mid-update -> absorbed, update proceeds
	"xform-error",            // state transformation fails -> graceful rollback
}

// ChaosScenario is one cell of the fault matrix.
type ChaosScenario struct {
	App  string // "Redis" or "Memcached"
	Kind string
	Seed int64
}

// Name renders the scenario identifier.
func (sc ChaosScenario) Name() string {
	return fmt.Sprintf("%s/%s/seed=%d", sc.App, sc.Kind, sc.Seed)
}

// ChaosResult is the verdict for one scenario.
type ChaosResult struct {
	ChaosScenario
	// Tolerated means the judge found no breach: the fault fired, the
	// run ended in the outcome its kind declares, and every reply the
	// client read is the one a never-updated twin gives.
	Tolerated bool
	// Requests / Failures count the driver's requests and the replies
	// that differ from the twin's (the client-visible failures — must be
	// zero).
	Requests int
	Failures int
	// Outcome names the recovery path the kind declares; Detail lists
	// the breaches.
	Outcome string
	Detail  string
}

// ChaosMatrix enumerates the full sweep: both servers, every fault
// kind, two seeds each.
func ChaosMatrix() []ChaosScenario {
	var out []ChaosScenario
	for _, app := range []string{"Redis", "Memcached"} {
		for _, kind := range ChaosKinds {
			for _, seed := range []int64{1, 2} {
				out = append(out, ChaosScenario{App: app, Kind: kind, Seed: seed})
			}
		}
	}
	return out
}

// ChaosSweep runs the whole matrix.
func ChaosSweep() []ChaosResult {
	var out []ChaosResult
	for _, sc := range ChaosMatrix() {
		r, _ := ChaosRun(sc, nil)
		out = append(out, r)
	}
	return out
}

// FormatChaos renders the sweep outcomes.
func FormatChaos(results []ChaosResult) string {
	var b strings.Builder
	b.WriteString("Chaos sweep: injected faults during updates (§6.2 extended)\n")
	tolerated, requests, failures := 0, 0, 0
	for _, r := range results {
		status := "TOLERATED"
		if !r.Tolerated {
			status = "FAILED"
		} else {
			tolerated++
		}
		requests += r.Requests
		failures += r.Failures
		detail := r.Outcome
		if !r.Tolerated {
			detail = r.Detail
		}
		fmt.Fprintf(&b, "  %-38s %-10s %s\n", r.Name(), status, detail)
	}
	fmt.Fprintf(&b, "  -- %d/%d scenarios tolerated; %d client-visible failures in %d requests\n",
		tolerated, len(results), failures, requests)
	b.WriteString("  (paper §6.2: clients never observe an error; the sweep holds that\n")
	b.WriteString("   invariant under every injected fault class)\n")
	return b.String()
}

// chaosApp adapts one server to the generic sweep driver.
type chaosApp struct {
	port                   int64
	oldVersion, newVersion string
	dsu                    dsu.Config
	makeApp                func() dsu.App
	makeUpdate             func(breakXform bool) *dsu.Version
	// prime, if set, issues setup requests; request issues one request of
	// the traffic.
	prime, request func(tk *sim.Task, c *apptest.Client)
}

func chaosAppFor(name string) chaosApp {
	switch name {
	case "Redis":
		return chaosApp{
			port:       kvstore.Port,
			oldVersion: "2.0.0",
			newVersion: "2.0.1",
			makeApp:    func() dsu.App { return redis() },
			makeUpdate: func(breakXform bool) *dsu.Version {
				return kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{BreakXform: breakXform})
			},
			// INCR's reply changes with every request, so a lost or
			// repeated request changes every reply after it.
			request: func(tk *sim.Task, c *apptest.Client) { c.Do(tk, "INCR chaos") },
		}
	case "Memcached":
		return chaosApp{
			port:       memcache.Port,
			oldVersion: "1.2.2",
			newVersion: "1.2.3",
			dsu: dsu.Config{
				EpollWaitIsUpdatePoint: true,
				EpollUpdateInterval:    5 * time.Millisecond,
				OnAbort:                memcache.AbortReset,
			},
			makeApp: func() dsu.App {
				s := memcache.New(memcache.SpecFor("1.2.2", 1))
				s.CmdCPU = MemcacheCmdCPU
				return s
			},
			makeUpdate: func(breakXform bool) *dsu.Version {
				return memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{BreakXform: breakXform})
			},
			prime: func(tk *sim.Task, c *apptest.Client) {
				c.Send(tk, "set warm 0 0 1\r\nx\r\n")
				c.RecvUntil(tk, "\r\n")
			},
			request: func(tk *sim.Task, c *apptest.Client) {
				c.Send(tk, "get warm\r\n")
				c.RecvUntil(tk, "END\r\n")
			},
		}
	default:
		panic("chaos: unknown app " + name)
	}
}

// The sweep's traffic: requests before the update, then after it. The
// priming requests are setup, not counted.
const chaosBefore, chaosAfter = 3, 40

// ChaosRun executes one scenario: prime, inject per the seeded plan,
// drive traffic across the update, and judge the run against the outcome
// its kind declares. setup, if non-nil, runs on the world after the run's
// own hook, before the server starts; the world comes back with the
// verdict.
func ChaosRun(cs ChaosScenario, setup func(*apptest.World)) (ChaosResult, *apptest.World) {
	sc := chaosCell(cs, setup)
	w, _, breaches := sc.run()
	res := ChaosResult{ChaosScenario: cs, Tolerated: len(breaches) == 0,
		Requests: chaosBefore + chaosAfter, Outcome: sc.label, Detail: summary(breaches)}
	for _, b := range breaches {
		if b.Exchange >= 0 {
			res.Failures++
		}
	}
	return res, w
}

// chaosCell builds one cell's run: the seeded fault plan, the traffic,
// and the outcome the cell's kind declares.
func chaosCell(cs ChaosScenario, setup func(*apptest.World)) scenario {
	app := chaosAppFor(cs.App)
	rng := chaos.Rand(cs.Seed)

	// Leader-targeted faults are armed only once the update is live:
	// a leader crash before the follower exists has nothing to recover
	// to, and would be a plain §2 outage, not an update fault.
	var ctl *core.Controller
	duringUpdate := func() bool { return ctl.Stage() == core.StageOutdatedLeader }

	cfg := core.Config{DSU: app.dsu}
	errnos := []sysabi.Errno{sysabi.EAGAIN, sysabi.EPIPE, sysabi.ECONNRESET}
	delay := time.Duration(20+rng.Intn(41)) * time.Millisecond
	// A rolled-back update leaves the old version leading alone, after the
	// candidate's verdict if one was rendered; an absorbed fault leaves
	// the duo validating.
	rollback := func(verdicts ...string) apptest.Outcome {
		return apptest.Outcome{Leader: app.oldVersion, Verdicts: candidateRollbacks(verdicts...),
			Counters: map[string]int64{obs.CCoreRollbacks: 1}}
	}
	absorbed := apptest.Outcome{Stage: core.StageOutdatedLeader, Leader: app.oldVersion, Fleet: 1}
	sc := scenario{name: cs.Name(), app: app.makeApp(), port: app.port}
	switch cs.Kind {
	case "follower-errno":
		sc.faults = []*chaos.Injection{{
			Role: "follower", Op: sysabi.OpWrite, AfterCalls: 1 + rng.Intn(5),
			Kind: chaos.KindErrno, Errno: errnos[rng.Intn(len(errnos))],
		}}
		sc.want, sc.label = rollback("divergence"), "divergence detected; rolled back"
	case "follower-crash":
		sc.faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 2 + rng.Intn(10), Kind: chaos.KindCrash,
		}}
		sc.want, sc.label = rollback("crash"), "follower crash; rolled back"
	case "follower-stall":
		cfg.WatchdogDeadline = 60 * time.Millisecond
		sc.faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 1 + rng.Intn(8), Kind: chaos.KindStall,
		}}
		sc.want, sc.label = rollback("stall"), "watchdog caught the stall; rolled back"
		sc.want.Violations = []string{"follower-liveness"}
	case "follower-stall-discard":
		// No watchdog: the stall can only be the ring's buffer-full one.
		cfg.BufferEntries = 8
		cfg.BufferFullPolicy = mve.FullDiscard
		sc.faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 1 + rng.Intn(4), Kind: chaos.KindStall,
		}}
		sc.want, sc.label = rollback("stall"), "lagging follower discarded; leader never blocked"
		sc.want.Counters[obs.CRingBlocked] = 0
	case "follower-delay":
		sc.faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 1 + rng.Intn(8), Kind: chaos.KindDelay, Delay: delay,
		}}
		sc.want, sc.label = absorbed, "latency absorbed; duo healthy"
	case "leader-crash":
		sc.faults = []*chaos.Injection{{
			Role: "leader", Op: sysabi.OpWrite, AfterCalls: 1 + rng.Intn(5),
			When: duringUpdate, Kind: chaos.KindCrash,
		}}
		sc.want = apptest.Outcome{Leader: app.newVersion, Counters: map[string]int64{obs.CCoreCommits: 1}}
		sc.label = "old leader crashed; follower promoted"
	case "leader-delay":
		sc.faults = []*chaos.Injection{{
			Role: "leader", Op: sysabi.OpWrite, AfterCalls: 1 + rng.Intn(5),
			When: duringUpdate, Kind: chaos.KindDelay, Delay: delay,
		}}
		sc.want, sc.label = absorbed, "latency absorbed; duo healthy"
	case "xform-error":
		// The fault lives in the update itself (broken transformation);
		// no syscall-level injection.
		sc.want, sc.label = rollback(), "state-transform failure; rolled back"
	default:
		panic("chaos: unknown fault kind " + cs.Kind)
	}
	sc.cfg = duo(cfg)
	sc.setup = func(w *apptest.World) {
		ctl = w.C
		if setup != nil {
			setup(w)
		}
	}
	sc.drive = func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		if app.prime != nil {
			app.prime(tk, c)
		}
		traffic := func(n int) {
			for i := 0; i < n; i++ {
				app.request(tk, c)
				tk.Sleep(10 * time.Millisecond)
			}
		}
		traffic(chaosBefore)
		w.C.Update(app.makeUpdate(cs.Kind == "xform-error"))
		traffic(chaosAfter)
	}
	return sc
}
