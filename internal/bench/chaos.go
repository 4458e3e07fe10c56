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
	// Tolerated means the fault fired, no request failed client-side,
	// and the controller timeline records the expected outcome.
	Tolerated bool
	// Requests / Failures count the driver's requests and how many came
	// back missing or malformed (the client-visible failures — must be
	// zero).
	Requests int
	Failures int
	// Outcome names the recovery path taken.
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
	// prime issues setup requests; it reports client-visible success.
	prime func(tk *sim.Task, c *apptest.Client) bool
	// request issues the n-th (1-based) request and reports the reply
	// and whether it is exactly what a fault-free server would send.
	request func(tk *sim.Task, c *apptest.Client, n int) (string, bool)
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
			request: func(tk *sim.Task, c *apptest.Client, n int) (string, bool) {
				// INCR gives a deterministic expected reply for every
				// request, so silent corruption or a lost request is
				// indistinguishable from a failure.
				got := c.Do(tk, "INCR chaos")
				return got, got == fmt.Sprintf(":%d\r\n", n)
			},
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
			prime: func(tk *sim.Task, c *apptest.Client) bool {
				c.Send(tk, "set warm 0 0 1\r\nx\r\n")
				return strings.Contains(c.RecvUntil(tk, "\r\n"), "STORED")
			},
			request: func(tk *sim.Task, c *apptest.Client, n int) (string, bool) {
				c.Send(tk, "get warm\r\n")
				got := c.RecvUntil(tk, "END\r\n")
				return got, strings.Contains(got, "VALUE warm 0 1\r\nx\r\n")
			},
		}
	default:
		panic("chaos: unknown app " + name)
	}
}

// ChaosRun executes one scenario: prime, inject per the seeded plan,
// drive traffic across the update, and classify the outcome. setup, if
// non-nil, runs on the world after the run's own hook, before the server
// starts; the world comes back with the verdict (nil for an unknown
// kind).
func ChaosRun(sc ChaosScenario, setup func(*apptest.World)) (ChaosResult, *apptest.World) {
	app := chaosAppFor(sc.App)
	res := ChaosResult{ChaosScenario: sc}
	rng := chaos.Rand(sc.Seed)

	// Leader-targeted faults are armed only once the update is live:
	// a leader crash before the follower exists has nothing to recover
	// to, and would be a plain §2 outage, not an update fault.
	var ctl *core.Controller
	duringUpdate := func() bool { return ctl.Stage() == core.StageOutdatedLeader }

	cfg := core.Config{DSU: app.dsu}
	errnos := []sysabi.Errno{sysabi.EAGAIN, sysabi.EPIPE, sysabi.ECONNRESET}
	delay := time.Duration(20+rng.Intn(41)) * time.Millisecond
	var faults []*chaos.Injection
	switch sc.Kind {
	case "follower-errno":
		faults = []*chaos.Injection{{
			Role: "follower", Op: sysabi.OpWrite, AfterCalls: 1 + rng.Intn(5),
			Kind: chaos.KindErrno, Errno: errnos[rng.Intn(len(errnos))],
		}}
	case "follower-crash":
		faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 2 + rng.Intn(10), Kind: chaos.KindCrash,
		}}
	case "follower-stall":
		cfg.WatchdogDeadline = 60 * time.Millisecond
		faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 1 + rng.Intn(8), Kind: chaos.KindStall,
		}}
	case "follower-stall-discard":
		cfg.BufferEntries = 8
		cfg.BufferFullPolicy = mve.FullDiscard
		faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 1 + rng.Intn(4), Kind: chaos.KindStall,
		}}
	case "follower-delay":
		faults = []*chaos.Injection{{
			Role: "follower", AfterCalls: 1 + rng.Intn(8), Kind: chaos.KindDelay, Delay: delay,
		}}
	case "leader-crash":
		faults = []*chaos.Injection{{
			Role: "leader", Op: sysabi.OpWrite, AfterCalls: 1 + rng.Intn(5),
			When: duringUpdate, Kind: chaos.KindCrash,
		}}
	case "leader-delay":
		faults = []*chaos.Injection{{
			Role: "leader", Op: sysabi.OpWrite, AfterCalls: 1 + rng.Intn(5),
			When: duringUpdate, Kind: chaos.KindDelay, Delay: delay,
		}}
	case "xform-error":
		// The fault lives in the update itself (broken transformation);
		// no syscall-level injection.
	default:
		res.Detail = "unknown fault kind"
		return res, nil
	}

	w, plan, err := scenario{
		cfg: duo(cfg), faults: faults, app: app.makeApp(), port: app.port,
		setup: func(w *apptest.World) {
			ctl = w.C
			if setup != nil {
				setup(w)
			}
		},
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
			if app.prime != nil && !app.prime(tk, c) {
				res.Failures++
			}
			n := 0
			do := func() {
				n++
				res.Requests++
				if got, ok := app.request(tk, c, n); !ok {
					res.Failures++
					if res.Detail == "" {
						res.Detail = fmt.Sprintf("request %d got %q", n, got)
					}
				}
				tk.Sleep(10 * time.Millisecond)
			}
			for i := 0; i < 3; i++ {
				do()
			}
			w.C.Update(app.makeUpdate(sc.Kind == "xform-error"))
			for i := 0; i < 40; i++ {
				do()
			}
		},
	}.run()
	if err != nil {
		res.Detail = "scheduler: " + err.Error()
		return res, w
	}

	has := func(sub string) bool {
		for _, ev := range w.C.Timeline() {
			if strings.Contains(ev.Note, sub) {
				return true
			}
		}
		return false
	}
	stage := w.C.Stage()
	leaderVer := w.C.LeaderRuntime().App().Version()
	rolledBack := func(marker, outcome string) bool {
		res.Outcome = outcome
		return has(marker) && stage == core.StageSingleLeader && leaderVer == app.oldVersion
	}
	var outcomeOK bool
	switch sc.Kind {
	case "follower-errno":
		outcomeOK = rolledBack("rolled back: divergence", "divergence detected; rolled back")
	case "follower-crash":
		outcomeOK = rolledBack("rolled back: follower crashed", "follower crash; rolled back")
	case "xform-error":
		outcomeOK = rolledBack("rolled back: state transformation", "state-transform failure; rolled back")
	case "follower-stall":
		outcomeOK = rolledBack("rolled back: stall", "watchdog caught the stall; rolled back") &&
			has("no progress")
	case "follower-stall-discard":
		outcomeOK = rolledBack("rolled back: stall", "lagging follower discarded; leader never blocked") &&
			has("ring buffer full") && w.C.Monitor().Buffer().ProducerBlocked == 0
	case "follower-delay", "leader-delay":
		res.Outcome = "latency absorbed; duo healthy"
		outcomeOK = has("forked follower") && stage == core.StageOutdatedLeader &&
			len(w.C.Monitor().Divergences()) == 0
	case "leader-crash":
		res.Outcome = "old leader crashed; follower promoted"
		outcomeOK = has("promoting follower") && leaderVer == app.newVersion
	}
	fired := plan.Fired() == len(faults)
	res.Tolerated = outcomeOK && fired && res.Failures == 0
	if !res.Tolerated && res.Detail == "" {
		var notes []string
		for _, ev := range w.C.Timeline() {
			notes = append(notes, ev.Note)
		}
		res.Detail = fmt.Sprintf("stage=%v leader=%s fired=%v failures=%d/%d timeline=%v",
			stage, leaderVer, fired, res.Failures, res.Requests, notes)
	}
	return res, w
}
