package bench

import (
	"fmt"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apps/memcache"
	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// FaultResult summarizes one §6.2 fault-tolerance experiment.
type FaultResult struct {
	Name      string
	Tolerated bool
	Detail    string
}

// faultRows build the paper's three §6.2 experiments: an error in the
// new code (Redis HMGET), an error in the state transformation (Memcached
// freeing live LibEvent state), and a timing error (the missing LibEvent
// reset), the last retried until the update installs.
var faultRows = []func() scenario{faultNewCode, faultStateXform, faultTiming}

// Faults runs the three §6.2 experiments.
func Faults() []FaultResult {
	var out []FaultResult
	for _, row := range faultRows {
		r, _ := runFault(row(), nil)
		out = append(out, r)
	}
	return out
}

// stories are the fault demonstrations `mvedsua -app A -fault F` runs,
// named "A/F". Each is one row of the faults experiment or one cell of
// the chaos sweep, so a demo is exactly a run TestFaultsAllTolerated or
// TestChaosSweepAllTolerated judges.
var stories = []struct {
	name  string
	fault func() scenario // a faults row, or
	chaos ChaosScenario   // a chaos cell
}{
	{name: "redis/newcode", fault: faultNewCode},
	{name: "redis/xform", chaos: ChaosScenario{App: "Redis", Kind: "xform-error", Seed: 1}},
	{name: "redis/stall", chaos: ChaosScenario{App: "Redis", Kind: "follower-stall", Seed: 1}},
	{name: "memcached/xform", fault: faultStateXform},
	{name: "memcached/timing", fault: faultTiming},
}

// Story runs the fault demonstration named "app/fault" with setup, if
// non-nil, applied to its world before the server starts. It returns the
// row's report — its experiment's text for that row alone — and the world,
// whose recorder holds the run's lifecycle. The error names an unknown
// story, or a fault the row did not tolerate; the world is non-nil
// whenever the story exists.
func Story(name string, setup func(*apptest.World)) (verdict string, w *apptest.World, err error) {
	var names []string
	for _, s := range stories {
		if s.name != name {
			names = append(names, s.name)
			continue
		}
		tolerated := false
		if s.fault != nil {
			var r FaultResult
			r, w = runFault(s.fault(), setup)
			verdict, tolerated = FormatFaults([]FaultResult{r}), r.Tolerated
		} else {
			var r ChaosResult
			r, w = ChaosRun(s.chaos, setup)
			verdict, tolerated = FormatChaos([]ChaosResult{r}), r.Tolerated
		}
		if !tolerated {
			err = fmt.Errorf("%s: the fault was not tolerated", name)
		}
		return verdict, w, err
	}
	return "", nil, fmt.Errorf("no fault demo %q; have %s", name, strings.Join(names, ", "))
}

// FormatFaults renders the fault experiment outcomes.
func FormatFaults(results []FaultResult) string {
	var b strings.Builder
	b.WriteString("Fault tolerance (§6.2)\n")
	for _, r := range results {
		status := "TOLERATED"
		if !r.Tolerated {
			status = "FAILED"
		}
		fmt.Fprintf(&b, "  %-28s %-10s %s\n", r.Name, status, r.Detail)
	}
	return b.String()
}

// runFault runs one §6.2 experiment with the caller's setup hook (the
// rows set none of their own) and judges it: a tolerated row reports its
// label, a failed one its breaches.
func runFault(sc scenario, setup func(*apptest.World)) (FaultResult, *apptest.World) {
	sc.setup = setup
	w, _, breaches := sc.run()
	res := FaultResult{Name: sc.name, Tolerated: len(breaches) == 0, Detail: sc.label}
	if !res.Tolerated {
		res.Detail = summary(breaches)
	}
	return res, w
}

// rolledBack is the outcome of an update its candidate's crash rolled
// back: version leads alone again.
func rolledBack(version string) apptest.Outcome {
	return apptest.Outcome{
		Leader:   version,
		Verdicts: candidateRollbacks("crash"),
		Counters: map[string]int64{obs.CCoreRollbacks: 1},
	}
}

// memcachedScenario deploys single-worker Memcached 1.2.2 under cfg with
// the 5ms epoll update points the §6.2 Memcached faults use.
func memcachedScenario(cfg core.Config, onAbort func(dsu.App)) scenario {
	cfg.DSU = dsu.Config{EpollWaitIsUpdatePoint: true, EpollUpdateInterval: 5 * time.Millisecond, OnAbort: onAbort}
	srv := memcache.New(memcache.SpecFor("1.2.2", 1))
	srv.CmdCPU = MemcacheCmdCPU
	return scenario{cfg: duo(cfg), app: srv, port: memcache.Port}
}

// faultNewCode: Redis 2.0.0 (without the bug) updated to 2.0.1 carrying
// revision 7fb16bac; a bad HMGET crashes the follower; MVEDSUA reverts
// to the old version and clients proceed without incident.
func faultNewCode() scenario {
	return scenario{
		name:  "error in the new code",
		label: `follower crashed on bad HMGET; rolled back to 2.0.0; clients unaffected (reply "-WRONGTYPE Operation against a key holding the wrong kind of value")`,
		want:  rolledBack("2.0.0"),
		drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
			c.Do(tk, "SET plain stringvalue")
			w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{BugHMGET: true}))
			for i := 0; i < 5; i++ {
				c.Do(tk, "INCR warm")
				tk.Sleep(10 * time.Millisecond)
			}
			c.Do(tk, "HMGET plain f1")
			tk.Sleep(50 * time.Millisecond)
			c.Do(tk, "GET plain")
		},
	}
}

// faultStateXform: the Memcached update's transformation frees LibEvent
// state still in use; the follower crashes under load; the leader is
// untouched.
func faultStateXform() scenario {
	sc := memcachedScenario(core.Config{}, memcache.AbortReset)
	sc.name = "error in the state xform"
	sc.label = "updated follower crashed on freed LibEvent state; leader continued on 1.2.2"
	sc.want = rolledBack("1.2.2")
	sc.drive = func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		// Connect order is replay order: the runner's client is client 0,
		// the others connect after it, each warming before the next.
		clients := []*apptest.Client{c, nil, nil}
		for i := range clients {
			if i > 0 {
				clients[i] = w.Connect(tk, memcache.Port)
				defer clients[i].Close(tk)
			}
			clients[i].Send(tk, "set warm 0 0 1\r\nx\r\n")
			clients[i].RecvUntil(tk, "\r\n")
		}
		w.C.Update(memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{UseAfterFree: true}))
		for round := 0; round < 20; round++ {
			for _, c := range clients {
				c.Send(tk, "get warm\r\n")
				c.RecvUntil(tk, "END\r\n")
			}
			tk.Sleep(15 * time.Millisecond)
		}
		c.Send(tk, "get warm\r\n")
		c.RecvUntil(tk, "END\r\n")
	}
	return sc
}

// faultTiming: the LibEvent reset callback is omitted; dispatch-order
// divergences abort the update, which is retried every 500ms until it
// installs (paper: max 8 retries, median 2). It installs on the first
// retry, and is still validating when the run ends.
func faultTiming() scenario {
	sc := memcachedScenario(core.Config{
		RetryOnRollback: true,
		RetryInterval:   500 * time.Millisecond,
		// The paper retries on a fixed timer; cap == base disables the
		// exponential backoff so all 8 retries fit the drive window.
		RetryMaxInterval: 500 * time.Millisecond,
	}, nil) // no OnAbort: the injected timing error
	sc.name = "timing error"
	sc.want = apptest.Outcome{
		Stage: core.StageOutdatedLeader, Leader: "1.2.2", Fleet: 1,
		Verdicts: []apptest.Verdict{{Cause: "divergence", Action: mve.VerdictRollbackCandidate}},
		Counters: map[string]int64{obs.CCoreRollbacks: 1},
		Retries:  1,
	}
	sc.label = fmt.Sprintf("spurious divergence aborted the update; installed after %d retries (paper: max 8, median 2)", sc.want.Retries)
	sc.drive = func(w *apptest.World, tk *sim.Task, a *apptest.Client) {
		b := w.Connect(tk, memcache.Port)
		defer b.Close(tk)
		single := func() {
			a.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
		}
		for w.C.LeaderRuntime().App().(*memcache.Server).WorkerBases()[0].RROffset()%2 == 0 {
			single()
		}
		w.C.Update(memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{}))
		// The run ends once the fork has validated a simultaneous pair: the
		// stage holds at outdated-leader across two checks. One check is
		// not enough, since a fork that disagrees diverges on its first
		// pair, which can land in the very instant of the check.
		sawDivergence, held := false, 0
		for round := 0; round < 80 && held < 2; round++ {
			a.Send(tk, "get j\r\n")
			b.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
			b.RecvUntil(tk, "END\r\n")
			tk.Sleep(20 * time.Millisecond)
			if !sawDivergence && len(w.C.Monitor().Divergences()) > 0 {
				sawDivergence = true
				// The retry meets different timing: one request arrives
				// alone, which brings the leader's round-robin memory back
				// in step with a rebuilt follower. Under pairs alone every
				// retry would fork at the same odd offset and diverge again.
				single()
			}
			held++
			if !sawDivergence || w.C.Stage() != core.StageOutdatedLeader {
				held = 0
			}
		}
	}
	return sc
}
