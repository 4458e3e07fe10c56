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
	"mvedsua/internal/sim"
)

// FaultResult summarizes one §6.2 fault-tolerance experiment.
type FaultResult struct {
	Name      string
	Tolerated bool
	Detail    string
}

// faultRow runs one §6.2 experiment. setup, if non-nil, runs on the world
// before the server starts; the world comes back with the verdict.
type faultRow func(setup func(*apptest.World)) (FaultResult, *apptest.World)

// Faults runs the paper's three §6.2 experiments: an error in the new
// code (Redis HMGET), an error in the state transformation (Memcached
// freeing live LibEvent state), and a timing error (the missing LibEvent
// reset), the last retried until the update installs.
func Faults() []FaultResult {
	var out []FaultResult
	for _, row := range []faultRow{faultNewCode, faultStateXform, faultTiming} {
		r, _ := row(nil)
		out = append(out, r)
	}
	return out
}

// stories are the fault demonstrations `mvedsua -app A -fault F` runs,
// named "A/F". Each is one row of the faults experiment or one cell of
// the chaos sweep, so a demo is exactly a run TestFaultsAllTolerated or
// TestChaosSweepAllTolerated checks.
var stories = []struct {
	name  string
	fault faultRow      // a faults row, or
	chaos ChaosScenario // a chaos cell
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
			r, w = s.fault(setup)
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

// faultRun runs one §6.2 experiment with the caller's setup hook (the
// rows set none of their own); a scheduler error replaces whatever drive
// concluded.
func faultRun(name string, sc scenario, setup func(*apptest.World), drive func(res *FaultResult, w *apptest.World, tk *sim.Task, c *apptest.Client)) (FaultResult, *apptest.World) {
	res := FaultResult{Name: name}
	sc.setup = setup
	sc.drive = func(w *apptest.World, tk *sim.Task, c *apptest.Client) { drive(&res, w, tk, c) }
	w, _, err := sc.run()
	if err != nil {
		res.Detail = err.Error()
	}
	return res, w
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
func faultNewCode(setup func(*apptest.World)) (FaultResult, *apptest.World) {
	return faultRun("error in the new code", scenario{}, setup, func(res *FaultResult, w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET plain stringvalue")
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{BugHMGET: true}))
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR warm")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			res.Detail = fmt.Sprintf("update not installed: %v", w.C.Stage())
			return
		}
		reply := c.Do(tk, "HMGET plain f1")
		tk.Sleep(50 * time.Millisecond)
		after := c.Do(tk, "GET plain")
		ok := strings.HasPrefix(reply, "-WRONGTYPE") &&
			w.C.Stage() == core.StageSingleLeader &&
			w.C.LeaderRuntime().App().Version() == "2.0.0" &&
			after == "$11\r\nstringvalue\r\n"
		res.Tolerated = ok
		res.Detail = fmt.Sprintf("follower crashed on bad HMGET; rolled back to 2.0.0; clients unaffected (reply %q)", strings.TrimSpace(reply))
		if !ok {
			res.Detail = fmt.Sprintf("stage=%v reply=%q after=%q", w.C.Stage(), reply, after)
		}
	})
}

// faultStateXform: the Memcached update's transformation frees LibEvent
// state still in use; the follower crashes under load; the leader is
// untouched.
func faultStateXform(setup func(*apptest.World)) (FaultResult, *apptest.World) {
	sc := memcachedScenario(core.Config{}, memcache.AbortReset)
	return faultRun("error in the state xform", sc, setup, func(res *FaultResult, w *apptest.World, tk *sim.Task, c *apptest.Client) {
		// Connect order is replay order: the runner's client is client 0,
		// the others connect after it, each warming before the next.
		clients := []*apptest.Client{c, nil, nil}
		for i := range clients {
			if i > 0 {
				clients[i] = apptest.Connect(w.K, tk, memcache.Port)
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
		got := c.RecvUntil(tk, "END\r\n")
		ok := w.C.Stage() == core.StageSingleLeader &&
			w.C.LeaderRuntime().App().Version() == "1.2.2" &&
			strings.Contains(got, "VALUE warm")
		res.Tolerated = ok
		res.Detail = "updated follower crashed on freed LibEvent state; leader continued on 1.2.2"
		if !ok {
			res.Detail = fmt.Sprintf("stage=%v version=%s reply=%q",
				w.C.Stage(), w.C.LeaderRuntime().App().Version(), got)
		}
	})
}

// faultTiming: the LibEvent reset callback is omitted; dispatch-order
// divergences abort the update, which is retried every 500ms until it
// installs (paper: max 8 retries, median 2).
func faultTiming(setup func(*apptest.World)) (FaultResult, *apptest.World) {
	sc := memcachedScenario(core.Config{
		RetryOnRollback: true,
		RetryInterval:   500 * time.Millisecond,
		// The paper retries on a fixed timer; cap == base disables the
		// exponential backoff so all 8 retries fit the drive window.
		RetryMaxInterval: 500 * time.Millisecond,
	}, nil) // no OnAbort: the injected timing error
	return faultRun("timing error", sc, setup, func(res *FaultResult, w *apptest.World, tk *sim.Task, a *apptest.Client) {
		b := apptest.Connect(w.K, tk, memcache.Port)
		defer b.Close(tk)
		single := func() {
			a.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
		}
		for w.C.LeaderRuntime().App().(*memcache.Server).WorkerBases()[0].RROffset()%2 == 0 {
			single()
		}
		w.C.Update(memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{}))
		// The update is installed once its fork has validated a
		// simultaneous pair: the stage holds at outdated-leader across two
		// checks. One check is not enough, since a fork that disagrees
		// diverges on its first pair, which can land in the very instant
		// of the check.
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
		installed := held == 2
		res.Tolerated = sawDivergence && installed && w.C.Retries() >= 1 && w.C.Retries() <= 8
		res.Detail = fmt.Sprintf("spurious divergence aborted the update; installed after %d retries (paper: max 8, median 2)", w.C.Retries())
		if !res.Tolerated {
			res.Detail = fmt.Sprintf("divergence=%v installed=%v retries=%d", sawDivergence, installed, w.C.Retries())
		}
	})
}
