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

// Faults runs the paper's three §6.2 experiments: an error in the new
// code (Redis HMGET), an error in the state transformation (Memcached
// freeing live LibEvent state), and a timing error (the missing LibEvent
// reset), the last retried until the update installs.
func Faults() []FaultResult {
	return []FaultResult{
		faultNewCode(),
		faultStateXform(),
		faultTiming(),
	}
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

// faultRun runs one §6.2 experiment; a scheduler error replaces whatever
// the driver concluded.
func faultRun(name string, sc scenario, drive func(res *FaultResult, w *apptest.World, tk *sim.Task, c *apptest.Client)) FaultResult {
	res := FaultResult{Name: name}
	sc.drive = func(w *apptest.World, tk *sim.Task, c *apptest.Client) { drive(&res, w, tk, c) }
	if _, _, err := sc.run(); err != nil {
		res.Detail = err.Error()
	}
	return res
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
func faultNewCode() FaultResult {
	return faultRun("error in the new code", scenario{}, func(res *FaultResult, w *apptest.World, tk *sim.Task, c *apptest.Client) {
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
func faultStateXform() FaultResult {
	sc := memcachedScenario(core.Config{}, memcache.AbortReset)
	return faultRun("error in the state xform", sc, func(res *FaultResult, w *apptest.World, tk *sim.Task, c *apptest.Client) {
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
func faultTiming() FaultResult {
	sc := memcachedScenario(core.Config{
		RetryOnRollback: true,
		RetryInterval:   500 * time.Millisecond,
		// The paper retries on a fixed timer; cap == base disables the
		// exponential backoff so all 8 retries fit the drive window.
		RetryMaxInterval: 500 * time.Millisecond,
	}, nil) // no OnAbort: the injected timing error
	return faultRun("timing error", sc, func(res *FaultResult, w *apptest.World, tk *sim.Task, a *apptest.Client) {
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
		sawDivergence := false
		for round := 0; round < 80; round++ {
			a.Send(tk, "get j\r\n")
			b.Send(tk, "get j\r\n")
			a.RecvUntil(tk, "END\r\n")
			b.RecvUntil(tk, "END\r\n")
			tk.Sleep(20 * time.Millisecond)
			if len(w.C.Monitor().Divergences()) > 0 {
				sawDivergence = true
			}
			if sawDivergence && w.C.Stage() == core.StageOutdatedLeader {
				break
			}
		}
		installed := w.C.Stage() == core.StageOutdatedLeader
		res.Tolerated = sawDivergence && installed && w.C.Retries() >= 1 && w.C.Retries() <= 8
		res.Detail = fmt.Sprintf("spurious divergence aborted the update; installed after %d retries (paper: max 8, median 2)", w.C.Retries())
		if !res.Tolerated {
			res.Detail = fmt.Sprintf("divergence=%v installed=%v retries=%d", sawDivergence, installed, w.C.Retries())
		}
	})
}
