package bench

import (
	"fmt"
	"strings"
	"time"

	"mvedsua/internal/apps/ftpd"
	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apps/memcache"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// Target describes one benchmarked server (a Table 2 column).
type Target struct {
	Name    string
	Port    int64
	Clients int
	// MakeApp builds the cold application with the cost model applied.
	MakeApp func() dsu.App
	// MakeUpdate builds the version installed for Mvedsua-2 (and the
	// update experiments).
	MakeUpdate func() *dsu.Version
	// DSU is the target's runtime configuration template (epoll update
	// points, abort callback).
	DSU dsu.Config
	// Setup prepares the kernel (e.g. served files).
	Setup func(k *vos.Kernel)
	// SpawnClient launches one workload client in a task.
	SpawnClient func(k *vos.Kernel, tk *sim.Task, m *Metrics, stop *bool, id int)
}

// RedisTarget is the kvstore under the Memtier-like load.
func RedisTarget() Target {
	return Target{
		Name:    "Redis",
		Port:    kvstore.Port,
		Clients: 2,
		MakeApp: func() dsu.App {
			s := kvstore.New(kvstore.SpecFor("2.0.0", false))
			s.CmdCPU = KVStoreCmdCPU
			return s
		},
		MakeUpdate: func() *dsu.Version {
			return kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{})
		},
		SpawnClient: func(k *vos.Kernel, tk *sim.Task, m *Metrics, stop *bool, id int) {
			KVWorkload{Port: kvstore.Port, Flavor: FlavorRESP, Seed: int64(1000 + id)}.Run(k, tk, m, stop)
		},
	}
}

// MemcachedTarget is the memcache server under the same load.
func MemcachedTarget() Target {
	return Target{
		Name:    "Memcached",
		Port:    memcache.Port,
		Clients: 8,
		MakeApp: func() dsu.App {
			s := memcache.New(memcache.SpecFor("1.2.2", 4))
			s.CmdCPU = MemcacheCmdCPU
			return s
		},
		MakeUpdate: func() *dsu.Version {
			return memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{})
		},
		DSU: dsu.Config{
			EpollWaitIsUpdatePoint: true,
			EpollUpdateInterval:    10 * time.Millisecond,
			OnAbort:                memcache.AbortReset,
		},
		SpawnClient: func(k *vos.Kernel, tk *sim.Task, m *Metrics, stop *bool, id int) {
			KVWorkload{Port: memcache.Port, Flavor: FlavorMemcached, Seed: int64(2000 + id)}.Run(k, tk, m, stop)
		},
	}
}

// VsftpdTarget benchmarks repeated downloads of a file of the given size
// ("small" 5B stresses user-space command processing; "large" 10MB
// stresses kernel-side transfer, §6.1).
func VsftpdTarget(label string, fileSize int) Target {
	file := fmt.Sprintf("bench-%d.bin", fileSize)
	return Target{
		Name:    "Vsftpd " + label,
		Port:    ftpd.Port,
		Clients: 2,
		MakeApp: func() dsu.App {
			s := ftpd.New(ftpd.SpecFor("2.0.5"))
			s.CmdCPU = FTPCmdCPU
			return s
		},
		MakeUpdate: func() *dsu.Version { return ftpd.Update("2.0.5", "2.0.6") },
		Setup: func(k *vos.Kernel) {
			k.WriteFile(ftpd.Root+"/"+file, []byte(strings.Repeat("x", fileSize)))
		},
		SpawnClient: func(k *vos.Kernel, tk *sim.Task, m *Metrics, stop *bool, id int) {
			FTPWorkload{Port: ftpd.Port, File: file}.Run(k, tk, m, stop)
		},
	}
}

// Table2Targets returns the four evaluation columns.
func Table2Targets() []Target {
	return []Target{
		MemcachedTarget(),
		RedisTarget(),
		VsftpdTarget("small", 5),
		VsftpdTarget("large", 10<<20),
	}
}

// world assembles scheduler, kernel and the mode-specific plumbing.
type world struct {
	s       *sim.Scheduler
	k       *vos.Kernel
	mon     *mve.Monitor
	ctl     *core.Controller
	leader  *dsu.Runtime
	follow  *dsu.Runtime
	clients []*sim.Task
	stop    bool
}

// buildOpts carries the optional observation wiring for a world.
type buildOpts struct {
	// rec, if non-nil, is attached to the monitor (MVE modes) or the
	// controller config (MVEDSUA modes), so per-world recorders can
	// coexist on a shared scheduler — one ledger per connection group.
	rec *obs.Recorder
	// scope labels the controller's scoped lifecycle registry
	// (core.Config.Scope); empty disables scoping. MVE-only modes have
	// no controller, so scope is meaningful only with rec in a MVEDSUA
	// mode.
	scope string
}

// build wires a target in the given mode and starts the server on a
// fresh scheduler.
func build(target Target, mode Mode, bufCap int) *world {
	return buildOn(sim.New(), target, mode, bufCap, buildOpts{})
}

// buildOn wires a target on an existing scheduler — the shard-placement
// variant of build. Several worlds may share one scheduler (each gets
// its own kernel, so ports never collide); placing each on a shard of a
// sim.ShardedScheduler is what the speedup sweep does.
func buildOn(s *sim.Scheduler, target Target, mode Mode, bufCap int, opts buildOpts) *world {
	k := vos.NewKernel(s)
	k.BaseCost = KernelCost
	if target.Setup != nil {
		target.Setup(k)
	}
	w := &world{s: s, k: k}
	app := target.MakeApp()
	dsuCfg := target.DSU
	dsuCfg.UpdateCheckCost = DSUCheckCost(mode)
	if bufCap == 0 {
		bufCap = 256
	}

	switch mode {
	case ModeNative, ModeKitsune:
		dsuCfg.Name = "leader"
		dsuCfg.Dispatcher = k
		w.leader = dsu.NewRuntime(s, app, dsuCfg)
		w.leader.Start()
	case ModeVaran1:
		w.mon = mve.New(k, bufCap, MVECosts(mode))
		w.mon.SetRecorder(opts.rec)
		proc := w.mon.StartSingleLeader("v0")
		dsuCfg.Name = "leader"
		dsuCfg.Dispatcher = proc
		w.leader = dsu.NewRuntime(s, app, dsuCfg)
		w.leader.Start()
	case ModeVaran2, ModeLockstep:
		// Mx-style: two identical versions from the start; the follower
		// replays the leader's entire execution.
		w.mon = mve.New(k, bufCap, MVECosts(mode))
		w.mon.SetRecorder(opts.rec)
		w.mon.Lockstep = mode == ModeLockstep
		lproc := w.mon.StartSingleLeader("v0")
		fproc := w.mon.AttachFollower("v0-follower", nil)
		dsuCfg.Name = "leader"
		dsuCfg.Dispatcher = lproc
		w.leader = dsu.NewRuntime(s, app, dsuCfg)
		w.leader.Start()
		fcfg := dsuCfg
		fcfg.Name = "follower"
		fcfg.Dispatcher = fproc
		w.follow = dsu.NewRuntime(s, app.Fork(), fcfg)
		w.follow.Start()
	case ModeMvedsua1, ModeMvedsua2:
		w.ctl = core.New(k, core.Config{
			BufferEntries: bufCap,
			Costs:         MVECosts(mode),
			DSU:           dsuCfg,
			Recorder:      opts.rec,
			Scope:         opts.scope,
		})
		w.ctl.Start(app)
	}
	return w
}

// spawnClients launches the workload.
func (w *world) spawnClients(target Target, m *Metrics) {
	n := target.Clients
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		i := i
		t := w.s.Go(fmt.Sprintf("client%d", i), func(tk *sim.Task) {
			target.SpawnClient(w.k, tk, m, &w.stop, i)
		})
		w.clients = append(w.clients, t)
	}
}

// teardown kills every task so the scheduler drains.
func (w *world) teardown() {
	w.stop = true
	for _, t := range w.clients {
		t.Kill()
	}
	if w.ctl != nil {
		w.ctl.Shutdown()
		return
	}
	if w.follow != nil {
		w.follow.KillAll()
	}
	if w.mon != nil {
		w.mon.DropFollower()
	}
	if w.leader != nil {
		w.leader.KillAll()
	}
}

// SteadyStateResult is one Table 2 cell.
type SteadyStateResult struct {
	Target string
	Mode   Mode
	// OpsPerSec is the measured steady-state throughput.
	OpsPerSec float64
}

// RunSteadyState measures a target in a mode: warmup, then a measurement
// window. For ModeMvedsua2 the update is installed during warmup so the
// window measures the outdated-leader (validation) stage, as Table 2's
// Mvedsua-2 row does.
func RunSteadyState(target Target, mode Mode, warmup, window time.Duration) (SteadyStateResult, error) {
	w := build(target, mode, 0)
	m := NewMetrics(0)
	m.SetCollecting(false)
	w.spawnClients(target, m)

	res := SteadyStateResult{Target: target.Name, Mode: mode}
	var runErr error
	w.s.Go("driver", func(tk *sim.Task) {
		if mode == ModeMvedsua2 {
			// Let the service warm briefly, then install the update and
			// keep both versions running for the whole window.
			tk.Sleep(warmup / 2)
			w.ctl.Update(target.MakeUpdate())
			tk.Sleep(warmup / 2)
			if w.ctl.Stage() != core.StageOutdatedLeader {
				runErr = fmt.Errorf("%s/%v: update not installed by end of warmup (stage %v, divergences %v)",
					target.Name, mode, w.ctl.Stage(), w.ctl.Monitor().Divergences())
				w.teardown()
				return
			}
		} else {
			tk.Sleep(warmup)
		}
		m.Reset(tk.Now())
		m.SetCollecting(true)
		tk.Sleep(window)
		m.SetCollecting(false)
		res.OpsPerSec = m.Throughput(window)
		if mode == ModeMvedsua2 && w.ctl.Stage() != core.StageOutdatedLeader {
			runErr = fmt.Errorf("%s/%v: duo did not survive the window (stage %v, divergences %v)",
				target.Name, mode, w.ctl.Stage(), w.ctl.Monitor().Divergences())
		}
		w.teardown()
	})
	if err := w.s.Run(); err != nil {
		return res, err
	}
	return res, runErr
}
