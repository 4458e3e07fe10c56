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

// redis is the server nearly every experiment deploys: kvstore 2.0.0
// with the calibrated per-command CPU cost.
func redis() *kvstore.Server {
	s := kvstore.New(kvstore.SpecFor("2.0.0", false))
	s.CmdCPU = KVStoreCmdCPU
	return s
}

// RedisTarget is the kvstore under the Memtier-like load.
func RedisTarget() Target {
	return Target{
		Name:    "Redis",
		Clients: 2,
		MakeApp: func() dsu.App { return redis() },
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

// world assembles scheduler, kernel and the mode-specific plumbing of
// one Table 2 cell. The Varan modes wire the monitor by hand instead of
// through a controller on purpose: they are the baseline the
// controller's overhead is measured against, and a baseline built by the
// thing under test could no longer show that thing's cost
// (TestBaselinesCostWhatTheControllerCosts pins that the two agree).
type world struct {
	s       *sim.Scheduler
	k       *vos.Kernel
	target  Target
	mode    Mode
	mon     *mve.Monitor
	ctl     *core.Controller
	leader  *dsu.Runtime
	follow  *dsu.Runtime
	fproc   *mve.Proc // follow's proc
	clients []*sim.Task
	stop    bool
}

// buildOn wires target in mode on s and starts the server. Several
// worlds may share one scheduler (each gets its own kernel, so ports
// never collide); placing each on a shard of a sim.ShardedScheduler is
// what the sharded sweeps do. rec, if non-nil, is attached to the
// monitor (MVE modes) or the controller config (MVEDSUA modes), so
// per-world recorders can coexist on a shared scheduler — one ledger per
// connection group. bufCap 0 means the default 256-entry ring.
func buildOn(s *sim.Scheduler, target Target, mode Mode, bufCap int, rec *obs.Recorder) *world {
	k := vos.NewKernel(s)
	k.BaseCost = KernelCost
	if target.Setup != nil {
		target.Setup(k)
	}
	w := &world{s: s, k: k, target: target, mode: mode}
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
		w.mon.SetRecorder(rec)
		proc := w.mon.StartSingleLeader("v0")
		dsuCfg.Name = "leader"
		dsuCfg.Dispatcher = proc
		w.leader = dsu.NewRuntime(s, app, dsuCfg)
		w.leader.Start()
	case ModeVaran2, ModeLockstep:
		// Mx-style: two identical versions from the start; the follower
		// replays the leader's entire execution.
		w.mon = mve.New(k, bufCap, MVECosts(mode))
		w.mon.SetRecorder(rec)
		w.mon.Lockstep = mode == ModeLockstep
		lproc := w.mon.StartSingleLeader("v0")
		w.fproc = w.mon.AttachVariant("v0-follower", nil)
		dsuCfg.Name = "leader"
		dsuCfg.Dispatcher = lproc
		w.leader = dsu.NewRuntime(s, app, dsuCfg)
		w.leader.Start()
		fcfg := dsuCfg
		fcfg.Name = "follower"
		fcfg.Dispatcher = w.fproc
		w.follow = dsu.NewRuntime(s, app.Fork(), fcfg)
		w.follow.Start()
	case ModeMvedsua1, ModeMvedsua2:
		w.ctl = core.New(k, core.Config{
			BufferEntries: bufCap,
			Costs:         MVECosts(mode),
			DSU:           dsuCfg,
			Recorder:      rec,
		})
		w.ctl.Start(app)
	}
	return w
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
		w.mon.EjectVariant(w.fproc, "teardown")
	}
	if w.leader != nil {
		w.leader.KillAll()
	}
}

// measure is the one runner behind every Table 2-style cell: build
// target in mode on s, then load the world and run drive in it.
func measure(s *sim.Scheduler, target Target, mode Mode, bufCap int, rec *obs.Recorder, m *Metrics,
	drive func(w *world, tk *sim.Task) error) error {
	return buildOn(s, target, mode, bufCap, rec).load(m, drive)
}

// load starts the target's closed-loop clients recording into m, runs
// drive in the driver task, tears the world down when it returns, and
// runs the scheduler dry. It returns the scheduler's error, or else
// drive's.
func (w *world) load(m *Metrics, drive func(w *world, tk *sim.Task) error) error {
	for i := 0; i < max(w.target.Clients, 1); i++ {
		i := i
		w.clients = append(w.clients, w.s.Go(fmt.Sprintf("client%d", i), func(tk *sim.Task) {
			w.target.SpawnClient(w.k, tk, m, &w.stop, i)
		}))
	}
	var driveErr error
	w.s.Go("driver", func(tk *sim.Task) {
		driveErr = drive(w, tk)
		w.teardown()
	})
	if err := w.s.Run(); err != nil {
		return err
	}
	return driveErr
}

// warmUp is the opening of the Table 2 protocol: let the service warm
// for d — and, in ModeMvedsua2, install the target's update halfway
// through and keep both versions running, so what follows measures the
// outdated-leader (validation) stage as Table 2's Mvedsua-2 row does.
func (w *world) warmUp(tk *sim.Task, d time.Duration) error {
	if w.mode != ModeMvedsua2 {
		tk.Sleep(d)
		return nil
	}
	tk.Sleep(d / 2)
	w.ctl.Update(w.target.MakeUpdate())
	tk.Sleep(d / 2)
	return w.validating("update not installed by end of warmup")
}

// validating closes the protocol: in ModeMvedsua2 the duo must still be
// in the outdated-leader stage, or the cell measured something else.
func (w *world) validating(otherwise string) error {
	if w.mode != ModeMvedsua2 || w.ctl.Stage() == core.StageOutdatedLeader {
		return nil
	}
	return fmt.Errorf("%s/%v: %s (stage %v, divergences %v)",
		w.target.Name, w.mode, otherwise, w.ctl.Stage(), w.ctl.Monitor().Divergences())
}

// RunSteadyState measures a target in a mode — warmup (see warmUp), then
// a measurement window — and returns its steady-state throughput in
// operations per second: one Table 2 cell.
func RunSteadyState(target Target, mode Mode, warmup, window time.Duration) (float64, error) {
	var opsPerSec float64
	m := NewMetrics(0)
	err := measure(sim.New(), target, mode, 0, nil, m, func(w *world, tk *sim.Task) error {
		if err := w.warmUp(tk, warmup); err != nil {
			return err
		}
		m.Reset(tk.Now())
		tk.Sleep(window)
		opsPerSec = m.Throughput(window)
		return w.validating("duo did not survive the window")
	})
	return opsPerSec, err
}
