package main

// adapter.go is the only file of the benchmark that imports the
// program. Everything the benchmark knows about mvedsua's API — how to
// build a service, drive a controller, read a public counter, hook an
// observer, or call a layer's exported functions in a probe — is here,
// so an API-changing refactor has exactly one file to adapt (in a
// benchmark PR of its own, before the refactor lands). The rest of the
// package sees plain Go types: conn, repResult, probe.
//
// Imports: core, sim, vos, sysabi, obs and the app constructors to run
// workloads; ringbuf, mve and dsl additionally for probes; dsu only for
// the Config/Version/App types core's API is written in.

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvedsua/internal/apps/ftpd"
	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apps/memcache"
	"mvedsua/internal/core"
	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// The virtual cost model: the magnitudes internal/bench calibrated
// against the paper's Table 2 bands, restated here because the
// benchmark may not import the harness it is meant to outlive. One
// deliberate difference: the per-byte kernel cost is charged in
// picoseconds (internal/bench's `200*time.Nanosecond/1000` truncates to
// zero), so simulated time responds to payload size and therefore to
// the seed.
const (
	syscallBase   = 1300 * time.Nanosecond
	perBytePicos  = 200
	interceptCost = 100 * time.Nanosecond
	recordCost    = 550 * time.Nanosecond
	replayCost    = 1250 * time.Nanosecond
	updateCheck   = 100 * time.Nanosecond
	kvCmdCPU      = 2 * time.Microsecond
	mcCmdCPU      = 200 * time.Nanosecond
	ftpCmdCPU     = 8 * time.Microsecond

	quantum   = time.Millisecond
	startAt   = 100 * time.Millisecond // virtual instant every group's gate opens
	virtLimit = 10 * time.Minute       // a timed section longer than this is a hang
	ftpFile   = "bench.bin"
)

func kernelCost(c sysabi.Call) time.Duration {
	return syscallBase + time.Duration(len(c.Buf)*perBytePicos/1000)
}

// conn is a client's connection: sysabi.Call on vos.Kernel.Invoke,
// straight to the kernel like the paper's external load generators.
type conn struct {
	k     *vos.Kernel
	tk    *sim.Task
	fd    int
	calls int64
}

func dial(k *vos.Kernel, tk *sim.Task, port int64) (*conn, bool) {
	r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{port, 0}})
	return &conn{k: k, tk: tk, fd: int(r.Ret), calls: 1}, r.OK()
}

func (c *conn) now() int64 { return int64(c.tk.Now()) }

func (c *conn) write(buf []byte, tag uint64) bool {
	c.calls++
	return c.k.Invoke(c.tk, sysabi.Call{Op: sysabi.OpWrite, FD: c.fd, Buf: buf, ReqID: tag}).OK()
}

// read returns the next burst (up to 64 KiB), or nil on error or EOF.
func (c *conn) read() []byte {
	c.calls++
	r := c.k.Invoke(c.tk, sysabi.Call{Op: sysabi.OpRead, FD: c.fd, Args: [2]int64{65536, 0}})
	if !r.OK() || r.Ret == 0 {
		return nil
	}
	return r.Data
}

func (c *conn) close() {
	c.calls++
	c.k.Invoke(c.tk, sysabi.Call{Op: sysabi.OpClose, FD: c.fd})
}

// Roles host time is charged to by the OnSlice observer.
const (
	roleClient = iota
	roleLeader
	roleFollower
	roleOther
	numRoles
)

// shimDispatcher counts what crosses the sysabi chokepoint from server
// processes (leader and followers alike); installed through
// core.Config.WrapDispatcher in the traced repetition only.
type shimDispatcher struct {
	g    *group
	next sysabi.Dispatcher
}

func (d shimDispatcher) Invoke(t *sim.Task, c sysabi.Call) sysabi.Result {
	r := d.next.Invoke(t, c)
	d.g.shimCalls++
	d.g.shimBytes += int64(len(c.Buf) + len(r.Data))
	return r
}

// group is one service: kernel, controller, clients and the driver task
// that walks it through set-up, the timed section and teardown.
type group struct {
	rep *rep
	id  int
	led *ledger
	s   *sim.Scheduler
	k   *vos.Kernel

	ctl   *core.Controller      // duo workloads
	fleet *core.FleetController // variants > 0
	mon   *mve.Monitor
	rec   *obs.Recorder // traced repetition only

	clients []*client
	tasks   []*sim.Task
	open    bool
	gate    sim.WaitQueue
	waiting int           // clients parked at the gate (warm-up done)
	done    int           // clients that verified their last reply
	wake    sim.WaitQueue // the driver parks here

	shimCalls, shimBytes int64
	verdicts             int
	hookWaits            int64
	updateNS             int64            // Σ request→commit virtual ns over committed hops
	base, last           map[string]int64 // snapshots at the timed section's edges
	err                  error
}

// snapshot reads the exact public counters a group can see with no
// recorder attached, plus — traced — the recorder's and the shim's.
// The timed section's share is the snapshot at its end minus the one at
// its start.
func (g *group) snapshot() map[string]int64 {
	var kernel, client int64
	for _, n := range g.k.Stats { // order-free sum
		kernel += int64(n)
	}
	for _, cl := range g.clients {
		client += cl.c.calls
	}
	st, b := g.mon.Stats, g.mon.Buffer()
	m := map[string]int64{
		"sim.dispatches":   g.s.Dispatches(),
		"vos.server_calls": kernel - client,
		"mve.intercepted":  st.Intercepted,
		"mve.recorded":     st.Recorded,
		"mve.replayed":     st.Replayed,
		"mve.promotions":   st.Promotions,
		"mve.stalls":       st.Stalls,
		"mve.divergences":  int64(len(g.mon.Divergences())),
		"dsl.rule_hits":    st.Rewritten,
		"ringbuf.blocked":  int64(b.ProducerBlocked),
		"ringbuf.dropped":  int64(b.Dropped),
	}
	if mb := g.mon.MultiBuffer(); mb != nil {
		m["ringbuf.blocked"] += int64(mb.ProducerBlocked)
		m["ringbuf.dropped"] += int64(mb.Dropped)
	}
	if g.ctl != nil {
		m["core.transitions"] = int64(len(g.ctl.Timeline()))
	} else {
		m["core.transitions"] = int64(len(g.fleet.Timeline()))
	}
	if g.rec != nil {
		for key, name := range tracedCounters {
			m["obs:"+key] = g.rec.Counter(name)
		}
		for key, name := range windowedHists {
			if h := g.rec.Hist(name); h != nil {
				m["obs:"+key+":count"], m["obs:"+key+":sum"] = h.Count, int64(h.Sum)
			}
		}
		m["shim:calls"], m["shim:bytes"] = g.shimCalls, g.shimBytes
	}
	return m
}

func (g *group) highwater() int64 {
	h := g.mon.Buffer().HighWater
	if mb := g.mon.MultiBuffer(); mb != nil && mb.HighWater > h {
		h = mb.HighWater
	}
	return int64(h)
}

// What the traced repetition reads from each recorder, keyed by the
// benchmark's own name for it so the rest of the package never spells a
// recorder constant. Counters are diffed over the timed section and
// also kept whole (lifecycle facts: a held update is requested during
// set-up).
var tracedCounters = map[string]string{
	"ringbuf.put": obs.CRingPut, "ringbuf.blocked": obs.CRingBlocked,
	"vos.net_bytes": obs.CVOSNetBytes, "vos.fs_bytes": obs.CVOSFSBytes,
	"dsu.update_points": obs.CDSUUpdatePoints,
	"core.updates":      obs.CCoreUpdates, "core.commits": obs.CCoreCommits,
	"core.rollbacks": obs.CCoreRollbacks, "core.retries": obs.CCoreRetries,
	"core.transitions":  obs.CCoreTransitions,
	"core.fleet_ejects": obs.CFleetEjects, "core.fleet_respawns": obs.CFleetRespawns,
}

// windowedHists are diffed (count and sum) over the timed section.
// wholeHists are read once the run has drained: the request histogram
// needs no diff because only timed requests are tagged, and the dsu
// ones are lifecycle facts of the whole repetition (a held update's
// transform runs during set-up).
var windowedHists = map[string]string{
	"sysabi.single": obs.HSyscallSingle, "sysabi.leader": obs.HSyscallLeader,
	"ringbuf.block_wait": obs.HRingBlockWait,
}
var wholeHists = map[string]string{
	"request.validate_lag": obs.HReqValidateLag,
	"dsu.quiesce_wait":     obs.HDSUQuiesce, "dsu.xform": obs.HDSUXform,
}

// ledger is one scheduler's share of a traced repetition: its own
// profiler (so its rows can be read while other shards run), the
// profiler's state at the timed section's edges, and the host time
// between consecutive OnSlice callbacks charged to the role of the task
// that just ran. Only its own scheduler's goroutine writes it.
type ledger struct {
	s      *sim.Scheduler
	owner  *group // the scheduler's first group owns its slice track
	groups int
	opened int
	closed int

	prof       *obs.Profiler
	start, end profSnap

	last time.Time
	ns   [numRoles]int64
	role map[string]int
}

type profSnap struct {
	rows       map[string]int64 // "<cpu|off>:<leaf label>" → virtual ns
	busy, span int64
}

func (l *ledger) snap() profSnap {
	p := profSnap{rows: map[string]int64{}}
	if l.prof == nil {
		return p
	}
	for _, row := range l.prof.Rows() {
		if row.Kind != "idle" {
			p.rows[row.Kind+":"+row.Stack[strings.LastIndexByte(row.Stack, ';')+1:]] += int64(row.Dur)
		}
	}
	for _, t := range l.prof.ShardTotals() {
		p.busy, p.span = int64(t.Busy), int64(t.Makespan)
	}
	return p
}

// rep is one repetition: a fresh world, run to completion.
type rep struct {
	w      workload
	seed   uint64
	traced bool
	spans  *spanLog
	build  int // host span the world is built under

	ss      *sim.ShardedScheduler
	ledgers []*ledger
	groups  []*group

	mu       sync.Mutex // shards stamp the timed section's edges concurrently
	t0       time.Time
	opened   int
	closed   int
	start    stamp
	end      stamp
	timing   atomic.Bool
	minStart int64
	maxEnd   int64
}

// stamp is the host-side state read at the timed section's edges.
type stamp struct {
	at  time.Time
	mem runtime.MemStats
	ru  rusage
}

// takeStamp reads the clock last, so the opening stamp leaves the
// stop-the-world ReadMemStats outside the timed section; groupDone
// reads its clock first for the same reason.
func takeStamp() (s stamp) {
	runtime.ReadMemStats(&s.mem)
	s.ru = getrusage()
	s.at = time.Now()
	return s
}

// newApp builds the cold server for a workload with the cost model
// applied; preloading is part of set-up.
func (r *rep) newApp() dsu.App {
	switch r.w.app {
	case appMC:
		s := memcache.New(memcache.SpecFor("1.2.2", 4))
		s.CmdCPU = mcCmdCPU
		return s
	case appFTP:
		s := ftpd.New(ftpd.SpecFor("2.0.5"))
		s.CmdCPU = ftpCmdCPU
		return s
	default:
		s := kvstore.New(kvstore.SpecFor("2.0.0", false))
		s.CmdCPU = kvCmdCPU
		if r.w.preload > 0 {
			sp := r.spans.begin("preload", r.build)
			s.Preload(r.w.preload)
			r.spans.end(sp)
		}
		return s
	}
}

// service returns the port clients dial and the version deployed cold.
func (r *rep) service() (port int64, version string) {
	switch r.w.app {
	case appMC:
		return memcache.Port, "1.2.2"
	case appFTP:
		return ftpd.Port, "2.0.5"
	default:
		return kvstore.Port, "2.0.0"
	}
}

// heldUpdate is the version installed in warm-up by the held workloads.
func (r *rep) heldUpdate() *dsu.Version {
	if r.w.app == appMC {
		return memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{})
	}
	return ftpd.Update("2.0.5", "2.0.6")
}

func (r *rep) config(g *group) core.Config {
	cfg := core.Config{
		BufferEntries: r.w.ring,
		Costs:         mve.Costs{Intercept: interceptCost, Record: recordCost, Replay: replayCost},
		DSU:           dsu.Config{UpdateCheckCost: updateCheck},
		Recorder:      g.rec,
	}
	if r.w.app == appMC {
		cfg.DSU.EpollWaitIsUpdatePoint = true
		cfg.DSU.EpollUpdateInterval = 10 * time.Millisecond
		cfg.DSU.OnAbort = memcache.AbortReset
	}
	if r.traced {
		cfg.WrapDispatcher = func(_, _ string, d sysabi.Dispatcher) sysabi.Dispatcher {
			return shimDispatcher{g: g, next: d}
		}
	}
	return cfg
}

// assemble builds the world: schedulers, one group per service, the
// observers of a traced repetition, clients and drivers.
func (r *rep) assemble() {
	if r.w.shards > 0 {
		r.ss = sim.NewSharded(r.w.shards, quantum)
		for i := 0; i < r.w.shards; i++ {
			r.ledgers = append(r.ledgers, &ledger{s: r.ss.Shard(i)})
		}
	} else {
		r.ledgers = []*ledger{{s: sim.New()}}
	}
	var file []byte
	if r.w.app == appFTP {
		// The seed draws the last partial chunk's length, so the simulated
		// transfer time is the seed's too, not a constant of the file size.
		file = fileBytes(r.seed, r.w.fileKiB<<10+int(splitmix(r.seed)%2048))
	}
	for id := 0; id < r.w.groups; id++ {
		led := r.ledgers[id%len(r.ledgers)]
		g := &group{rep: r, id: id, led: led, s: led.s, k: vos.NewKernel(led.s)}
		led.groups++
		if led.owner == nil {
			led.owner = g
		}
		g.k.BaseCost = kernelCost
		if file != nil {
			g.k.WriteFile(ftpd.Root+"/"+ftpFile, file)
		}
		if r.traced {
			g.rec = obs.New(g.s.Now, obs.Options{SpanCapacity: 1 << 16})
			g.rec.SetTraceDropSource(g.s)
			g.rec.EnableSpans()
			g.rec.EnableProfiling()
			g.k.Rec = g.rec
		}
		cfg := r.config(g)
		if r.w.variants > 0 {
			ids := make([]string, r.w.variants)
			for i := range ids {
				ids[i] = fmt.Sprintf("v%d", i+1)
			}
			g.fleet = core.NewFleet(g.k, core.FleetConfig{
				Config: cfg, Variants: ids,
				Canary: core.CanaryGate{Window: 150 * time.Millisecond}, // required > 0; never used
			})
			g.fleet.OnVerdict = func(mve.Verdict) { g.verdicts++ }
			g.mon = g.fleet.Monitor()
			g.fleet.Start(r.newApp())
		} else {
			g.ctl = core.New(g.k, cfg)
			g.mon = g.ctl.Monitor()
			g.ctl.Start(r.newApp())
		}
		r.groups = append(r.groups, g)
		g.spawn(file)
	}
	if r.traced {
		for i, led := range r.ledgers {
			led.observe(r, i)
		}
	}
}

// observe attaches the traced repetition's observers to a scheduler:
// the exact virtual-clock profiler, run slices for the span export, and
// host-time stamping of every dispatch.
func (l *ledger) observe(r *rep, shard int) {
	l.prof = obs.NewProfiler()
	l.s.SetProfiler(l.prof.ShardSink(shard, l.s.Now))
	l.role = make(map[string]int)
	if c := l.owner.ctl; c != nil {
		// Which runtime leads changes at promotion; drop the cache.
		c.OnStage = func(core.Event) { clear(l.role) }
	}
	l.s.OnSlice = func(task string, start, end time.Duration) {
		if end > start {
			l.owner.rec.Slice(task, "run", start, end)
		}
		if !r.timing.Load() {
			return
		}
		now := time.Now()
		if l.last.IsZero() {
			l.last = now
			return
		}
		role, ok := l.role[task]
		if !ok {
			role = l.owner.roleOf(task)
			l.role[task] = role
		}
		l.ns[role] += now.Sub(l.last).Nanoseconds()
		l.last = now
	}
}

// roleOf classifies a task by name. Runtime tasks are
// "<runtime>/<thread>@<version>"; fleet variants carry their proc name
// ("v1#1@2.0.0/…") as the runtime name; in the duo the runtime created
// as "follower" leads after a promotion, so the version decides.
func (g *group) roleOf(task string) int {
	switch {
	case strings.HasPrefix(task, "bench/client"):
		return roleClient
	case g.fleet != nil && strings.Contains(task, "#"):
		return roleFollower
	case g.fleet != nil && strings.HasPrefix(task, "leader/"):
		return roleLeader
	case g.ctl != nil && (strings.HasPrefix(task, "leader/") || strings.HasPrefix(task, "follower/")):
		if strings.HasSuffix(task, "@"+g.ctl.LeaderRuntime().App().Version()) {
			return roleLeader
		}
		return roleFollower
	}
	return roleOther
}

// spawn starts the group's clients and its driver.
func (g *group) spawn(file []byte) {
	w := &g.rep.w
	port, _ := g.rep.service()
	per := w.keys / w.clients
	for i := 0; i < w.clients; i++ {
		idx := g.id*w.clients + i
		cl := &client{
			app: w.app, seed: g.rep.seed, rng: splitmix(g.rep.seed ^ uint64(idx+1)<<40),
			keyLo: i * per, keyN: per, preload: w.preload, readPct: 90,
			ver: make([]uint32, per), lat: make([]int64, 0, w.ops),
			cmd: make([]byte, 0, 256), want: make([]byte, 0, 256), acc: make([]byte, 0, 256),
		}
		if file != nil {
			cl.file, cl.fileSize, cl.fileSum = ftpFile, len(file), crc32.ChecksumIEEE(file)
		}
		if g.rep.traced {
			cl.tagBase = uint64(idx+1) << 24
		}
		if w.train && i == 0 {
			cl.hooks = g.trainHooks()
		}
		g.clients = append(g.clients, cl)
		g.tasks = append(g.tasks, g.s.Go(fmt.Sprintf("bench/client%d.%d", g.id, i), func(tk *sim.Task) {
			c, ok := dial(g.k, tk, port)
			cl.c = c
			if !ok || (w.app == appFTP && !cl.login()) {
				cl.failed++
			}
			cl.run(w.warmOps, false)
			g.waiting++
			g.wake.WakeAll(g.s)
			for !g.open {
				tk.Block(&g.gate)
			}
			cl.run(w.ops, true)
			g.done++
			if g.done == w.clients {
				g.last = g.snapshot()
				g.rep.groupDone(g, cl.lastV)
			}
			c.close()
			g.wake.WakeAll(g.s)
		}))
	}
	g.s.Go(fmt.Sprintf("bench/driver%d", g.id), g.drive)
}

// drive is the group's driver task.
func (g *group) drive(tk *sim.Task) {
	w := &g.rep.w
	if w.held {
		// Requested before the first client byte: a server parked in
		// epoll_wait only reaches an update point when traffic arrives, so
		// the login and warm-up ops are what install it, and they already
		// run on the record/replay path the timed section measures.
		g.ctl.Update(g.rep.heldUpdate())
	}
	for g.waiting < w.clients {
		tk.Block(&g.wake)
	}
	if w.held {
		g.await(tk, "held update installed and caught up", func() bool {
			return g.ctl.Stage() == core.StageOutdatedLeader && g.mon.Buffer().Empty()
		})
	}
	if d := startAt - tk.Now(); d > 0 {
		tk.Sleep(d)
	}
	g.base = g.snapshot()
	g.rep.groupStart(g, int64(tk.Now()))
	g.open = true
	g.gate.WakeAll(g.s)
	for g.done < w.clients && g.err == nil {
		if !tk.BlockTimeout(&g.wake, virtLimit) {
			g.fail("timed section still running after %v of virtual time", virtLimit)
		}
	}
	g.check()
	for _, t := range g.tasks {
		t.Kill()
	}
	if g.fleet != nil {
		g.fleet.Shutdown()
		return
	}
	if rt := g.ctl.FollowerRuntime(); rt != nil {
		rt.KillAll()
	}
	g.mon.DropFollower()
	g.ctl.LeaderRuntime().KillAll()
}

func (g *group) fail(format string, args ...interface{}) {
	if g.err == nil {
		g.err = fmt.Errorf("group %d: %s", g.id, fmt.Sprintf(format, args...))
	}
}

// await polls cond once per virtual millisecond, failing the group
// after a virtual second.
func (g *group) await(tk *sim.Task, what string, cond func() bool) {
	for i := 0; !cond(); i++ {
		if i == 1000 {
			g.fail("gave up waiting: %s", what)
			return
		}
		g.hookWaits++
		tk.Sleep(time.Millisecond)
	}
}

// trainHooks returns client 0's op-indexed schedule for walking
// 2.0.0→2.0.1→2.0.2→2.0.3→2.1.0: per hop, request the update an eighth
// into the hop's share of the ops, promote at the half, commit at seven
// eighths, so each stage carries a fixed number of ops.
func (g *group) trainHooks() map[int]func() {
	hooks := make(map[int]func())
	vs := kvstore.Versions
	hop := g.rep.w.ops / (len(vs) - 1)
	for h := 0; h+1 < len(vs); h++ {
		from, to := vs[h], vs[h+1]
		var requested time.Duration
		hooks[h*hop+hop/8] = func() {
			requested = g.s.Now()
			if !g.ctl.Update(kvstore.Update(from, to, kvstore.UpdateOpts{})) {
				g.fail("update %s→%s refused in stage %v", from, to, g.ctl.Stage())
			}
		}
		hooks[h*hop+hop/2] = func() {
			g.await(g.clients[0].c.tk, "follower "+to+" validating", func() bool {
				return g.ctl.Stage() == core.StageOutdatedLeader
			})
			if !g.ctl.Promote() {
				g.fail("promote to %s refused in stage %v", to, g.ctl.Stage())
			}
		}
		hooks[h*hop+hop*7/8] = func() {
			g.await(g.clients[0].c.tk, to+" leading", func() bool {
				return g.ctl.Stage() == core.StageUpdatedLeader
			})
			if !g.ctl.Commit() {
				g.fail("commit of %s refused in stage %v", to, g.ctl.Stage())
			}
			g.updateNS += int64(g.s.Now() - requested)
		}
	}
	return hooks
}

// check is the group's share of the correctness gate: the final stage,
// the leading version, and nothing unexpected on the way there.
func (g *group) check() {
	w := &g.rep.w
	if n := len(g.mon.Divergences()); n > 0 {
		g.fail("%d divergence(s), first: %v", n, g.mon.Divergences()[0])
	}
	if g.mon.Stats.Stalls > 0 {
		g.fail("%d follower stall(s)", g.mon.Stats.Stalls)
	}
	if n := g.last["ringbuf.dropped"]; n > 0 {
		g.fail("%d ring entries dropped", n)
	}
	if g.fleet != nil {
		if g.verdicts > 0 || g.fleet.Phase() != core.FleetSteady || len(g.fleet.LiveVariants()) != w.variants {
			g.fail("fleet ended %v with %d/%d variants after %d verdict(s)",
				g.fleet.Phase(), len(g.fleet.LiveVariants()), w.variants, g.verdicts)
		}
		return
	}
	commits := 0
	for _, ev := range g.ctl.Timeline() {
		switch {
		case strings.HasPrefix(ev.Note, "rolled back"), strings.Contains(ev.Note, "abandoned"),
			strings.Contains(ev.Note, "retry"), strings.Contains(ev.Note, "crashed"):
			g.fail("unexpected controller event at %v: %s", ev.At, ev.Note)
		case ev.Note == "update committed":
			commits++
		}
	}
	_, version := g.rep.service()
	stage, wantCommits := core.StageSingleLeader, 0
	switch {
	case w.held:
		stage = core.StageOutdatedLeader
	case w.train:
		version, wantCommits = kvstore.Versions[len(kvstore.Versions)-1], len(kvstore.Versions)-1
	}
	got := g.ctl.LeaderRuntime().App().Version()
	if g.ctl.Stage() != stage || got != version || commits != wantCommits {
		g.fail("ended %v on %s with %d commit(s); want %v on %s with %d",
			g.ctl.Stage(), got, commits, stage, version, wantCommits)
	}
}

func (g *group) finalState() string {
	if g.fleet != nil {
		return fmt.Sprintf("%v/%s/%d", g.fleet.Phase(), g.fleet.LeaderRuntime().App().Version(), len(g.fleet.LiveVariants()))
	}
	return fmt.Sprintf("%v/%s", g.ctl.Stage(), g.ctl.LeaderRuntime().App().Version())
}

// groupStart and groupDone stamp the timed section's edges: the first
// gate to open and the last group to see its last reply. Gates open at
// the same virtual instant, so on a sharded runtime they open within
// one epoch of each other.
func (r *rep) groupStart(g *group, virt int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.opened == 0 || virt < r.minStart {
		r.minStart = virt
	}
	if g.led.opened == 0 {
		g.led.start = g.led.snap()
	}
	g.led.opened++
	r.opened++
	if r.opened == 1 {
		r.start = takeStamp()
		r.timing.Store(true)
	}
}

func (r *rep) groupDone(g *group, virt int64) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if virt > r.maxEnd {
		r.maxEnd = virt
	}
	g.led.closed++
	if g.led.closed == g.led.groups {
		g.led.end = g.led.snap()
	}
	r.closed++
	if r.closed == len(r.groups) {
		r.timing.Store(false)
		r.end = takeStamp()
		r.end.at = now
	}
}

// runRep executes one repetition and folds it into a repResult. Host
// spans land under parent: setup › {build › preload, warmup}, drive,
// teardown, verify.
func runRep(w workload, seed uint64, traced bool, spans *spanLog, parent int) (*repResult, error) {
	// Start from a collected heap: the previous repetition's world is
	// garbage now, and when the pacer gets to it should not be this
	// repetition's luck.
	runtime.GC()
	r := &rep{w: w, seed: seed, traced: traced, spans: spans, t0: time.Now()}
	setup := spans.begin("setup", parent)
	r.build = spans.begin("build", setup)
	r.assemble()
	built := spans.end(r.build)
	var err error
	if r.ss != nil {
		err = r.ss.Run()
	} else {
		err = r.ledgers[0].s.Run()
	}
	stop := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: scheduler: %w", w.name, err)
	}
	for _, g := range r.groups {
		if g.err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, g.err)
		}
	}
	if r.closed != len(r.groups) {
		return nil, fmt.Errorf("%s: only %d of %d groups finished", w.name, r.closed, len(r.groups))
	}
	spans.add("warmup", setup, built, r.start.at)
	spans.endAt(setup, r.start.at)
	spans.add("drive", parent, r.start.at, r.end.at)
	spans.add("teardown", parent, r.end.at, stop)
	defer spans.end(spans.begin("verify", parent))
	return r.result()
}

// result verifies the finished repetition and extracts its numbers.
func (r *rep) result() (*repResult, error) {
	res := &repResult{
		setupS:     r.start.at.Sub(r.t0).Seconds(),
		wallNS:     r.end.at.Sub(r.start.at).Nanoseconds(),
		cpuNS:      r.end.ru.cpu() - r.start.ru.cpu(),
		sysNS:      r.end.ru.sys - r.start.ru.sys,
		mallocs:    r.end.mem.Mallocs - r.start.mem.Mallocs,
		allocBytes: r.end.mem.TotalAlloc - r.start.mem.TotalAlloc,
		gcCycles:   int64(r.end.mem.NumGC - r.start.mem.NumGC),
		makespanNS: r.maxEnd - r.minStart,
		counts:     map[string]int64{},
	}
	for _, led := range r.ledgers {
		if c := led.s.Crashes(); len(c) > 0 {
			return nil, fmt.Errorf("%s: task %s crashed: %v", r.w.name, c[0].Task, c[0].Value)
		}
	}
	var lat []int64
	window, whole := map[string]int64{}, map[string]int64{}
	for _, g := range r.groups {
		for _, cl := range g.clients {
			res.ops += int64(len(cl.lat))
			res.failed += cl.failed
			lat = append(lat, cl.lat...)
		}
		for name, end := range g.last {
			window[name] += end - g.base[name]
			if strings.HasPrefix(name, "obs:") {
				whole[name[4:]] += end
			}
		}
		res.counts["ringbuf.highwater"] = max(res.counts["ringbuf.highwater"], g.highwater())
		res.counts["core.hook_waits"] += g.hookWaits
		res.counts["core.update_total_ns"] += g.updateNS
		res.final += fmt.Sprintf("g%d:%s;", g.id, g.finalState())
	}
	if want := int64(r.w.groups * r.w.clients * r.w.ops); res.ops != want {
		return nil, fmt.Errorf("%s: %d timed ops recorded, want %d", r.w.name, res.ops, want)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.summarize(lat)
	if r.traced {
		res.traced = &tracedResult{window: map[string]int64{}, whole: whole}
		res.export = r.exportVirtualTrace
	}
	for name, v := range window {
		if strings.Contains(name, ":") {
			res.traced.window[name] = v
		} else {
			res.counts[name] = v
		}
	}
	if r.traced {
		r.fillTraced(res.traced)
	}
	return res, nil
}

// fillTraced merges every group's recorder, the per-scheduler profilers
// and host-time ledgers into plain numbers, after the run has drained.
func (r *rep) fillTraced(t *tracedResult) {
	t.hists, t.activityNS = map[string]hist{}, map[string]int64{}
	merged := obs.NewRegistry("merged")
	for _, g := range r.groups {
		g.rec.Root().MergeInto(merged)
		t.spansDropped += g.rec.SpansDropped()
		t.traceDropped += g.rec.TraceDropped()
	}
	for key, name := range wholeHists {
		if h := merged.Hist(name); h != nil {
			t.hists[key] = hist{count: h.Count, sumNS: int64(h.Sum), p99NS: int64(h.Quantile(0.99))}
		}
	}
	for key := range windowedHists {
		t.hists[key] = hist{count: t.window["obs:"+key+":count"], sumNS: t.window["obs:"+key+":sum"]}
	}
	for _, led := range r.ledgers {
		for k, v := range led.end.rows {
			t.activityNS[k] += v - led.start.rows[k]
		}
		t.busyNS += led.end.busy - led.start.busy
		t.spanNS += led.end.span - led.start.span
		for role, ns := range led.ns {
			t.roleNS[role] += ns
		}
	}
}

// exportVirtualTrace renders the traced repetition's virtual-clock
// spans as Chrome trace JSON (merged across shards when sharded) and
// the profilers' folded stacks.
func (r *rep) exportVirtualTrace() (trace []byte, folded string, err error) {
	var shards []obs.ShardTrace
	for i, led := range r.ledgers {
		shards = append(shards, obs.ShardTrace{Shard: i, Label: fmt.Sprintf("shard%d", i), Rec: led.owner.rec})
		folded += led.prof.Folded()
	}
	if r.ss == nil {
		trace, err = r.groups[0].rec.ExportChromeTrace()
	} else {
		trace, err = obs.ExportMergedChromeTrace(shards, nil)
	}
	return trace, folded, err
}

// ---------------------------------------------------------------------
// Probes: isolated loops over one layer's exported functions. Each runs
// n iterations of the operation it is named after; the harness
// (probes.go) sizes n and times it.

// probe is one layer micro-measurement.
type probe struct {
	metric string
	unit   string
	// scale converts host ns per iteration into the metric's unit.
	scale float64
	// prepare, if set, builds state outside the timed loop.
	prepare func() func(n int)
	run     func(n int)
}

var probeSink int

func mustRun(s *sim.Scheduler) {
	if err := s.Run(); err != nil {
		panic(err)
	}
}

// simYield: two tasks alternating through Yield; one iteration is one
// dispatch.
func simYield(n int) {
	s := sim.New()
	for i := 0; i < 2; i++ {
		s.Go("yielder", func(tk *sim.Task) {
			for j := 0; j < n/2; j++ {
				tk.Yield()
			}
		})
	}
	mustRun(s)
}

// simTimer: one task sleeping through the timer heap.
func simTimer(n int) {
	s := sim.New()
	s.Go("sleeper", func(tk *sim.Task) {
		for j := 0; j < n; j++ {
			tk.Sleep(time.Microsecond)
		}
	})
	mustRun(s)
}

// simEpoch: a 2-shard runtime whose only work is reaching the barrier.
func simEpoch(n int) {
	ss := sim.NewSharded(2, quantum)
	for i := 0; i < 2; i++ {
		ss.Go(i, "ticker", func(tk *sim.Task) {
			for j := 0; j < n; j++ {
				tk.Sleep(quantum)
			}
		})
	}
	if err := ss.Run(); err != nil {
		panic(err)
	}
}

// simXShardSend: one message ping-ponging between two shards.
func simXShardSend(n int) {
	ss := sim.NewSharded(2, quantum)
	var bounce func(tk *sim.Task, i int)
	bounce = func(tk *sim.Task, i int) {
		if i < n {
			ss.Send(tk, 1-tk.Scheduler().ShardID(), "ball", func(rk *sim.Task) { bounce(rk, i+1) })
		}
	}
	ss.Go(0, "serve", func(tk *sim.Task) { bounce(tk, 0) })
	if err := ss.Run(); err != nil {
		panic(err)
	}
}

// cloneEqual: what the record and validate paths do to a payload —
// deep-copy the call and result, then compare.
func cloneEqual(size int) func(n int) {
	return func(n int) {
		call := sysabi.Call{Op: sysabi.OpWrite, FD: 5, Buf: make([]byte, size)}
		res := sysabi.Result{Ret: int64(size), Data: make([]byte, size)}
		for i := 0; i < n; i++ {
			c, r := call.Clone(), res.Clone()
			if !c.Equal(call) || len(r.Data) != size {
				panic("clone differs")
			}
		}
	}
}

// onKernel runs body in a task holding both ends of a stream on a bare
// kernel (no cost model, no monitor).
func onKernel(body func(k *vos.Kernel, tk *sim.Task, client, server int)) {
	s := sim.New()
	k := vos.NewKernel(s)
	s.Go("probe", func(tk *sim.Task) {
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{7, 0}})
		client := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{7, 0}}).Ret)
		server := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: 3}).Ret)
		body(k, tk, client, server)
	})
	mustRun(s)
}

// vosEcho: a 64-byte write and the read that consumes it.
func vosEcho(n int) {
	onKernel(func(k *vos.Kernel, tk *sim.Task, client, server int) {
		buf := make([]byte, 64)
		for i := 0; i < n; i++ {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: client, Buf: buf})
			probeSink += len(k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: server, Args: [2]int64{4096, 0}}).Data)
		}
	})
}

// vosStream: n KiB through a socket as 4 KiB writes and 64 KiB reads,
// the shape of an ftpd transfer.
func vosStream(n int) {
	onKernel(func(k *vos.Kernel, tk *sim.Task, client, server int) {
		buf := make([]byte, 4096)
		for i := 0; i < n; i += 64 {
			for j := 0; j < 16; j++ {
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: server, Buf: buf})
			}
			probeSink += len(k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: client, Args: [2]int64{65536, 0}}).Data)
		}
	})
}

// vosFRead: n KiB read from a 1 MiB file in 4 KiB chunks.
func vosFRead(n int) {
	onKernel(func(k *vos.Kernel, tk *sim.Task, _, _ int) {
		k.WriteFile("/f", make([]byte, 1<<20))
		for done := 0; done < n; {
			fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f"}).Ret)
			for i := 0; i < 256 && done < n; i, done = i+1, done+4 {
				probeSink += len(k.Invoke(tk, sysabi.Call{Op: sysabi.OpFRead, FD: fd, Args: [2]int64{4096, 0}}).Data)
			}
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
		}
	})
}

func ringEntry(payload int) ringbuf.Entry {
	ev := sysabi.Event{Call: sysabi.Call{Op: sysabi.OpClock}, Result: sysabi.Result{Ret: 1}}
	if payload > 0 {
		ev.Call = sysabi.Call{Op: sysabi.OpWrite, FD: 5, Buf: make([]byte, payload)}
	}
	return ringbuf.Entry{Kind: ringbuf.KindSyscall, Event: ev}
}

// ringPutGet: one Put and one Get on a 256-entry ring. With a payload
// the entry is cloned per Put, as the leader's record path does.
func ringPutGet(payload int) func(n int) {
	return func(n int) {
		s := sim.New()
		s.Go("probe", func(tk *sim.Task) {
			b, e := ringbuf.New(s, 256), ringEntry(payload)
			for i := 0; i < n; i++ {
				if payload > 0 {
					e.Event.Call = e.Event.Call.Clone()
				}
				b.Put(tk, e)
				got, _ := b.Get(tk)
				probeSink += len(got.Event.Call.Buf)
			}
		})
		mustRun(s)
	}
}

// ringBatch64: PutBatch of 64 entries then one DrainInto; per entry.
func ringBatch64(n int) {
	s := sim.New()
	s.Go("probe", func(tk *sim.Task) {
		b, batch := ringbuf.New(s, 256), make([]ringbuf.Entry, 64)
		for i := range batch {
			batch[i] = ringEntry(0)
		}
		var dst []ringbuf.Entry
		for i := 0; i < n; i += 64 {
			b.PutBatch(tk, batch)
			dst = b.DrainInto(tk, dst[:0])
		}
		probeSink += len(dst)
	})
	mustRun(s)
}

// ringMultiK3: one Put fanned out to three cursors, each drained; per
// entry put.
func ringMultiK3(n int) {
	s := sim.New()
	s.Go("probe", func(tk *sim.Task) {
		mb, e := ringbuf.NewMulti(s, 256), ringEntry(0)
		cur := []*ringbuf.Cursor{mb.OpenCursor("a"), mb.OpenCursor("b"), mb.OpenCursor("c")}
		for i := 0; i < n; i++ {
			mb.Put(tk, e)
			for _, c := range cur {
				got, _ := c.Get(tk)
				probeSink += int(got.Event.Result.Ret)
			}
		}
	})
	mustRun(s)
}

// recordReplay: a leader recording n clock calls (the cheapest kernel
// call, with a zero-cost model) and k followers validating them; one
// iteration is one call recorded and replayed k times.
func recordReplay(k int) func(n int) {
	return func(n int) {
		s := sim.New()
		m := mve.New(vos.NewKernel(s), 256, mve.Costs{})
		procs := []*mve.Proc{m.StartSingleLeader("leader")}
		if k == 1 {
			procs = append(procs, m.AttachFollower("follower", nil))
		}
		for i := 0; k > 1 && i < k; i++ {
			procs = append(procs, m.AttachVariant(fmt.Sprintf("v%d", i+1), nil))
		}
		for _, p := range procs {
			s.Go(p.Name(), func(tk *sim.Task) {
				for i := 0; i < n; i++ {
					p.Invoke(tk, sysabi.Call{Op: sysabi.OpClock})
				}
			})
		}
		mustRun(s)
	}
}

// dslTransform: the kvstore 2.0.0→2.0.1 rule set on a 2-event window it
// rewrites (hit) or passes through (miss).
func dslTransform(hit bool) func() func(n int) {
	return func() func(n int) {
		rules, _ := kvstore.RulesFor("2.0.0", "2.0.1")
		eng := dsl.NewEngine(rules)
		clock := sysabi.Event{Call: sysabi.Call{Op: sysabi.OpClock}, Result: sysabi.Result{Ret: 42}}
		write := sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, FD: 5, Buf: []byte("+OK\r\n")}, Result: sysabi.Result{Ret: 5}}
		window := []sysabi.Event{write, clock}
		if hit {
			window = []sysabi.Event{clock, write}
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				_, consumed, fired := eng.Transform(window)
				if (fired != nil) != hit {
					panic("dsl probe: unexpected rule outcome")
				}
				probeSink += consumed
			}
		}
	}
}

// dslParse: every rule set the shipped apps carry, re-parsed from its
// canonical source.
func dslParse() func(n int) {
	var srcs []string
	add := func(sets ...*dsl.RuleSet) {
		for _, rs := range sets {
			if rs != nil && len(rs.Rules) > 0 {
				srcs = append(srcs, rs.String())
			}
		}
	}
	for i := 0; i+1 < len(kvstore.Versions); i++ {
		add(kvstore.RulesFor(kvstore.Versions[i], kvstore.Versions[i+1]))
	}
	for i := 0; i+1 < len(ftpd.Versions); i++ {
		add(ftpd.RulesFor(ftpd.Versions[i], ftpd.Versions[i+1]))
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			for _, src := range srcs {
				if _, err := dsl.Parse(src); err != nil {
					panic(err)
				}
			}
		}
	}
}

// bigStore is the 50k-key kvstore kv_update_cycle forks and transforms.
func bigStore() *kvstore.Server {
	s := kvstore.New(kvstore.SpecFor("2.0.0", false))
	s.Preload(50000)
	return s
}

func dsuFork() func(n int) {
	s := bigStore()
	return func(n int) {
		for i := 0; i < n; i++ {
			probeSink += len(s.Fork().Version())
		}
	}
}

func dsuXform() func(n int) {
	s, v := bigStore(), kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{})
	return func(n int) {
		for i := 0; i < n; i++ {
			app, err := v.Xform(s)
			if err != nil {
				panic(err)
			}
			probeSink += len(app.Version())
		}
	}
}

// obsProbe times one recorder operation with everything enabled.
func obsProbe(op func(r *obs.Recorder, ps *obs.ProfilerShard, i int)) func() func(n int) {
	return func() func(n int) {
		r := obs.New(nil, obs.Options{})
		r.EnableSpans()
		ps := obs.NewProfiler().ShardSink(0, r.Now)
		return func(n int) {
			for i := 0; i < n; i++ {
				op(r, ps, i)
			}
		}
	}
}

var probeLabels = []string{obs.LblLeader, obs.LblService}

// probes lists every layer probe with the metric it reports.
var probes = []probe{
	{metric: "sim.probe_yield_host_ns", unit: "ns", run: simYield},
	{metric: "sim.probe_timer_host_ns", unit: "ns", run: simTimer},
	{metric: "sim.probe_epoch_host_ns", unit: "ns", run: simEpoch},
	{metric: "sim.probe_xshard_send_host_ns", unit: "ns", run: simXShardSend},
	{metric: "sysabi.probe_clone_equal_64b_host_ns", unit: "ns", run: cloneEqual(64)},
	{metric: "sysabi.probe_clone_equal_4k_host_ns", unit: "ns", run: cloneEqual(4096)},
	{metric: "vos.probe_echo_host_ns", unit: "ns", run: vosEcho},
	{metric: "vos.probe_stream_host_ns_per_kib", unit: "ns", run: vosStream},
	{metric: "vos.probe_fread_host_ns_per_kib", unit: "ns", run: vosFRead},
	{metric: "ringbuf.probe_putget_host_ns", unit: "ns", run: ringPutGet(0)},
	{metric: "ringbuf.probe_batch64_host_ns_per_entry", unit: "ns", run: ringBatch64},
	{metric: "ringbuf.probe_putget_4k_host_ns", unit: "ns", run: ringPutGet(4096)},
	{metric: "ringbuf.probe_multi_k3_host_ns_per_entry", unit: "ns", run: ringMultiK3},
	{metric: "mve.probe_record_replay_host_ns", unit: "ns", run: recordReplay(1)},
	{metric: "mve.probe_record_replay_k3_host_ns", unit: "ns", run: recordReplay(3)},
	{metric: "dsl.probe_transform_hit_host_ns", unit: "ns", prepare: dslTransform(true)},
	{metric: "dsl.probe_transform_miss_host_ns", unit: "ns", prepare: dslTransform(false)},
	{metric: "dsl.probe_parse_host_us", unit: "us", scale: 1e-3, prepare: dslParse},
	{metric: "dsu.probe_fork_host_ms", unit: "ms", scale: 1e-6, prepare: dsuFork},
	{metric: "dsu.probe_xform_host_ms", unit: "ms", scale: 1e-6, prepare: dsuXform},
	{metric: "obs.probe_counter_inc_host_ns", unit: "ns", prepare: obsProbe(func(r *obs.Recorder, _ *obs.ProfilerShard, _ int) {
		r.Inc(obs.CRingPut)
	})},
	{metric: "obs.probe_histogram_observe_host_ns", unit: "ns", prepare: obsProbe(func(r *obs.Recorder, _ *obs.ProfilerShard, i int) {
		r.Observe(obs.HSyscallLeader, time.Duration(i&0xffff))
	})},
	{metric: "obs.probe_span_host_ns", unit: "ns", prepare: obsProbe(func(r *obs.Recorder, _ *obs.ProfilerShard, i int) {
		r.Slice("leader/main@2.0.0", "run", time.Duration(i), time.Duration(i+1))
	})},
	{metric: "obs.probe_profile_slice_host_ns", unit: "ns", prepare: obsProbe(func(_ *obs.Recorder, ps *obs.ProfilerShard, i int) {
		ps.ProfileSlice("leader/main@2.0.0", probeLabels, time.Duration(i), time.Duration(i+1))
	})},
}

// forkAllocMiB reports how much one App.Fork() of the 50k-key store
// allocates.
func forkAllocMiB() float64 {
	s := bigStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	probeSink += len(s.Fork().Version())
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}
