// Package apptest provides shared scaffolding for application-level
// tests and benchmarks: a simulated world (scheduler + kernel + MVEDSUA
// controller), a blocking text-protocol client, and the judge of a
// finished run (judge.go).
package apptest

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mvedsua/internal/core"
	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// World bundles a scheduler, kernel and MVEDSUA controller for a
// scenario run.
type World struct {
	S *sim.Scheduler
	K *vos.Kernel
	C *core.Controller
	// Rec is the flight recorder every layer of the world reports into.
	Rec *obs.Recorder

	done bool
	// settle is how long Run waits between the scenario finishing and
	// the teardown, so in-flight verdicts and respawns land and the
	// post-run fleet state is the scenario's true outcome. Zero (duo
	// worlds) tears down at once.
	settle time.Duration

	// What Judge reads: the never-updated twin (Start), the clients'
	// steps (Connect), and the state teardown leaves. The twin runs under
	// the world's runtime template, so its event loop wakes as the run's
	// did.
	dsu        dsu.Config
	twin       dsu.App
	transcript []Exchange
	conns      int
	final      Final
}

// NewWorld builds a fresh world with the given controller config. Unless
// cfg.Recorder is already set, a flight recorder bound to the world's
// virtual clock is created and wired into the kernel and, through the
// controller, the monitor and ring buffer. The recorder observes but
// never advances virtual time, so instrumented runs stay bit-identical
// to bare ones.
func NewWorld(cfg core.Config) *World {
	return NewWorldOn(sim.New(), cfg)
}

// NewFleetWorld builds a fresh world around an N-variant fleet
// (core.NewFleet), creating and wiring a flight recorder exactly like
// NewWorld.
func NewFleetWorld(cfg core.FleetConfig) *World {
	w := newWorld(sim.New(), cfg.Config, func(k *vos.Kernel, c core.Config) *core.Controller {
		cfg.Config = c
		return core.NewFleet(k, cfg)
	})
	w.settle = 100 * time.Millisecond
	return w
}

// newWorld builds a world on s: a fresh kernel, the flight recorder —
// cfg.Recorder, or a new one on s's clock — attached to that kernel, and
// the controller build makes from the kernel and the wired config.
func newWorld(s *sim.Scheduler, cfg core.Config, build func(*vos.Kernel, core.Config) *core.Controller) *World {
	k := vos.NewKernel(s)
	if cfg.Recorder == nil {
		cfg.Recorder = obs.New(s.Now, obs.Options{})
	}
	k.Rec = cfg.Recorder
	return &World{S: s, K: k, C: build(k, cfg), Rec: cfg.Recorder, dsu: cfg.DSU}
}

// EnableSpanTracing opts the world into causal span tracing: the
// recorder starts accepting spans and every scheduler dispatch becomes a
// run slice on the task's track. It adds spans and nothing else — every
// metric records whether or not it is called. Tracing observes but never
// advances virtual time, so a traced run stays bit-identical to a bare
// one.
func (w *World) EnableSpanTracing() {
	w.Rec.EnableSpans()
	w.S.OnSlice = func(task string, start, end time.Duration) {
		if end > start {
			w.Rec.Slice(task, "run", start, end)
		}
	}
}

// EnableProfiling opts the world into exact virtual-clock profiling by
// attaching a profiler sink to its scheduler, the profiler's one switch:
// the instrumentation chokepoints' label pushes take effect and every
// scheduler slice is charged to the running task's label stack.
// Profiling observes but never advances virtual time, so a profiled run
// stays bit-identical to a bare one. The returned profiler owns the
// accumulated time shares; export it after Run with Folded, Pprof or
// Rows.
func (w *World) EnableProfiling() *obs.Profiler {
	p := obs.NewProfiler()
	w.S.SetProfiler(p.ShardSink(w.S.ShardID(), w.S.Now))
	return p
}

// Start deploys app as the controller's leader, as C.Start does, for a
// run that is to be judged: a fork of app taken before it runs is kept as
// the never-updated twin Judge replays the transcript on.
func (w *World) Start(app dsu.App) {
	w.twin = app.Fork()
	w.C.Start(app)
}

// Connect dials port like the package-level Connect, and records every
// step the client takes in the world's transcript. It must run inside a
// sim task.
func (w *World) Connect(tk *sim.Task, port int64) *Client {
	c := Connect(w.K, tk, port)
	c.w, c.conn = w, w.conns
	w.conns++
	c.step(Exchange{Op: sysabi.OpConnect, Port: port})
	return c
}

// Transcript returns every step the world's clients took, in order.
func (w *World) Transcript() []Exchange { return w.transcript }

// Final returns the state the run ended in: what teardown saw just
// before it shut the service down.
func (w *World) Final() Final { return w.final }

// Finish marks the scenario complete; the teardown task then takes the
// Final state and shuts the service down, so the scheduler can drain.
// What the run ended in is read from Final after Run returns, not by the
// driver before it finishes.
func (w *World) Finish() { w.done = true }

// runDeadline bounds a world's run in virtual time: a driver that never
// calls Finish ends there instead of hanging.
const runDeadline = time.Hour

// Run executes the world until the driver calls Finish (or runDeadline
// passes in virtual time), then shuts the service down. It returns any
// scheduler error.
func (w *World) Run() error {
	w.S.Go("apptest/teardown", w.teardown)
	return w.S.Run()
}

// teardown is the body of the world's teardown task: once the scenario
// finished (or the deadline passed) and a fleet has settled, it takes the
// Final state, then shuts the service down, which detaches every variant
// and kills every process.
func (w *World) teardown(tk *sim.Task) {
	deadline := tk.Now() + runDeadline
	for !w.done && tk.Now() < deadline {
		tk.Sleep(20 * time.Millisecond)
	}
	if w.settle > 0 {
		tk.Sleep(w.settle)
	}
	w.final = w.snapshot()
	w.C.Shutdown()
}

// Client is a blocking text-protocol client speaking over the virtual
// kernel. Each Do issues one command and reads one reply burst.
type Client struct {
	k  *vos.Kernel
	fd int
	// w is the world whose transcript keeps the client's steps, nil for a
	// kernel-only client; conn numbers the connection, at indexes its
	// latest step.
	w        *World
	conn, at int
}

// step appends e, a step of this connection, to the world's transcript.
func (c *Client) step(e Exchange) {
	if c.w == nil {
		return
	}
	e.Conn = c.conn
	c.at = len(c.w.transcript)
	c.w.transcript = append(c.w.transcript, e)
}

// Connect dials the port. It must run inside a sim task.
func Connect(k *vos.Kernel, tk *sim.Task, port int64) *Client {
	r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{port, 0}})
	if !r.OK() {
		panic("apptest: connect failed: " + r.Err.Error())
	}
	return &Client{k: k, fd: int(r.Ret)}
}

// FD returns the client-side descriptor.
func (c *Client) FD() int { return c.fd }

// Send writes raw bytes on the connection.
func (c *Client) Send(tk *sim.Task, data string) {
	c.SendTagged(tk, 0, data)
}

// Recv reads one burst (up to 64KiB) and returns it as a string. It
// blocks until data or EOF.
func (c *Client) Recv(tk *sim.Task) string {
	r := c.k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: c.fd, Args: [2]int64{65536, 0}})
	var got string
	if r.OK() {
		got = string(r.Data)
	}
	if c.w != nil {
		e := &c.w.transcript[c.at]
		e.Read = true
		e.Reply += got
	}
	return got
}

// Do sends one CRLF-terminated command line and returns the reply burst.
func (c *Client) Do(tk *sim.Task, cmd string) string {
	c.Send(tk, cmd+"\r\n")
	return c.Recv(tk)
}

// SendTagged writes raw bytes tagged with a request id for latency
// attribution: the kernel threads the id to the server's read, and the
// MVE layer closes the request's timeline when the follower validates
// the response. A zero reqID tags nothing.
func (c *Client) SendTagged(tk *sim.Task, reqID uint64, data string) {
	c.k.Invoke(tk, sysabi.Call{
		Op: sysabi.OpWrite, FD: c.fd, Buf: []byte(data), ReqID: reqID,
	})
	c.step(Exchange{Op: sysabi.OpWrite, Sent: data})
}

// DoTagged sends one tagged command line and returns the reply burst.
func (c *Client) DoTagged(tk *sim.Task, reqID uint64, cmd string) string {
	c.SendTagged(tk, reqID, cmd+"\r\n")
	return c.Recv(tk)
}

// RecvUntil keeps reading until the accumulated reply contains the
// marker (for multi-part replies such as FTP transfers) and returns it.
func (c *Client) RecvUntil(tk *sim.Task, marker string) string {
	var b strings.Builder
	c.readUntil(tk, marker, &b)
	return b.String()
}

// DrainUntil reads like RecvUntil but keeps none of the reply, so a long
// transfer is never held whole. It returns the bytes read; 0 means the
// connection ended first.
func (c *Client) DrainUntil(tk *sim.Task, marker string) int { return c.readUntil(tk, marker, nil) }

// readUntil reads bursts until the reply contains marker or the
// connection ends, appending each to keep unless keep is nil, and
// returns the bytes read. Only the reply's last len(marker)-1 bytes are
// carried into the next burst's search, so a marker split across reads
// is found and a long reply is scanned once.
func (c *Client) readUntil(tk *sim.Task, marker string, keep *strings.Builder) (n int) {
	for tail := ""; !strings.Contains(tail, marker); {
		part := c.Recv(tk)
		if part == "" {
			break
		}
		n += len(part)
		if keep != nil {
			keep.WriteString(part)
		}
		tail = tail[max(0, len(tail)-len(marker)+1):] + part
	}
	return n
}

// Close shuts the connection.
func (c *Client) Close(tk *sim.Task) {
	c.k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: c.fd})
	c.step(Exchange{Op: sysabi.OpClose})
}

// CheckOwnership runs the buffer-ownership scenario of an application
// and reports the first thing wrong with it. newApp's instance leads k
// cold-started replicas of itself (the duo follower for k = 1, three
// fleet variants for k = 3) on a four-entry ring, so slots and pooled
// buffers are reused constantly; driver plays the clients and returns
// everything they read. Each configuration runs twice. The second time
// every instance behaves like an application that treats its scratch as
// its own the moment a write returns: it overwrites every buffer scratch
// names for the issuing thread (the read buffer is dead by then — every
// server feeds a line buffer, or writes the chunk out, before its next
// syscall — and so is the reply just written), and when a thread issues
// an epoll_wait it overwrites the Ready list its last one returned, whose
// storage the new wait refills (sysabi.Result.Ready). Nobody may diverge,
// every instance must write the same bytes to its sockets, as many as the
// clients read, and the overwriting run must be indistinguishable from
// the one that leaves the buffers alone: nothing keeps a ready list past
// its thread's next wait, and nothing hands one out that another event
// still refers to.
func CheckOwnership(
	newApp func() dsu.App,
	scratch func(app dsu.App, tid int) [][]byte,
	prepare func(k *vos.Kernel),
	driver func(k *vos.Kernel, tk *sim.Task) string,
) error {
	return CheckOwnershipAcross(newApp, nil, nil, scratch, prepare, driver)
}

// CheckOwnershipAcross is CheckOwnership across versions: the replicas
// are newReplica's instances (forks of the leader's when nil), and each
// validates the leader's stream as rules rewrite it — so with rules that
// fire on every command, every payload an application sees or is compared
// with went through a rule hit: bound as a view, moved into an emitted
// event or dropped, and given back to the ring. A buffer given back twice,
// or kept by two events, shows here as a corrupted payload: a divergence,
// or bytes that differ from the leader's. The versions must write the
// same bytes to their sockets.
func CheckOwnershipAcross(
	newApp, newReplica func() dsu.App,
	rules *dsl.RuleSet,
	scratch func(app dsu.App, tid int) [][]byte,
	prepare func(k *vos.Kernel),
	driver func(k *vos.Kernel, tk *sim.Task) string,
) error {
	for _, k := range []int{1, 3} {
		var calm ownershipRun
		for _, scribble := range []bool{false, true} {
			app := newApp()
			replica := app.Fork
			if newReplica != nil {
				replica = newReplica
			}
			run, err := runOwnership(app, replica, rules, k, scribble, scratch, prepare, driver)
			if err == nil {
				err = run.check()
			}
			if err == nil && scribble && (run.read != calm.read || run.written[0] != calm.written[0]) {
				err = fmt.Errorf("the streams differ from the run that leaves the buffers alone")
			}
			if err != nil {
				return fmt.Errorf("K=%d scribble=%v: %w", k, scribble, err)
			}
			calm = run
		}
	}
	return nil
}

// ownershipRun is what one run of the scenario produced: the bytes the
// clients read, the bytes each instance (leader first) wrote to sockets,
// and the divergences.
type ownershipRun struct {
	read    string
	written []string
	divs    []mve.Divergence
}

func (r ownershipRun) check() error {
	if len(r.divs) != 0 {
		return fmt.Errorf("diverged: %v", r.divs[0])
	}
	if len(r.read) == 0 || len(r.read) != len(r.written[0]) {
		return fmt.Errorf("the clients read %d bytes, the leader wrote %d", len(r.read), len(r.written[0]))
	}
	for i, w := range r.written[1:] {
		if w != r.written[0] {
			return fmt.Errorf("replica %d wrote %d bytes that differ from the leader's %d", i+1, len(w), len(r.written[0]))
		}
	}
	return nil
}

func runOwnership(
	app dsu.App, replica func() dsu.App, rules *dsl.RuleSet, k int, scribble bool,
	scratch func(app dsu.App, tid int) [][]byte,
	prepare func(k *vos.Kernel),
	driver func(k *vos.Kernel, tk *sim.Task) string,
) (ownershipRun, error) {
	s := sim.New()
	kern := vos.NewKernel(s)
	if prepare != nil {
		prepare(kern)
	}
	m := mve.New(kern, 4, mve.Costs{})
	procs := []*mve.Proc{m.StartSingleLeader("leader")}
	apps := []dsu.App{app}
	for i := 1; i <= k; i++ {
		procs = append(procs, m.AttachVariant("replica"+strconv.Itoa(i), rules))
		apps = append(apps, replica())
	}
	var rts []*dsu.Runtime
	var taps []*scribbler
	for i, p := range procs {
		tap := &scribbler{inner: p, app: apps[i], scratch: scratch, scribble: scribble, ready: map[int][]int{}}
		taps = append(taps, tap)
		rt := dsu.NewRuntime(s, apps[i], dsu.Config{Name: p.Name(), Dispatcher: tap})
		rt.Start()
		rts = append(rts, rt)
	}
	var run ownershipRun
	s.Go("apptest/driver", func(tk *sim.Task) {
		run.read = driver(kern, tk)
		tk.Sleep(100 * time.Millisecond) // the replicas validate the tail
		for _, rt := range rts[1:] {
			rt.KillAll()
		}
		for _, p := range procs[1:] {
			m.EjectVariant(p, "test teardown")
		}
		rts[0].KillAll()
	})
	err := s.Run()
	for _, tap := range taps {
		run.written = append(run.written, string(tap.written))
	}
	run.divs = m.Divergences()
	return run, err
}

// scribbler sits between an application and its monitor process: it
// keeps what the application writes to sockets and, when scribbling,
// overwrites the issuing thread's scratch after every write returns, and
// its last ready list when it waits again.
type scribbler struct {
	inner    sysabi.Dispatcher
	app      dsu.App
	scratch  func(app dsu.App, tid int) [][]byte
	scribble bool
	written  []byte
	ready    map[int][]int // per TID: what the thread's last epoll_wait returned
}

// Invoke implements sysabi.Dispatcher.
func (d *scribbler) Invoke(t *sim.Task, c sysabi.Call) sysabi.Result {
	if c.Op == sysabi.OpWrite {
		d.written = append(d.written, c.Buf...)
	}
	if d.scribble && c.Op == sysabi.OpEpollWait {
		for i := range d.ready[c.TID] {
			d.ready[c.TID][i] = -1
		}
	}
	r := d.inner.Invoke(t, c)
	if c.Op == sysabi.OpEpollWait {
		d.ready[c.TID] = r.Ready
	}
	if d.scribble && c.HasOutput() {
		for _, b := range d.scratch(d.app, c.TID) {
			b = b[:cap(b)]
			for i := range b {
				b[i] = '!'
			}
		}
	}
	return r
}
