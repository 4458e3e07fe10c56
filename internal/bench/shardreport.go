package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// This file is the sharded-runtime side of the perf experiment: a
// strong-scaling speedup sweep over sim.ShardedScheduler (the curve in
// BENCH_perf.json's "speedup" section) and the `benchtool -experiment
// sharddet` determinism smoke, which the relation table's GOMAXPROCS row
// compares across OS thread counts.

// SpeedupPoint is one shard count's accounting of the fixed workload.
// Every field depends only on virtual time and seeds — two runs at the
// same shard count produce identical values on any machine, which the
// artifact gate pins. TotalOps is additionally shard-count invariant
// (every sweep point executes the same bounded workload). VirtualUS is not: a shard is a simulated core, its clock
// advances only for its own groups' work, so the virtual makespan
// shrinks as the fixed workload spreads over more shards —
// VirtualSpeedupX is that ratio, a speedup curve that is bit-reproducible
// even on a single-core runner. The wall-clock curve is
// BenchmarkShardSpeedup's.
type SpeedupPoint struct {
	Shards          int     `json:"shards"`
	TotalOps        int64   `json:"total_ops"`
	Syscalls        int64   `json:"syscalls"`
	Dispatches      int64   `json:"dispatches"`
	VirtualUS       int64   `json:"virtual_us"`
	VirtualSpeedupX float64 `json:"virtual_speedup_x"`
}

// SpeedupCurve is the sweep: the same G-group workload executed at
// increasing shard counts, with shard 1 as the speedup baseline.
type SpeedupCurve struct {
	Groups          int            `json:"groups"`
	ClientsPerGroup int            `json:"clients_per_group"`
	OpsPerClient    int            `json:"ops_per_client"`
	QuantumUS       int64          `json:"quantum_us"`
	Points          []SpeedupPoint `json:"points"`
}

// Speedup sweep sizing: 8 groups so the 8-shard point places exactly
// one group per shard, and a bounded per-client op count so every shard
// count executes the identical total workload (strong scaling).
const (
	speedupGroups   = 8
	speedupClients  = 2
	speedupOps      = 150
	speedupQuantum  = time.Millisecond
	speedupShardMax = 8
)

// RunSpeedupCurve measures the fixed workload at 1, 2, 4 and 8 shards.
func RunSpeedupCurve() (*SpeedupCurve, error) {
	curve := &SpeedupCurve{
		Groups:          speedupGroups,
		ClientsPerGroup: speedupClients,
		OpsPerClient:    speedupOps,
		QuantumUS:       int64(speedupQuantum / time.Microsecond),
	}
	for shards := 1; shards <= speedupShardMax; shards *= 2 {
		p, err := runSpeedupPoint(shards)
		if err != nil {
			return nil, fmt.Errorf("speedup point shards=%d: %w", shards, err)
		}
		if len(curve.Points) > 0 {
			if base := curve.Points[0]; base.VirtualUS > 0 && p.VirtualUS > 0 {
				p.VirtualSpeedupX = float64(base.VirtualUS) / float64(p.VirtualUS)
			}
		} else {
			p.VirtualSpeedupX = 1
		}
		curve.Points = append(curve.Points, p)
	}
	return curve, nil
}

// shardGroup is one connection group of a sharded sweep: a
// record/replay-duo kvstore world with its own recorder and client
// metrics.
type shardGroup struct {
	w   *world
	rec *obs.Recorder
	m   *Metrics
}

// placeGroups builds the fixed workload of a sharded sweep without
// running it (callers time ss.Run alone): groups Varan-2 kvstore worlds
// placed round-robin on ss's shards, each loaded by clients bounded
// closed-loop clients of ops operations and torn down by its own driver
// once they finish. Groups never interact, so a sweep measures pure
// shard-parallel throughput.
func placeGroups(ss *sim.ShardedScheduler, groups, clients, ops int) []*shardGroup {
	target := RedisTarget()
	out := make([]*shardGroup, groups)
	for g := range out {
		s := ss.Shard(g % ss.Shards())
		gr := &shardGroup{rec: obs.New(s.Now, obs.Options{}), m: NewMetrics(0)}
		gr.w = buildOn(s, target, ModeVaran2, 256, gr.rec)
		out[g] = gr
		// left is only touched from this shard's scheduler, so the
		// driver's poll is shard-local state, not cross-thread sharing.
		left := clients
		for i := 0; i < clients; i++ {
			seed := int64(1000*g + i)
			gr.w.clients = append(gr.w.clients, s.Go(fmt.Sprintf("g%d-client%d", g, i), func(tk *sim.Task) {
				defer func() { left-- }()
				KVWorkload{Port: kvstore.Port, Flavor: FlavorRESP, Seed: seed, MaxOps: ops}.Run(gr.w.k, tk, gr.m, &gr.w.stop)
			}))
		}
		s.Go(fmt.Sprintf("g%d-driver", g), func(tk *sim.Task) {
			for left > 0 {
				tk.Sleep(time.Millisecond)
			}
			gr.w.teardown()
		})
	}
	return out
}

// runSpeedupPoint executes the fixed workload at one shard count;
// TotalOps must come out identical at every shard count.
func runSpeedupPoint(shards int) (SpeedupPoint, error) {
	ss := sim.NewSharded(shards, speedupQuantum)
	groups := placeGroups(ss, speedupGroups, speedupClients, speedupOps)
	if err := ss.Run(); err != nil {
		return SpeedupPoint{}, err
	}

	p := SpeedupPoint{
		Shards:     shards,
		Dispatches: ss.Dispatches(),
		VirtualUS:  int64(ss.Now() / time.Microsecond),
	}
	merged := obs.NewRegistry("")
	for _, gr := range groups {
		p.TotalOps += gr.m.Ops
		gr.rec.Root().MergeInto(merged)
	}
	p.Syscalls = merged.Counter(obs.CSyscallsSingle) +
		merged.Counter(obs.CSyscallsLeader) +
		merged.Counter(obs.CSyscallsFollower)
	return p, nil
}

// ShardDetSchemaID names the sharded-determinism report format.
const ShardDetSchemaID = "mvedsua-sharddet/v1"

// ShardDetGroup is one connection group's outcome in the determinism
// smoke: its placement, final stage, lifecycle counters, the
// controller's timeline (Lifecycle, each entry's µs time, stage, kind
// and note) and the recorder's milestones (Timeline).
type ShardDetGroup struct {
	Group     int      `json:"group"`
	Shard     int      `json:"shard"`
	Scope     string   `json:"scope"`
	Outcome   string   `json:"outcome"`
	Updates   int64    `json:"updates"`
	Commits   int64    `json:"commits"`
	Lifecycle []string `json:"lifecycle"`
	Timeline  []string `json:"timeline"`
}

// ShardDetReport is the `benchtool -experiment sharddet` artifact. It
// exercises every determinism-critical path at once — parallel shards,
// a cross-shard Send steering a remote update, per-group registries
// merged into one aggregate, and the merged dispatch tail — and is
// byte-identical across runs, whatever the OS interleaving of its shards.
type ShardDetReport struct {
	Schema     string          `json:"schema"`
	Shards     int             `json:"shards"`
	QuantumUS  int64           `json:"quantum_us"`
	VirtualMS  int64           `json:"virtual_ms"`
	Dispatches int64           `json:"dispatches"`
	Groups     []ShardDetGroup `json:"groups"`
	Merged     obs.Snapshot    `json:"merged_metrics"`
	TraceTail  []string        `json:"trace_tail"`
}

// RunShardDetReport runs two kvstore duo-update lifecycles on two
// shards. Group 0 drives its own update to commit, then triggers group
// 1's update with a cross-shard message — the remote lifecycle starts
// at a deterministic virtual time sequenced by the epoch barrier, never
// by OS thread interleaving.
func RunShardDetReport() (*ShardDetReport, error) {
	const shards, groups = 2, 2
	sw := apptest.NewShardedWorld(shards, groups)
	traceTail := recordTraceTail(sw.SS)

	for _, w := range sw.Worlds {
		w.C.Start(redis())
	}
	// drive spawns group g's driver with a connected client.
	drive := func(g int, body func(w *apptest.World, tk *sim.Task, c *apptest.Client)) {
		w := sw.Worlds[g]
		w.S.Go(fmt.Sprintf("g%d-driver", g), func(tk *sim.Task) {
			defer w.Finish()
			c := apptest.Connect(w.K, tk, kvstore.Port)
			defer c.Close(tk)
			body(w, tk, c)
		})
	}
	update := func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		lifecycle(w.C, func(n int) { incr(tk, c, n) })
	}

	// Group 1 waits for the cross-shard trigger; the flag is only ever
	// touched from shard 1's scheduler.
	var triggered bool
	drive(1, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		for !triggered {
			c.Do(tk, "INCR warm")
			tk.Sleep(10 * time.Millisecond)
		}
		update(w, tk, c)
	})
	drive(0, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		update(w, tk, c)
		sw.SS.Send(tk, 1, "g0-trigger", func(*sim.Task) { triggered = true })
	})

	if err := sw.Run(); err != nil {
		return nil, err
	}

	report := &ShardDetReport{
		Schema:     ShardDetSchemaID,
		Shards:     shards,
		QuantumUS:  int64(sw.SS.Quantum() / time.Microsecond),
		VirtualMS:  int64(sw.SS.Now() / time.Millisecond),
		Dispatches: sw.SS.Dispatches(),
		Merged:     sw.MergedMetrics().Snapshot(),
		TraceTail:  traceTail(),
	}
	for g, w := range sw.Worlds {
		gr := ShardDetGroup{
			Group:   g,
			Shard:   sw.ShardOf(g),
			Scope:   fmt.Sprintf("shard%d", sw.ShardOf(g)),
			Outcome: fmt.Sprintf("%v leader=%s", w.Final().Stage, w.Final().Leader),
			Updates: w.Rec.Counter(obs.CCoreUpdates),
			Commits: w.Rec.Counter(obs.CCoreCommits),
		}
		for _, e := range w.C.Timeline() {
			gr.Lifecycle = append(gr.Lifecycle, fmt.Sprintf("[%10.6fs] %-16v kind=%d %s", e.At.Seconds(), e.Stage, e.Kind, e.Note))
		}
		for _, e := range w.Rec.Milestones() {
			gr.Timeline = append(gr.Timeline, e.String())
		}
		report.Groups = append(report.Groups, gr)
	}
	return report, nil
}

// traceTailLen is how many of each shard's last dispatches the sharddet
// report's trace tail keeps.
const traceTailLen = 64

// recordTraceTail observes every shard's dispatches through OnSlice and
// returns the trace tail: each shard's last traceTailLen dispatches,
// merged into one timeline ordered by (virtual µs, shard, dispatch
// order) and written "s<shard>|<µs>:<task>". The order depends on
// virtual time alone, so two runs give the same tail.
func recordTraceTail(ss *sim.ShardedScheduler) func() []string {
	type dispatch struct {
		us    int64
		shard int
		task  string
	}
	shards := make([][]dispatch, ss.Shards())
	for i := range shards {
		sh := ss.Shard(i)
		prev := sh.OnSlice
		sh.OnSlice = func(task string, start, end time.Duration) {
			if prev != nil {
				prev(task, start, end)
			}
			shards[i] = append(shards[i], dispatch{int64(start / time.Microsecond), i, task})
		}
	}
	return func() []string {
		var tail []dispatch
		for _, d := range shards {
			tail = append(tail, d[max(0, len(d)-traceTailLen):]...)
		}
		// Stable: ties keep shard order, then each shard's own order.
		sort.SliceStable(tail, func(a, b int) bool { return tail[a].us < tail[b].us })
		lines := make([]string, len(tail))
		for j, d := range tail {
			lines[j] = fmt.Sprintf("s%d|%d:%s", d.shard, d.us, d.task)
		}
		return lines
	}
}

// FormatSpeedupCurve renders the sweep as text.
func FormatSpeedupCurve(c *SpeedupCurve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shard speedup sweep: %d groups x %d clients x %d ops, quantum %dus\n",
		c.Groups, c.ClientsPerGroup, c.OpsPerClient, c.QuantumUS)
	b.WriteString("  Shards  TotalOps  Syscalls  Dispatches  Virtual-us  V-speedup\n")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "  %6d  %8d  %8d  %10d  %10d  %8.2fx\n",
			p.Shards, p.TotalOps, p.Syscalls, p.Dispatches, p.VirtualUS, p.VirtualSpeedupX)
	}
	b.WriteString("  (virtual time; the wall-clock sweep is `go test -bench ShardSpeedup ./internal/bench/`)\n")
	return b.String()
}

// FormatShardDetReport renders the determinism smoke for the terminal.
func FormatShardDetReport(r *ShardDetReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded determinism smoke (%s): %d shards, quantum %dus, %dms virtual, %d dispatches\n",
		r.Schema, r.Shards, r.QuantumUS, r.VirtualMS, r.Dispatches)
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "  group %d on shard %d (%s): %s  updates=%d commits=%d\n",
			g.Group, g.Shard, g.Scope, g.Outcome, g.Updates, g.Commits)
		for _, line := range g.Lifecycle {
			b.WriteString("    " + line + "\n")
		}
		for _, line := range g.Timeline {
			b.WriteString("    " + line + "\n")
		}
	}
	fmt.Fprintf(&b, "  merged trace tail: %d entries\n", len(r.TraceTail))
	return b.String()
}
