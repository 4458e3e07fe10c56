package apptest

import (
	"fmt"

	"mvedsua/internal/core"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// This file is the application-level face of the sharded runtime: it
// places whole worlds (kernel + controller + clients) on the shards of
// a sim.ShardedScheduler, so an mve scenario can spread its variant
// populations across simulated cores while staying bit-for-bit
// deterministic.

// NewWorldOn builds a World on an existing scheduler instead of a fresh
// one — the shard-placement primitive. Several worlds may share one
// scheduler (the controller chains crash handlers for exactly this);
// each gets its own kernel, controller and — unless cfg.Recorder is set
// — its own flight recorder bound to that scheduler's clock.
func NewWorldOn(s *sim.Scheduler, cfg core.Config) *World {
	k := vos.NewKernel(s)
	cfg.Recorder = wireRecorder(s, cfg.Recorder)
	return &World{S: s, K: k, C: core.New(k, cfg), Rec: cfg.Recorder, dsu: cfg.DSU}
}

// ShardedWorld runs G connection groups — each a full World — across
// the shards of one deterministic parallel runtime. Placement is static
// round-robin (group g lands on shard g % N), fixed before the run, so
// the same build is reproducible at any shard count.
type ShardedWorld struct {
	SS     *sim.ShardedScheduler
	Worlds []*World
}

// NewShardedWorld builds `groups` default-configured worlds over
// `shards` shards with sim.DefaultQuantum epochs. Each world owns its
// recorder, so its counters are its group's ledger.
func NewShardedWorld(shards, groups int) *ShardedWorld {
	ss := sim.NewSharded(shards, sim.DefaultQuantum)
	sw := &ShardedWorld{SS: ss}
	for g := 0; g < groups; g++ {
		sw.Worlds = append(sw.Worlds, NewWorldOn(ss.Shard(g%ss.Shards()), core.Config{}))
	}
	return sw
}

// ShardOf returns the shard a group was placed on.
func (sw *ShardedWorld) ShardOf(group int) int { return group % sw.SS.Shards() }

// Run executes all groups until each has been finished (or runDeadline
// passes), installing the same teardown task World.Run uses, one per
// group, then drives the sharded runtime to drain.
func (sw *ShardedWorld) Run() error {
	for g, w := range sw.Worlds {
		w.S.Go(fmt.Sprintf("apptest/teardown%d", g), w.teardown)
	}
	return sw.SS.Run()
}

// MergedMetrics folds every group's root registry into one aggregate,
// in group order. The merge algebra (counters sum, gauges max,
// histograms widen) is commutative and associative, so the aggregate is
// identical at any shard count for the same workload — the property the
// perf experiment's TotalOps/Syscalls invariants lean on.
func (sw *ShardedWorld) MergedMetrics() *obs.Registry {
	dst := obs.NewRegistry("")
	for _, w := range sw.Worlds {
		w.Rec.Root().MergeInto(dst)
	}
	return dst
}
