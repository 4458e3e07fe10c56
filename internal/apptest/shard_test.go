package apptest

import (
	"fmt"
	"testing"

	"mvedsua/internal/sim"
)

// buildEchoGroups places `groups` echo-server worlds over `shards`
// shards and starts one client per group doing `ops` echo round trips.
// Each client finishes its own world when done (shard-local, no
// cross-shard coordination needed), and per-group replies land in
// replies — indexed by group, written only from that group's shard.
func buildEchoGroups(shards, groups, ops int) (*ShardedWorld, []int) {
	replies := make([]int, groups)
	sw := NewShardedWorld(shards, groups)
	for g, w := range sw.Worlds {
		g, w := g, w
		w.C.Start(&echoServer{})
		w.S.Go(fmt.Sprintf("client%d", g), func(tk *sim.Task) {
			defer w.Finish()
			c := Connect(w.K, tk, 4242)
			defer c.Close(tk)
			for i := 0; i < ops; i++ {
				if c.Do(tk, fmt.Sprintf("g%d-op%d", g, i)) != "" {
					replies[g]++
				}
			}
		})
	}
	return sw, replies
}

func TestShardedWorldEchoAcrossShards(t *testing.T) {
	const groups, ops = 4, 16
	sw, replies := buildEchoGroups(2, groups, ops)
	if err := sw.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for g, n := range replies {
		if n != ops {
			t.Errorf("group %d: %d/%d replies", g, n, ops)
		}
	}
	// Placement is round-robin.
	for g := range sw.Worlds {
		if want := g % 2; sw.ShardOf(g) != want {
			t.Errorf("ShardOf(%d) = %d, want %d", g, sw.ShardOf(g), want)
		}
	}
}

// The merged aggregate must be identical at any shard count: same
// groups, same workload, only the placement changes.
func TestShardedWorldMergeInvariantAcrossShardCounts(t *testing.T) {
	const groups, ops = 4, 12
	var base map[string]int64
	for _, shards := range []int{1, 2, 4} {
		sw, _ := buildEchoGroups(shards, groups, ops)
		if err := sw.Run(); err != nil {
			t.Fatalf("shards=%d Run: %v", shards, err)
		}
		got := sw.MergedMetrics().Snapshot().Counters
		if base == nil {
			base = got
			if len(base) == 0 {
				t.Fatal("merged registry recorded no counters")
			}
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("shards=%d merged counter set %v, want %v", shards, got, base)
		}
		for k, v := range base {
			if got[k] != v {
				t.Errorf("shards=%d merged %s = %d, want %d", shards, k, got[k], v)
			}
		}
	}
}
