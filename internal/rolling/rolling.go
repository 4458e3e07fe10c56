// Package rolling implements the industry-standard rolling upgrade the
// paper argues against for stateful services (§1.1, §2.2), so the
// trade-offs can be measured instead of asserted.
//
// A Cluster is a set of sharded key-value nodes. Three upgrade
// strategies are provided:
//
//   - StrategyStateless: stop, patch, restart each node — in-memory
//     state is dropped (the §2.2 failure mode: "ultimately, individual
//     nodes must be restarted, and if these are stateful, that state
//     will be lost").
//   - StrategyCheckpoint: checkpoint state on shutdown and restore on
//     restart — no loss, but the node is down for a time proportional
//     to its state size (the paper's Redis example: 28s for a 10GB
//     heap).
//   - StrategyMVEDSUA: each node updates in place under its own MVEDSUA
//     controller — no loss and no downtime.
//
// Nodes are replaced blue/green style: the new instance binds a fresh
// port and the routing table is swapped, as a rolling upgrade of
// container replicas would.
package rolling

import (
	"fmt"
	"time"

	"mvedsua/internal/sysabi"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// Strategy selects how the cluster is upgraded.
type Strategy int

// Upgrade strategies.
const (
	StrategyStateless Strategy = iota
	StrategyCheckpoint
	StrategyMVEDSUA
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyStateless:
		return "rolling (stateless restart)"
	case StrategyCheckpoint:
		return "rolling (checkpoint/restore)"
	case StrategyMVEDSUA:
		return "per-node MVEDSUA"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// CheckpointPerEntry is the virtual time to persist + restore one store
// entry during a checkpointed restart (dump and load).
const CheckpointPerEntry = 10 * time.Microsecond

// Node is one cluster member.
type Node struct {
	ID   int
	Port int64

	app *kvstore.Server
	// exactly one of rt (rolling strategies) or ctl (MVEDSUA) is set.
	rt  *dsu.Runtime
	ctl *core.Controller

	gen int // restart generation; each restart binds a fresh port
}

// Version returns the node's currently running version.
func (n *Node) Version() string {
	if n.ctl != nil {
		return n.ctl.LeaderRuntime().App().Version()
	}
	return n.rt.App().Version()
}

// Cluster is a sharded key-value service.
type Cluster struct {
	sched    *sim.Scheduler
	kernel   *vos.Kernel
	strategy Strategy
	nodes    []*Node
}

// BasePort is node 0's first port; node i generation g listens on
// BasePort + i + 1000*g.
const BasePort = 7000

// NewCluster builds and starts n nodes running version on the kernel's
// scheduler.
func NewCluster(k *vos.Kernel, n int, version string, strategy Strategy) *Cluster {
	c := &Cluster{sched: k.Scheduler(), kernel: k, strategy: strategy}
	for i := 0; i < n; i++ {
		node := &Node{ID: i, Port: BasePort + int64(i)}
		c.nodes = append(c.nodes, node)
		c.startNode(node, kvstore.New(kvstore.SpecFor(version, false)))
	}
	return c
}

// startNode boots app as the node's serving process on node.Port: nodes
// are ordinary kvstore servers, distinguished only by their listening
// port.
func (c *Cluster) startNode(node *Node, app *kvstore.Server) {
	app.ListenPort = node.Port
	node.app = app
	switch c.strategy {
	case StrategyMVEDSUA:
		node.ctl = core.New(c.kernel, core.Config{})
		node.ctl.Start(app)
	default:
		node.rt = dsu.NewRuntime(c.sched, app, dsu.Config{
			Name:       fmt.Sprintf("node%d-g%d", node.ID, node.gen),
			Dispatcher: c.kernel,
		})
		node.rt.Start()
	}
}

// Nodes returns the cluster members.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// PortFor returns the current port serving the shard for key.
func (c *Cluster) PortFor(key string) int64 {
	return c.nodes[shardOf(key, len(c.nodes))].Port
}

func shardOf(key string, n int) int {
	// FNV-1a, which spreads short numeric suffixes well.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// UpgradeAll upgrades every node in turn to the target version; t is
// the orchestrating task (the operator). For rolling strategies each
// node is stopped and replaced; for MVEDSUA each node runs the full
// update/promote/commit lifecycle while serving.
func (c *Cluster) UpgradeAll(t *sim.Task, from, to string, settle time.Duration) error {
	for _, node := range c.nodes {
		if err := c.upgradeNode(t, node, from, to); err != nil {
			return err
		}
		t.Sleep(settle) // the "rolling" pacing between nodes
	}
	return nil
}

func (c *Cluster) upgradeNode(t *sim.Task, node *Node, from, to string) error {
	switch c.strategy {
	case StrategyMVEDSUA:
		return c.upgradeMVEDSUA(t, node, from, to)
	default:
		return c.upgradeRestart(t, node, to)
	}
}

// upgradeRestart is the rolling path: stop the node (dropping or
// checkpointing state), then start the new version on a fresh port and
// swap the routing entry.
func (c *Cluster) upgradeRestart(t *sim.Task, node *Node, to string) error {
	old := node.app
	// Drain & stop: the node disappears; in-flight clients see resets,
	// as the dying process's descriptors are closed by the kernel.
	node.rt.KillAll()
	for _, fd := range old.NetworkFDs() {
		c.kernel.Invoke(t, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	}

	var restored *kvstore.Server
	downFor := 50 * time.Millisecond // stop/patch/start floor
	if c.strategy == StrategyCheckpoint {
		// Persist and re-load the whole store: the §2.2 pause.
		downFor += time.Duration(old.DBSize()) * CheckpointPerEntry
		restored = old.Fork().(*kvstore.Server)
		restored.ResetSessions()
	}
	t.Sleep(downFor)

	node.gen++
	node.Port = BasePort + int64(node.ID) + 1000*int64(node.gen)
	app := kvstore.New(kvstore.SpecFor(to, false))
	if restored != nil {
		app.AdoptState(restored)
	}
	c.startNode(node, app)
	return nil
}

// upgradeMVEDSUA runs the in-place MVEDSUA lifecycle on the node. The
// node keeps serving throughout; no routing change is needed.
func (c *Cluster) upgradeMVEDSUA(t *sim.Task, node *Node, from, to string) error {
	v := kvstore.Update(from, to, kvstore.UpdateOpts{})
	if !node.ctl.Update(v) {
		return fmt.Errorf("node %d: update rejected", node.ID)
	}
	deadline := t.Now() + 30*time.Second
	for node.ctl.Stage() != core.StageOutdatedLeader {
		if t.Now() > deadline {
			return fmt.Errorf("node %d: update never installed (stage %v)", node.ID, node.ctl.Stage())
		}
		t.Sleep(10 * time.Millisecond)
	}
	// A short warmup period of validation, then promote and commit.
	t.Sleep(100 * time.Millisecond)
	node.ctl.Promote()
	for node.ctl.Stage() != core.StageUpdatedLeader {
		if t.Now() > deadline {
			return fmt.Errorf("node %d: promotion stuck (stage %v)", node.ID, node.ctl.Stage())
		}
		t.Sleep(10 * time.Millisecond)
	}
	t.Sleep(50 * time.Millisecond)
	node.ctl.Commit()
	return nil
}

// Teardown kills all node tasks so the scheduler can drain.
func (c *Cluster) Teardown() {
	for _, node := range c.nodes {
		if node.ctl != nil {
			node.ctl.Shutdown()
		} else if node.rt != nil {
			node.rt.KillAll()
		}
	}
}
