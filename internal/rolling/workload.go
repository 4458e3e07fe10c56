package rolling

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// ClientMetrics aggregates what clients observe across an upgrade.
type ClientMetrics struct {
	Ops        int64
	Errors     int64 // failed/retried operations (connection refused/reset)
	LostKeys   int64 // GETs that missed a key this client had stored
	MaxLatency time.Duration
}

// Client is a sharded-cluster client: it routes each key to its shard's
// current port, reconnects around node restarts, and detects lost
// updates.
type Client struct {
	cluster *Cluster
	kernel  *vos.Kernel
	rng     *rand.Rand

	conns   map[int64]int // port -> fd
	written map[string]string

	// Metrics accumulates observations.
	Metrics ClientMetrics
}

// NewClient builds a deterministic client.
func NewClient(c *Cluster, seed int64) *Client {
	return &Client{
		cluster: c,
		kernel:  c.kernel,
		rng:     rand.New(rand.NewSource(seed)),
		conns:   make(map[int64]int),
		written: make(map[string]string),
	}
}

// dial returns a connection fd for port, or -1 if the node is down.
func (cl *Client) dial(tk *sim.Task, port int64) int {
	if fd, ok := cl.conns[port]; ok {
		return fd
	}
	r := cl.kernel.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{port, 0}})
	if !r.OK() {
		return -1
	}
	cl.conns[port] = int(r.Ret)
	return int(r.Ret)
}

// roundTrip sends one command and reads the reply; "" means failure.
func (cl *Client) roundTrip(tk *sim.Task, fd int, cmd string) string {
	r := cl.kernel.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(cmd + "\r\n")})
	if !r.OK() {
		return ""
	}
	r = cl.kernel.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{4096, 0}})
	if !r.OK() || r.Ret == 0 {
		return ""
	}
	return string(r.Data)
}

// Do executes one command against key's shard, retrying through node
// downtime. It returns the final reply.
func (cl *Client) Do(tk *sim.Task, key, cmd string) string {
	start := tk.Now()
	defer func() {
		if d := tk.Now() - start; d > cl.Metrics.MaxLatency {
			cl.Metrics.MaxLatency = d
		}
	}()
	for attempt := 0; attempt < 1000; attempt++ {
		port := cl.cluster.PortFor(key)
		fd := cl.dial(tk, port)
		if fd < 0 {
			cl.Metrics.Errors++
			tk.Sleep(5 * time.Millisecond)
			continue
		}
		reply := cl.roundTrip(tk, fd, cmd)
		if reply == "" {
			// Connection died (node restarted): reconnect and retry.
			cl.kernel.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
			delete(cl.conns, port)
			cl.Metrics.Errors++
			tk.Sleep(5 * time.Millisecond)
			continue
		}
		cl.Metrics.Ops++
		return reply
	}
	return ""
}

// Step performs one workload operation: 70% GET / 30% SET over a small
// key space, tracking lost updates.
func (cl *Client) Step(tk *sim.Task, keys int) {
	key := fmt.Sprintf("rk-%04d", cl.rng.Intn(keys))
	if cl.rng.Intn(100) < 30 {
		val := fmt.Sprintf("v%06d", cl.rng.Intn(1_000_000))
		if reply := cl.Do(tk, key, "SET "+key+" "+val); strings.HasPrefix(reply, "+OK") {
			cl.written[key] = val
		}
		return
	}
	reply := cl.Do(tk, key, "GET "+key)
	if _, wrote := cl.written[key]; wrote && strings.HasPrefix(reply, "$-1") {
		cl.Metrics.LostKeys++
	}
}

// Close shuts all connections, in port order: each close is a syscall
// the simulation schedules.
func (cl *Client) Close(tk *sim.Task) {
	ports := make([]int64, 0, len(cl.conns))
	for port := range cl.conns { // maporder: ok — ports are sorted below
		ports = append(ports, port)
	}
	slices.Sort(ports)
	for _, port := range ports {
		cl.kernel.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: cl.conns[port]})
		delete(cl.conns, port)
	}
}

// ComparisonResult is one strategy's outcome.
type ComparisonResult struct {
	Strategy   Strategy
	Ops        int64
	Errors     int64
	LostKeys   int64
	MaxLatency time.Duration
	Versions   []string // final per-node versions
}

// Compare upgrades a cluster under live load with each strategy and
// reports what clients experienced — the quantified version of the
// paper's §1.1/§2.2 argument.
func Compare(nodes, preload int, from, to string) ([]ComparisonResult, error) {
	var out []ComparisonResult
	for _, strategy := range []Strategy{StrategyStateless, StrategyCheckpoint, StrategyMVEDSUA} {
		r, err := compareOne(strategy, nodes, preload, from, to)
		if err != nil {
			return out, fmt.Errorf("%v: %w", strategy, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func compareOne(strategy Strategy, nodes, preload int, from, to string) (ComparisonResult, error) {
	s := sim.New()
	k := vos.NewKernel(s)
	cluster := NewCluster(k, nodes, from, strategy)
	for _, node := range cluster.Nodes() {
		node.app.Preload(preload)
	}
	res := ComparisonResult{Strategy: strategy}
	var upgradeErr error
	done := false

	client := NewClient(cluster, 42)
	s.Go("client", func(tk *sim.Task) {
		// Warm the written-set, then keep load on during the upgrade.
		for !done {
			client.Step(tk, 200)
			tk.Sleep(2 * time.Millisecond)
		}
		client.Close(tk)
	})
	s.Go("operator", func(tk *sim.Task) {
		tk.Sleep(200 * time.Millisecond)
		client.Metrics = ClientMetrics{} // measure from the upgrade on
		upgradeErr = cluster.UpgradeAll(tk, from, to, 50*time.Millisecond)
		tk.Sleep(300 * time.Millisecond) // post-upgrade observation
		done = true
		res.Ops = client.Metrics.Ops
		res.Errors = client.Metrics.Errors
		res.LostKeys = client.Metrics.LostKeys
		res.MaxLatency = client.Metrics.MaxLatency
		for _, node := range cluster.Nodes() {
			res.Versions = append(res.Versions, node.Version())
		}
		cluster.Teardown()
	})
	if err := s.Run(); err != nil {
		return res, err
	}
	return res, upgradeErr
}

// FormatComparison renders the strategy comparison.
func FormatComparison(results []ComparisonResult) string {
	var b strings.Builder
	b.WriteString("Rolling upgrade vs MVEDSUA (stateful cluster under live load)\n")
	b.WriteString("  strategy                       ops   errors  lost-keys  max-latency\n")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-28s %6d   %6d     %6d   %8.0f ms\n",
			r.Strategy, r.Ops, r.Errors, r.LostKeys,
			float64(r.MaxLatency)/float64(time.Millisecond))
	}
	b.WriteString("  (the paper's §1.1/§2.2 argument, quantified: restarts drop state\n")
	b.WriteString("   or pause for checkpoint restore; MVEDSUA does neither)\n")
	return b.String()
}
