package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// Metrics collects client-side measurements: completed operations,
// maximum latency, and per-bucket throughput samples (Figure 6's
// ops/sec curve and Figure 7's pause measurement).
type Metrics struct {
	Ops        int64
	MaxLatency time.Duration
	BucketSize time.Duration
	buckets    map[int]int64
	epoch      time.Duration
}

// NewMetrics returns a metrics sink with the given throughput bucket
// width (0 disables bucketing).
func NewMetrics(bucket time.Duration) *Metrics {
	return &Metrics{BucketSize: bucket, buckets: make(map[int]int64)}
}

// Reset clears counters and restarts the bucket epoch at now (end of
// warmup).
func (m *Metrics) Reset(now time.Duration) {
	m.Ops = 0
	m.MaxLatency = 0
	m.buckets = make(map[int]int64)
	m.epoch = now
}

// Record accounts one completed operation.
func (m *Metrics) Record(start, end time.Duration) {
	m.Ops++
	if d := end - start; d > m.MaxLatency {
		m.MaxLatency = d
	}
	if m.BucketSize > 0 {
		m.buckets[int((end-m.epoch)/m.BucketSize)]++
	}
}

// Buckets returns per-bucket operation counts from the epoch through the
// last non-empty bucket.
func (m *Metrics) Buckets() []int64 {
	max := -1
	for i := range m.buckets { // maporder: ok — a maximum is order-free
		if i > max {
			max = i
		}
	}
	out := make([]int64, max+1)
	for i, n := range m.buckets { // maporder: ok — each count lands at its own index
		if i >= 0 {
			out[i] = n
		}
	}
	return out
}

// Throughput returns ops/sec over the given window.
func (m *Metrics) Throughput(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(m.Ops) / window.Seconds()
}

// KVFlavor selects the wire protocol of the KV workload.
type KVFlavor int

// KV workload flavors.
const (
	FlavorRESP      KVFlavor = iota // kvstore (Redis-like)
	FlavorMemcached                 // memcache text protocol
)

// The Memtier-like mix (§6.1): 90/10 reads/writes of 32-byte values over
// a 10 000-key space, starting from an empty store.
const (
	kvKeys     = 10000
	kvReadPct  = 90
	kvValueLen = 32
)

// KVWorkload is a Memtier-like closed-loop client.
type KVWorkload struct {
	Port   int64
	Flavor KVFlavor
	Seed   int64
	// MaxOps, when positive, bounds the run to that many operations —
	// the fixed-work (strong-scaling) shape the shard speedup sweep
	// needs, where every shard count must execute the same total load.
	// Zero keeps the closed-loop run-until-stopped behavior.
	MaxOps int
}

// Run drives the workload inside a sim task until *stop (or MaxOps
// operations, when bounded), recording into metrics.
func (wl KVWorkload) Run(k *vos.Kernel, tk *sim.Task, m *Metrics, stop *bool) {
	rng := rand.New(rand.NewSource(wl.Seed))
	value := strings.Repeat("x", kvValueLen)
	mcSet, respSet := fmt.Sprintf(" 0 0 %d\r\n%s\r\n", kvValueLen, value), " "+value+"\r\n"
	c := apptest.Connect(k, tk, wl.Port)
	defer c.Close(tk)
	var cmd []byte // the request being sent; its array is reused
	send := func(verb string, key int, tail string) {
		cmd = append(append(cmd[:0], verb...), "memtier-"...)
		for d := 10_000_000; d > 0; d /= 10 { // the key, zero-padded to eight digits
			cmd = append(cmd, byte('0'+key/d%10))
		}
		c.Send(tk, string(append(cmd, tail...)))
	}
	for n := 0; !*stop && (wl.MaxOps <= 0 || n < wl.MaxOps); n++ {
		key := rng.Intn(kvKeys)
		start := tk.Now()
		if rng.Intn(100) < kvReadPct {
			switch wl.Flavor {
			case FlavorMemcached:
				send("get ", key, "\r\n")
				c.DrainUntil(tk, "END\r\n")
			default:
				send("GET ", key, "\r\n")
				c.Recv(tk)
			}
		} else {
			switch wl.Flavor {
			case FlavorMemcached:
				send("set ", key, mcSet)
				c.DrainUntil(tk, "\r\n")
			default:
				send("SET ", key, respSet)
				c.Recv(tk)
			}
		}
		m.Record(start, tk.Now())
	}
}

// FTPWorkload reproduces the paper's Vsftpd benchmark: log in, then
// repeatedly download one file (§6.1).
type FTPWorkload struct {
	Port int64
	File string
}

// Run drives the workload inside a sim task until *stop.
func (wl FTPWorkload) Run(k *vos.Kernel, tk *sim.Task, m *Metrics, stop *bool) {
	c := apptest.Connect(k, tk, wl.Port)
	defer c.Close(tk)
	c.DrainUntil(tk, "\r\n") // banner
	c.Do(tk, "USER anonymous")
	c.Do(tk, "PASS guest")
	for !*stop {
		start := tk.Now()
		c.Send(tk, "RETR "+wl.File+"\r\n")
		if c.DrainUntil(tk, "226 Transfer complete.\r\n") == 0 {
			return
		}
		m.Record(start, tk.Now())
	}
}
