package main

import "runtime"

// appKind selects the server a workload drives.
type appKind int

const (
	appKV  appKind = iota // kvstore (Redis-like, single-threaded epoll loop)
	appMC                 // memcache (4 worker threads on the libevent loop)
	appFTP                // ftpd (bulk RETR transfers)
)

// workload is one frozen set of inputs. Every client is a closed loop:
// it sends its next request only after verifying the previous reply,
// like the paper's Memtier and FTP clients. Sizes are fixed op counts,
// not durations, so every virtual-clock number repeats exactly for a
// seed; --seconds only decides how many repetitions are measured.
type workload struct {
	name string
	why  string
	app  appKind

	shards   int // 0: one plain scheduler; N: sim.NewSharded(N, 1ms)
	groups   int // independent services (one kernel + controller each)
	variants int // >0: core.FleetController with that many replicas

	clients int // per group
	ops     int // timed ops per client
	warmOps int // untimed ops per client, run before the gate opens
	keys    int // key space per group, split disjointly between clients
	preload int // kvstore entries present before the first op
	ring    int // ring entries; 0 selects the controller default (256)

	held    bool // install the next version in warm-up, hold outdated-leader
	train   bool // walk 2.0.0→2.1.0 in the timed section, op-indexed
	fileKiB int  // ftpd: size of the served file
}

// workloads are frozen so one repetition (set-up + timed section +
// teardown) takes roughly 0.4–0.8 s on a 2-core box at the commit that
// introduced the benchmark; a 10 s run then holds 12–20 repetitions.
// Short and many beats long and few here: disturbances on a shared box
// come in bursts of seconds, and only ever add time, so the run reports
// the best repetition (see run.go) and wants many chances at a quiet
// one.
var workloads = []workload{
	{
		name: "kv_single",
		why:  "interception floor: sim+sysabi+vos+app only; ring, validate, dsl and fork do no work, so their optimisations must predict no change here",
		app:  appKV, groups: 1, clients: 2, ops: 75000, warmOps: 5000, keys: 10000,
	},
	{
		name: "mc_duo",
		why:  "record/replay dominated, 4 worker threads, held in outdated-leader: highest dispatches per op and per-tid wait queues",
		app:  appMC, groups: 1, clients: 8, ops: 3500, warmOps: 250, keys: 10000, held: true,
	},
	{
		name: "kv_update_cycle",
		why:  "50k-key store walks the 2.0.0→2.1.0 train on a 256-entry ring: the only workload where fork, xform, dsl rewriting and the stage machine work; max latency is the update pause",
		app:  appKV, groups: 1, clients: 2, ops: 24000, warmOps: 2000, keys: 50000, preload: 50000, ring: 256, train: true,
	},
	{
		name: "kv_fleet_sharded",
		why:  "4 fleet groups (leader + 2 replicas) on 2 shards: epoch barriers, MultiBuffer fan-out and quorum validate instead of one run queue and one ring",
		app:  appKV, shards: 2, groups: 4, variants: 2, clients: 2, ops: 3000, warmOps: 250, keys: 10000,
	},
	{
		name: "ftp_bulk_duo",
		why:  "bytes-bound: 1 MiB RETRs in 4 KiB chunks through vos copies, ring payloads and Clone/Equal in validate, where the others are dispatch-bound",
		app:  appFTP, groups: 1, clients: 2, ops: 70, warmOps: 3, held: true, fileKiB: 1024,
	},
}

// procs is the GOMAXPROCS the workload is timed at. A single scheduler
// runs exactly one task at a time, so more Ps buy it nothing and cost a
// cross-thread handoff tax that is large (+20–45 % at this commit) and
// erratic (it tripled the run-to-run spread on a 2-core box); the four
// single-scheduler workloads are therefore timed at 1 and the tax is
// reported as sim.xthread_tax_pct. The sharded workload needs real
// parallelism and gets min(nproc, 4).
func (w workload) procs() int {
	if w.shards == 0 {
		return 1
	}
	return multiProcs()
}

func multiProcs() int { return min(runtime.NumCPU(), 4) }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload for the unit test: same structure (stages,
// groups, clients, preload ratio) at a few hundred ops.
func (w workload) toy() workload {
	switch w.app {
	case appFTP:
		w.ops, w.fileKiB = 2, 64
	default:
		w.ops, w.warmOps = 400, 40
		if w.train {
			w.ops = 800
		}
		if w.preload > 0 {
			w.preload, w.keys = 2000, 2000
		} else {
			w.keys = 500
		}
	}
	return w
}
