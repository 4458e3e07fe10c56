package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one reported number with the spread it was measured with.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Clock   string    `json:"clock"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

// report is one run of one workload.
type report struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Traced      bool              `json:"traced"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Reps        int               `json:"repetitions"`
	Discarded   int               `json:"discarded"`
	VirtDigest  string            `json:"virt_digest"`
	Metrics     map[string]metric `json:"metrics"`
}

// run holds one run's state: the repetitions kept so far and the
// disturbance guard's view of the machine.
type run struct {
	w     workload
	seed  uint64
	log   io.Writer
	spans *spanLog
	root  int

	bestCalib time.Duration
	lastCalib time.Duration
	discarded int
	reps      int
	first     *repResult // every later repetition must match its exact fields
	attempted int64
	failed    int64
}

// rep runs one guarded repetition: a repetition whose bracketing
// calibration ran more than calibTolerance slower than the run's best
// is discarded and repeated, at most maxDiscards times per run.
func (r *run) rep(label string, traced bool) (*repResult, error) {
	for {
		id := r.spans.begin(fmt.Sprintf("rep[%d] %s", r.reps, label), r.root)
		res, err := runRep(r.w, r.seed, traced, r.spans, id)
		r.spans.end(id)
		r.reps++
		if err != nil {
			return nil, err
		}
		before, after := r.lastCalib, calibrate()
		r.lastCalib = after
		r.bestCalib = min(r.bestCalib, after)
		r.attempted += res.ops
		r.failed += res.failed
		if r.first == nil {
			r.first = res
		} else if res.digest() != r.first.digest() {
			return nil, fmt.Errorf("%s: %s repetition is not the simulation the first was:\n  first: %s %v\n  this:  %s %v",
				r.w.name, label, r.first.describe(), r.first.counts, res.describe(), res.counts)
		}
		worst := max(before, after)
		fmt.Fprintf(r.log, "# rep[%d] %-12s %10.1f host ns/op  cpu %10.1f ns/op (%4.1f%% sys)  setup %.3fs  calibration %v/%v\n",
			r.reps-1, label, float64(res.wallNS)/float64(res.ops), float64(res.cpuNS)/float64(res.ops),
			ratio(float64(res.sysNS), float64(res.cpuNS))*100, res.setupS, before.Round(time.Microsecond), after.Round(time.Microsecond))
		if float64(worst) <= float64(r.bestCalib)*(1+calibTolerance) || r.discarded >= maxDiscards {
			return res, nil
		}
		r.discarded++
		fmt.Fprintf(r.log, "# discarded %s repetition: calibration %v vs best %v (%d of at most %d)\n",
			label, worst, r.bestCalib, r.discarded, maxDiscards)
	}
}

// measure runs one workload. With traceDir empty it measures the
// end-to-end metrics for about `seconds`; otherwise it makes the traced
// run: a short untraced baseline, one repetition with every recorder
// on, one at the other GOMAXPROCS, then the probes, and writes the
// trace files into traceDir.
func measure(w workload, seed uint64, seconds float64, traceDir string, log io.Writer) (*report, error) {
	// OS parallelism is part of the workload's definition and recorded in
	// the fingerprint.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	spans := &spanLog{}
	r := &run{w: w, seed: seed, log: log, spans: spans, root: spans.begin("run", -1)}
	rp := &report{Workload: w.name, Seed: seed, Traced: traceDir != "", Fingerprint: takeFingerprint(), Metrics: map[string]metric{}}
	fmt.Fprintf(log, "# %s seed=%d %s\n", w.name, seed, rp.Fingerprint)
	r.bestCalib = calibrate()
	r.lastCalib = r.bestCalib

	if _, err := r.rep("warm-up", false); err != nil { // JIT-free, but heap and page cache are not
		return nil, err
	}
	var kept []*repResult
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(kept) < 3 || (!rp.Traced && time.Now().Before(deadline)) {
		res, err := r.rep("timed", false)
		if err != nil {
			return nil, err
		}
		kept = append(kept, res)
	}
	endToEndMetrics(rp, kept)

	if rp.Traced {
		traced, err := r.rep("traced", true)
		if err != nil {
			return nil, err
		}
		// The same repetition at the other parallelism: min(nproc, 4) for
		// the workloads timed at 1, and 1 for the sharded one.
		other := 1
		if w.procs() == 1 {
			other = multiProcs()
		}
		runtime.GOMAXPROCS(other)
		flipped, err := r.rep(fmt.Sprintf("GOMAXPROCS=%d", other), false)
		runtime.GOMAXPROCS(w.procs())
		if err != nil {
			return nil, err
		}
		id := spans.begin("probes", r.root)
		vals := runProbes(spans, id)
		spans.end(id)
		layerMetrics(rp, kept, traced, flipped, vals)
		spans.end(r.root)
		if err := writeTraces(traceDir, traced, spans); err != nil {
			return nil, err
		}
		if t := traced.traced; t.spansDropped > 0 || t.traceDropped > 0 {
			fmt.Fprintf(log, "# WARNING: bounded recorder stores evicted %d span events and %d hot trace events; the virtual trace file holds the newest window only\n",
				t.spansDropped, t.traceDropped)
		}
	}
	rp.Reps, rp.Discarded = r.reps, r.discarded
	rp.Attempted, rp.Failed = r.attempted, r.failed
	rp.Correct = r.failed == 0
	rp.VirtDigest = r.first.digest()
	return rp, nil
}

// spread fills a metric from per-repetition samples: median and
// quartiles.
func spread(def metricDef, samples []float64) metric {
	q1, med, q3 := quartiles(samples)
	return metric{Value: med, Unit: def.unit, Clock: def.clock, Q1: q1, Q3: q3, Samples: samples}
}

// best is spread for host *times*: the value is the fastest repetition,
// the quartiles still describe all of them. On a shared machine
// disturbances (a neighbour's cache traffic, a descheduled vCPU) come
// in bursts and only ever add time, so the minimum estimates what the
// code costs and the median what the neighbours were doing: over ten
// 10 s runs on the 2-core box this was written on, the medians' quartile
// spread was 4–36 % and the minima's 4–7 %.
func best(def metricDef, samples []float64) metric {
	m := spread(def, samples)
	m.Value = slices.Min(samples)
	return m
}

func exact(def metricDef, v float64) metric {
	return metric{Value: v, Unit: def.unit, Clock: def.clock, Q1: v, Q3: v}
}

func hostNSPerOp(r *repResult) float64 { return float64(r.wallNS) / float64(r.ops) }

func perRep(kept []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(kept))
	for i, r := range kept {
		out[i] = f(r)
	}
	return out
}

func endToEndMetrics(rp *report, kept []*repResult) {
	v := kept[0].virt
	values := map[string]interface{}{
		"setup_s":              perRep(kept, func(r *repResult) float64 { return r.setupS }),
		"host_ns_per_op":       perRep(kept, hostNSPerOp),
		"host_cpu_ns_per_op":   perRep(kept, func(r *repResult) float64 { return float64(r.cpuNS) / float64(r.ops) }),
		"allocs_per_op":        perRep(kept, func(r *repResult) float64 { return float64(r.mallocs) / float64(r.ops) }),
		"alloc_bytes_per_op":   perRep(kept, func(r *repResult) float64 { return float64(r.allocBytes) / float64(r.ops) }),
		"peak_rss_mib":         peakRSSMiB(),
		"virt_ops_per_s":       v.opsPerS,
		"virt_mean_latency_us": v.meanUS,
		"virt_max_latency_us":  v.maxUS,
	}
	for _, def := range endToEnd {
		switch x := values[def.name].(type) {
		case []float64:
			if def.unit == "s" || def.unit == "ns" {
				rp.Metrics[def.name] = best(def, x)
			} else {
				rp.Metrics[def.name] = spread(def, x)
			}
		case float64:
			rp.Metrics[def.name] = exact(def, x)
		}
	}
}

// layerMetrics derives every per-layer metric. Per-op ratios use the
// timed section (ops = timed client ops); lifecycle facts (core.*, the
// dsu histograms) cover the whole traced repetition.
func layerMetrics(rp *report, kept []*repResult, traced, flipped *repResult, probeVals map[string]float64) {
	base, t := kept[0], traced.traced
	ops := float64(base.ops)
	cnt := func(name string) float64 { return float64(base.counts[name]) }
	win := func(name string) float64 { return float64(t.window["obs:"+name]) }
	hostNS := median(perRep(kept, hostNSPerOp))
	// Cost of running on several Ps relative to one; flipped ran at the
	// parallelism the timed repetitions did not.
	xthread := hostNSPerOp(flipped)/hostNS - 1
	if rp.Fingerprint.GOMAXPROCS > 1 {
		xthread = hostNS/hostNSPerOp(flipped) - 1
	}
	procs := float64(rp.Fingerprint.GOMAXPROCS)
	var roleTotal float64
	for _, ns := range t.roleNS {
		roleTotal += float64(ns)
	}
	sysCalls := t.hists["sysabi.single"].count + t.hists["sysabi.leader"].count
	sysNS := t.hists["sysabi.single"].sumNS + t.hists["sysabi.leader"].sumNS
	validate := float64(t.activityNS["cpu:validate"] + t.activityNS["off:validate"])

	v := map[string]float64{
		"client.virt_p50_latency_us":  base.virt.p50US,
		"client.virt_p999_latency_us": base.virt.p999US,

		"sim.dispatches_per_op":    cnt("sim.dispatches") / ops,
		"sim.host_ns_per_dispatch": median(perRep(kept, func(r *repResult) float64 { return ratio(float64(r.wallNS), cnt("sim.dispatches")) })),
		"sim.gc_cycles_per_kop":    median(perRep(kept, func(r *repResult) float64 { return float64(r.gcCycles) / ops * 1e3 })),
		"sim.sys_cpu_share_pct":    median(perRep(kept, func(r *repResult) float64 { return ratio(float64(r.sysNS), float64(r.cpuNS)) * 100 })),
		"sim.xthread_tax_pct":      xthread * 100,
		"sim.parallel_cpu_util_pct": median(perRep(kept, func(r *repResult) float64 {
			return ratio(float64(r.cpuNS), float64(r.wallNS)*procs) * 100
		})),
		"sim.shard_busy_share_pct":          ratio(float64(t.busyNS), float64(t.spanNS)) * 100,
		"sim.slice_host_share_client_pct":   ratio(float64(t.roleNS[roleClient]), roleTotal) * 100,
		"sim.slice_host_share_leader_pct":   ratio(float64(t.roleNS[roleLeader]), roleTotal) * 100,
		"sim.slice_host_share_follower_pct": ratio(float64(t.roleNS[roleFollower]), roleTotal) * 100,
		"sim.slice_host_share_other_pct":    ratio(float64(t.roleNS[roleOther]), roleTotal) * 100,

		"sysabi.calls_per_op":         float64(t.window["shim:calls"]) / ops,
		"sysabi.payload_bytes_per_op": float64(t.window["shim:bytes"]) / ops,

		"vos.net_bytes_per_op": win("vos.net_bytes") / ops,
		"vos.fs_bytes_per_op":  win("vos.fs_bytes") / ops,
		"vos.virt_ns_per_call": ratio(float64(sysNS), float64(sysCalls)),

		"ringbuf.puts_per_op":             win("ringbuf.put") / ops,
		"ringbuf.blocked_per_put":         ratio(win("ringbuf.blocked"), win("ringbuf.put")),
		"ringbuf.highwater":               cnt("ringbuf.highwater"),
		"ringbuf.dropped":                 cnt("ringbuf.dropped"),
		"ringbuf.virt_block_wait_mean_ns": t.hists["ringbuf.block_wait"].meanNS(),

		"mve.recorded_per_op":          cnt("mve.recorded") / ops,
		"mve.replayed_per_recorded":    ratio(cnt("mve.replayed"), cnt("mve.recorded")),
		"mve.divergences":              cnt("mve.divergences"),
		"mve.promotions":               cnt("mve.promotions"),
		"mve.virt_service_ns_per_op":   float64(t.activityNS["cpu:service"]) / ops,
		"mve.virt_validate_ns_per_op":  validate / ops,
		"mve.virt_ring_wait_ns_per_op": float64(t.activityNS["off:ring_wait"]) / ops,
		"mve.virt_validate_lag_p99_us": float64(t.hists["request.validate_lag"].p99NS) / 1e3,

		"dsl.rule_hits_per_op": cnt("dsl.rule_hits") / ops,

		"dsu.update_points_per_op":      win("dsu.update_points") / ops,
		"dsu.virt_quiesce_wait_mean_us": t.hists["dsu.quiesce_wait"].meanNS() / 1e3,
		"dsu.virt_xform_mean_ms":        t.hists["dsu.xform"].meanNS() / 1e6,
		"dsu.probe_fork_alloc_mib":      forkAllocMiB(),

		"core.updates":              float64(t.whole["core.updates"]),
		"core.commits":              float64(t.whole["core.commits"]),
		"core.rollbacks":            float64(t.whole["core.rollbacks"]),
		"core.retries":              float64(t.whole["core.retries"]),
		"core.transitions":          float64(t.whole["core.transitions"]),
		"core.fleet_ejects":         float64(t.whole["core.fleet_ejects"]),
		"core.fleet_respawns":       float64(t.whole["core.fleet_respawns"]),
		"core.virt_update_total_ms": ratio(cnt("core.update_total_ns"), float64(t.whole["core.commits"])) / 1e6,

		"obs.trace_overhead_pct": (hostNSPerOp(traced)/hostNS - 1) * 100,
		"obs.spans_dropped":      float64(t.spansDropped),
		"obs.trace_dropped":      float64(t.traceDropped),
	}
	for name, val := range probeVals {
		v[name] = val
	}
	for _, def := range layerDefs() {
		val, ok := v[def.name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			panic("benchmark: per-layer metric " + def.name + " has no value")
		}
		rp.Metrics[def.name] = exact(def, val)
	}
}

// writeTraces writes the traced run's files: the benchmark's own
// host-clock spans, and the program's virtual-clock spans and profile.
func writeTraces(dir string, traced *repResult, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	host, err := spans.chromeJSON()
	if err != nil {
		return err
	}
	virt, folded, err := traced.export()
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		"host_trace.json": host, "virt_trace.json": virt, "virt_profile.folded": []byte(folded),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// print writes the human-readable table: every metric by name with its
// unit, clock, quartiles and sample count.
func (rp *report) print(w io.Writer) {
	names := make([]string, 0, len(rp.Metrics))
	for n := range rp.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rp.Metrics[n]
		fmt.Fprintf(w, "%-44s %16.6g %-5s %-5s", n, m.Value, m.Unit, m.Clock)
		if len(m.Samples) > 0 {
			_, med, _ := quartiles(m.Samples)
			fmt.Fprintf(w, " q1=%.6g median=%.6g q3=%.6g spread=%.2f%% n=%d", m.Q1, med, m.Q3, ratio(m.Q3-m.Q1, med)*100, len(m.Samples))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "failed_ops_share %d/%d\n", rp.Failed, rp.Attempted)
	fmt.Fprintf(w, "repetitions=%d discarded=%d virt_digest=%s\n", rp.Reps, rp.Discarded, rp.VirtDigest)
}
