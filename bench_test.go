// Benchmarks regenerating the paper's evaluation artifacts, one per
// table and figure (§6), plus ablations over MVEDSUA's design choices.
// Each benchmark runs the corresponding experiment in deterministic
// virtual time and reports the headline quantity via b.ReportMetric;
// go test -bench prints them alongside wall-clock cost.
//
// The windows here are sized for iteration speed; cmd/benchtool runs
// the full-scale versions (and fig7 at paper scale with -full).
package mvedsua

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/bench"
	"mvedsua/internal/rolling"
)

// metricName sanitizes a label for b.ReportMetric (no whitespace).
func metricName(parts ...string) string {
	s := strings.Join(parts, "_")
	s = strings.ReplaceAll(s, " ", "-")
	s = strings.ReplaceAll(s, "(", "")
	s = strings.ReplaceAll(s, ")", "")
	return s
}

// BenchmarkTable1VsftpdRules regenerates Table 1: rewrite rules per
// Vsftpd version pair (13 pairs, average 0.85).
func BenchmarkTable1VsftpdRules(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, row := range bench.Table1() {
			total += row.Rules
		}
	}
	b.ReportMetric(float64(total)/13, "rules/update")
}

// BenchmarkTable2SteadyState regenerates Table 2: steady-state
// throughput for every server in every mode; the reported metrics are
// virtual ops/sec and overhead vs native.
func BenchmarkTable2SteadyState(b *testing.B) {
	warmup := 50 * time.Millisecond
	window := 250 * time.Millisecond
	for _, target := range bench.Table2Targets() {
		native := 0.0
		for _, mode := range bench.Modes {
			target, mode := target, mode
			b.Run(target.Name+"/"+mode.String(), func(b *testing.B) {
				var opsPerSec float64
				var err error
				for i := 0; i < b.N; i++ {
					opsPerSec, err = bench.RunSteadyState(target, mode, warmup, window)
					if err != nil {
						b.Fatal(err)
					}
				}
				if mode == bench.ModeNative {
					native = opsPerSec
				}
				b.ReportMetric(opsPerSec, "vops/s")
				if native > 0 {
					b.ReportMetric((1-opsPerSec/native)*100, "overhead%")
				}
			})
		}
	}
}

// BenchmarkFig6UpdateTimeline regenerates Figure 6: throughput while
// updating Memcached and Redis through the full MVEDSUA lifecycle.
// Reported metrics: steady throughput before the update and the minimum
// (validation-stage) throughput — the depth of the Figure 6 dip.
func BenchmarkFig6UpdateTimeline(b *testing.B) {
	cfg := bench.Fig6Config{Total: 2400 * time.Millisecond, Buckets: 12}
	var results []bench.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		results, err = bench.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		if len(r.OpsPerSec) == 0 {
			b.Fatalf("%s: no buckets", r.Target)
		}
		minv := r.OpsPerSec[0]
		for _, v := range r.OpsPerSec {
			if v < minv {
				minv = v
			}
		}
		b.ReportMetric(r.OpsPerSec[0], metricName(r.Target, "steady_vops/s"))
		b.ReportMetric(minv, metricName(r.Target, "dip_vops/s"))
	}
}

// BenchmarkFig7LargeState regenerates Figure 7: the update pause for a
// large store under Kitsune vs MVEDSUA with small/medium/large ring
// buffers. Reported metrics are the max client latencies in virtual ms.
func BenchmarkFig7LargeState(b *testing.B) {
	cfg := bench.Fig7Config{Entries: 1 << 15, PostUpdate: 1500 * time.Millisecond}
	var results []bench.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		results, err = bench.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(float64(r.MaxLatency)/float64(time.Millisecond), metricName(r.Config, "ms"))
	}
}

// BenchmarkFaultRecovery regenerates the §6.2 fault-tolerance results:
// all three fault classes must be tolerated.
func BenchmarkFaultRecovery(b *testing.B) {
	var results []bench.FaultResult
	for i := 0; i < b.N; i++ {
		results = bench.Faults()
	}
	tolerated := 0
	for _, r := range results {
		if r.Tolerated {
			tolerated++
		} else {
			b.Errorf("%s: %s", r.Name, r.Detail)
		}
	}
	b.ReportMetric(float64(tolerated), "faults_tolerated")
}

// BenchmarkAblationLockstep compares MVEDSUA's asynchronous ring-buffer
// design against the MUC/Mx lockstep model the paper's related work
// measures (§7: MUC 23-87% overhead, Mx 3-16x): the leader waits for
// the follower after every syscall.
func BenchmarkAblationLockstep(b *testing.B) {
	warmup := 50 * time.Millisecond
	window := 250 * time.Millisecond
	target := bench.RedisTarget()
	for _, mode := range []bench.Mode{bench.ModeNative, bench.ModeMvedsua2, bench.ModeLockstep} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var opsPerSec float64
			var err error
			for i := 0; i < b.N; i++ {
				opsPerSec, err = bench.RunSteadyState(target, mode, warmup, window)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(opsPerSec, "vops/s")
		})
	}
}

// BenchmarkAblationBufferSizes sweeps ring-buffer capacities beyond the
// paper's three points, charting where the leader starts blocking during
// an update (DESIGN.md §7's ablation).
func BenchmarkAblationBufferSizes(b *testing.B) {
	entries := 1 << 14
	for _, shift := range []int{8, 11, 14, 17, 20} {
		shift := shift
		b.Run(fmt.Sprintf("buf_2e%02d", shift), func(b *testing.B) {
			var pause time.Duration
			for i := 0; i < b.N; i++ {
				r, err := bench.Fig7Point(bench.ModeMvedsua2, 1<<shift, bench.Fig7Config{
					Entries:    entries,
					PostUpdate: time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				pause = r.MaxLatency
			}
			b.ReportMetric(float64(pause)/float64(time.Millisecond), "pause_ms")
		})
	}
}

// BenchmarkAblationImmediatePromotion measures the cost of skipping the
// outdated-leader stage (§6.1: draining the buffer while service is
// paused instead of in parallel with it).
func BenchmarkAblationImmediatePromotion(b *testing.B) {
	cfg := bench.Fig7Config{Entries: 1 << 15, PostUpdate: 1500 * time.Millisecond}
	for _, immediate := range []bool{false, true} {
		immediate := immediate
		name := "outdated-leader-drain"
		if immediate {
			name = "immediate-promotion"
		}
		b.Run(name, func(b *testing.B) {
			var pause time.Duration
			for i := 0; i < b.N; i++ {
				r, err := bench.Fig7PointImmediate(cfg.Entries*16, cfg, immediate)
				if err != nil {
					b.Fatal(err)
				}
				pause = r.MaxLatency
			}
			b.ReportMetric(float64(pause)/float64(time.Millisecond), "pause_ms")
		})
	}
}

// BenchmarkExtensionRollingUpgrade quantifies the paper's §1.1/§2.2
// motivation: a stateful sharded cluster upgraded by rolling restart
// (losing state), by checkpoint/restore (pausing), and by per-node
// MVEDSUA (neither). Reported metrics: lost keys and max client latency
// per strategy.
func BenchmarkExtensionRollingUpgrade(b *testing.B) {
	var results []rolling.ComparisonResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = rolling.Compare(2, 5000, "2.0.0", "2.0.1")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(float64(r.LostKeys), metricName(r.Strategy.String(), "lost_keys"))
		b.ReportMetric(float64(r.MaxLatency)/float64(time.Millisecond), metricName(r.Strategy.String(), "maxlat_ms"))
	}
}
