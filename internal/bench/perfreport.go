package bench

import (
	"fmt"
	"strings"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// This file is the perf-trajectory experiment: `benchtool -experiment
// perf` runs a fixed set of deterministic virtual-time scenarios and
// reports the mechanical cost of the MVE pipeline — syscall cost per
// role, ring-buffer traffic, and scheduler context switches per 1k
// syscalls. The committed BENCH_perf.json artifact is the baseline every
// future perf PR is measured against (see docs/PERFORMANCE.md).

// PerfSchemaID names the report format.
const PerfSchemaID = "mvedsua-perf/v1"

// PerfScenario is the measurement of one scenario. All quantities are
// virtual-time deltas over the measurement window (warmup excluded),
// except the per-role syscall means, which summarize the whole run (the
// cost model is constant, so the distinction does not matter there).
type PerfScenario struct {
	Name        string `json:"name"`
	Mode        string `json:"mode"`
	RingEntries int    `json:"ring_entries"`
	WindowMS    int64  `json:"window_ms"`

	// Syscall traffic per role during the window.
	SyscallsSingle   int64 `json:"syscalls_single"`
	SyscallsLeader   int64 `json:"syscalls_leader"`
	SyscallsFollower int64 `json:"syscalls_follower"`

	// Mean virtual-time syscall latency per role (whole run).
	SyscallMeanSingleNS int64 `json:"syscall_mean_single_ns"`
	SyscallMeanLeaderNS int64 `json:"syscall_mean_leader_ns"`

	// Ring-buffer traffic during the window (per entry, even for
	// batched operations).
	RingPuts            int64 `json:"ring_puts"`
	RingGets            int64 `json:"ring_gets"`
	RingBlocked         int64 `json:"ring_blocked"`
	RingDropped         int64 `json:"ring_dropped"`
	RingHighWater       int64 `json:"ring_highwater"`
	RingBlockWaitMeanNS int64 `json:"ring_block_wait_mean_ns"`

	// Scheduler churn during the window.
	Dispatches int64 `json:"dispatches"`
	// DispatchesPer1kSyscalls = Dispatches * 1000 / total window
	// syscalls, integer-truncated so the artifact stays integral.
	DispatchesPer1kSyscalls int64 `json:"dispatches_per_1k_syscalls"`
}

// PerfReport is the serialized artifact (BENCH_perf.json): virtual-time
// quantities only, so it is pinned byte for byte like every other.
type PerfReport struct {
	Schema    string         `json:"schema"`
	Scenarios []PerfScenario `json:"scenarios"`
	Speedup   *SpeedupCurve  `json:"speedup,omitempty"`
}

// perfWarmup/perfWindow size each scenario run. Short on purpose: the
// runs are deterministic, so a small window measures the same ratios as
// a long one and keeps `make check` fast.
const (
	perfWarmup = 50 * time.Millisecond
	perfWindow = 400 * time.Millisecond
)

// RunPerfReport measures every perf scenario. The scenario list is the
// contract: adding or resizing one changes BENCH_perf.json and needs a
// `make bench-perf` regeneration.
func RunPerfReport() (*PerfReport, error) {
	scenarios := []struct {
		name   string
		mode   Mode
		bufCap int
	}{
		// Single leader: record-path cost with nothing draining.
		{"single-leader", ModeVaran1, 256},
		// Leader + follower at the default ring size: the paper's
		// steady-state record/replay pipeline (Table 2's Varan-2 shape).
		{"record-replay-duo", ModeVaran2, 256},
		// Lockstep baseline: the leader waits for the follower to drain
		// after every record, the worst case for scheduler churn.
		{"lockstep-duo", ModeLockstep, 256},
		// Tiny ring: leader bursts overrun the buffer, so the producer
		// parks and the block-wait histogram fills (Figure 7's regime).
		{"tiny-ring-backpressure", ModeVaran2, 4},
	}
	report := &PerfReport{Schema: PerfSchemaID}
	for _, sc := range scenarios {
		res, err := runPerfScenario(sc.name, sc.mode, sc.bufCap)
		if err != nil {
			return nil, fmt.Errorf("perf scenario %s: %w", sc.name, err)
		}
		report.Scenarios = append(report.Scenarios, res)
	}
	curve, err := RunSpeedupCurve()
	if err != nil {
		return nil, fmt.Errorf("perf speedup sweep: %w", err)
	}
	report.Speedup = curve
	return report, nil
}

// perfCounterNames are the window-delta counters each scenario samples.
var perfCounterNames = []string{
	obs.CSyscallsSingle, obs.CSyscallsLeader, obs.CSyscallsFollower,
	obs.CRingPut, obs.CRingGet, obs.CRingBlocked, obs.CRingDropped,
}

func runPerfScenario(name string, mode Mode, bufCap int) (PerfScenario, error) {
	s := sim.New()
	rec := obs.New(s.Now, obs.Options{})
	res := PerfScenario{
		Name:        name,
		Mode:        mode.String(),
		RingEntries: bufCap,
		WindowMS:    int64(perfWindow / time.Millisecond),
	}
	err := measure(s, RedisTarget(), mode, bufCap, rec, NewMetrics(0), func(w *world, tk *sim.Task) error {
		tk.Sleep(perfWarmup)
		d0 := s.Dispatches()
		c0 := map[string]int64{}
		for _, n := range perfCounterNames {
			c0[n] = rec.Counter(n)
		}
		tk.Sleep(perfWindow)
		res.Dispatches = s.Dispatches() - d0
		res.SyscallsSingle = rec.Counter(obs.CSyscallsSingle) - c0[obs.CSyscallsSingle]
		res.SyscallsLeader = rec.Counter(obs.CSyscallsLeader) - c0[obs.CSyscallsLeader]
		res.SyscallsFollower = rec.Counter(obs.CSyscallsFollower) - c0[obs.CSyscallsFollower]
		res.RingPuts = rec.Counter(obs.CRingPut) - c0[obs.CRingPut]
		res.RingGets = rec.Counter(obs.CRingGet) - c0[obs.CRingGet]
		res.RingBlocked = rec.Counter(obs.CRingBlocked) - c0[obs.CRingBlocked]
		res.RingDropped = rec.Counter(obs.CRingDropped) - c0[obs.CRingDropped]
		res.RingHighWater = rec.Gauge(obs.GRingHighWater)
		if h := rec.Hist(obs.HSyscallSingle); h != nil {
			res.SyscallMeanSingleNS = int64(h.Mean())
		}
		if h := rec.Hist(obs.HSyscallLeader); h != nil {
			res.SyscallMeanLeaderNS = int64(h.Mean())
		}
		if h := rec.Hist(obs.HRingBlockWait); h != nil {
			res.RingBlockWaitMeanNS = int64(h.Mean())
		}
		if total := res.SyscallsSingle + res.SyscallsLeader + res.SyscallsFollower; total > 0 {
			res.DispatchesPer1kSyscalls = res.Dispatches * 1000 / total
		}
		return nil
	})
	return res, err
}

// FormatPerfReport renders the report as text.
func FormatPerfReport(r *PerfReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Perf baseline (%s): virtual-time pipeline cost per scenario\n", r.Schema)
	b.WriteString("  Scenario                Mode                 Ring  Syscalls(s/l/f)        Ring put/get   Blocked  Dispatch  Disp/1k-sys\n")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "  %-22s  %-19s %5d  %6d/%6d/%6d  %7d/%7d  %7d  %8d  %11d\n",
			s.Name, s.Mode, s.RingEntries,
			s.SyscallsSingle, s.SyscallsLeader, s.SyscallsFollower,
			s.RingPuts, s.RingGets, s.RingBlocked, s.Dispatches, s.DispatchesPer1kSyscalls)
	}
	b.WriteString("  (window deltas; see docs/PERFORMANCE.md for how to read and regenerate)\n")
	if r.Speedup != nil {
		b.WriteString("\n")
		b.WriteString(FormatSpeedupCurve(r.Speedup))
	}
	return b.String()
}
