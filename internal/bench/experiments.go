package bench

import (
	"fmt"
	"strings"
	"time"

	"mvedsua/internal/apps/ftpd"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/sim"
)

// ---------------------------------------------------------------------
// Table 1: rewrite rules per Vsftpd version pair.

// Table1Row is one Vsftpd update pair.
type Table1Row struct {
	From, To string
	Rules    int
}

// Table1 computes the rule counts for all 13 Vsftpd pairs.
func Table1() []Table1Row {
	var rows []Table1Row
	for i := 0; i+1 < len(ftpd.Versions); i++ {
		rows = append(rows, Table1Row{
			From:  ftpd.Versions[i],
			To:    ftpd.Versions[i+1],
			Rules: ftpd.RuleCount(ftpd.Versions[i], ftpd.Versions[i+1]),
		})
	}
	return rows
}

// FormatTable1 renders Table 1 as text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Mvedsua rewrite rules per Vsftpd pair\n")
	b.WriteString("  Versions        # rules\n")
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s -> %s   %d\n", r.From, r.To, r.Rules)
		total += r.Rules
	}
	fmt.Fprintf(&b, "  Average         %.2f\n", float64(total)/float64(len(rows)))
	b.WriteString("  (paper: 0,2,0,2,0,0,3,0,1,1,1,1,0; average 0.85)\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Table 2: steady-state throughput and overhead.

// Table2Cell is one measurement.
type Table2Cell struct {
	Target    string
	Mode      Mode
	OpsPerSec float64
	// Overhead vs the target's Native row (0.07 == 7%).
	Overhead float64
}

// Table2Config sizes the runs.
type Table2Config struct {
	Warmup time.Duration
	Window time.Duration
}

// DefaultTable2Config is used by the benchtool.
var DefaultTable2Config = Table2Config{Warmup: 200 * time.Millisecond, Window: 2 * time.Second}

// Table2 measures every target in every mode.
func Table2(cfg Table2Config) ([]Table2Cell, error) {
	var cells []Table2Cell
	for _, target := range Table2Targets() {
		native := 0.0
		for _, mode := range Modes {
			opsPerSec, err := RunSteadyState(target, mode, cfg.Warmup, cfg.Window)
			if err != nil {
				return cells, fmt.Errorf("%s/%v: %w", target.Name, mode, err)
			}
			cell := Table2Cell{Target: target.Name, Mode: mode, OpsPerSec: opsPerSec}
			if mode == ModeNative {
				native = opsPerSec
			}
			if native > 0 {
				cell.Overhead = 1 - opsPerSec/native
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// FormatTable2 renders the measurements like the paper's Table 2.
func FormatTable2(cells []Table2Cell) string {
	var b strings.Builder
	b.WriteString("Table 2: steady-state performance and overhead vs Native\n")
	byTarget := map[string][]Table2Cell{}
	var order []string
	for _, c := range cells {
		if _, ok := byTarget[c.Target]; !ok {
			order = append(order, c.Target)
		}
		byTarget[c.Target] = append(byTarget[c.Target], c)
	}
	for _, name := range order {
		fmt.Fprintf(&b, "\n  %s\n", name)
		for _, c := range byTarget[name] {
			fmt.Fprintf(&b, "    %-12s %12.0f ops/sec   overhead %5.1f%%\n",
				c.Mode, c.OpsPerSec, c.Overhead*100)
		}
	}
	b.WriteString("\n  (paper bands: Kitsune 0-3%, Mvedsua-1 3-9%, Mvedsua-2 25-52%)\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 6: throughput while updating (full lifecycle timeline).

// Fig6Result is the timeline for one server.
type Fig6Result struct {
	Target     string
	BucketSize time.Duration
	OpsPerSec  []float64
	Events     []core.Event
}

// Fig6Config scales the experiment. The paper runs 360s with the update
// at 120s, promotion at 180s and commit at 240s. Total keeps that
// structure at any length (update at Total/3, promotion at Total/2,
// commit at 2·Total/3), and Buckets is how many throughput samples cover
// it.
type Fig6Config struct {
	Total   time.Duration
	Buckets int
}

// DefaultFig6Config compresses the paper's 360s timeline 10x.
var DefaultFig6Config = Fig6Config{Total: 36 * time.Second, Buckets: 36}

// Fig6 runs the full update lifecycle for Memcached and Redis, sampling
// throughput per bucket (the two curves of Figure 6).
func Fig6(cfg Fig6Config) ([]Fig6Result, error) {
	var out []Fig6Result
	for _, target := range []Target{MemcachedTarget(), RedisTarget()} {
		r, err := fig6One(target, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func fig6One(target Target, cfg Fig6Config) (Fig6Result, error) {
	bucket := cfg.Total / time.Duration(cfg.Buckets)
	m := NewMetrics(bucket)
	res := Fig6Result{Target: target.Name, BucketSize: bucket}
	err := measure(sim.New(), target, ModeMvedsua2, 256, nil, m, func(w *world, tk *sim.Task) error {
		// The bucket epoch, not a no-op: a driver's first slice is not at
		// t = 0 (the servers' start-up syscalls come first).
		m.Reset(tk.Now())
		tk.Sleep(cfg.Total / 3) // t1: update
		w.ctl.Update(target.MakeUpdate())
		tk.Sleep(cfg.Total / 6) // t4: promote
		err := w.validating("update not installed")
		w.ctl.Promote()
		tk.Sleep(cfg.Total / 6) // t6: commit
		w.ctl.Commit()
		tk.Sleep(cfg.Total / 3)
		for i, n := range m.Buckets() {
			if i >= cfg.Buckets {
				break
			}
			res.OpsPerSec = append(res.OpsPerSec, float64(n)/bucket.Seconds())
		}
		res.Events = w.ctl.Timeline()
		return err
	})
	return res, err
}

// FormatFig6 renders the throughput series with stage annotations.
func FormatFig6(results []Fig6Result) string {
	var b strings.Builder
	b.WriteString("Figure 6: throughput while updating (Mvedsua full lifecycle)\n")
	for _, r := range results {
		fmt.Fprintf(&b, "\n  %s (bucket %.1fs)\n", r.Target, r.BucketSize.Seconds())
		peak := 0.0
		for _, v := range r.OpsPerSec {
			if v > peak {
				peak = v
			}
		}
		for i, v := range r.OpsPerSec {
			bar := ""
			if peak > 0 {
				bar = strings.Repeat("#", int(v/peak*50))
			}
			fmt.Fprintf(&b, "    %5.1fs %9.0f ops/s %s\n",
				float64(i)*r.BucketSize.Seconds(), v, bar)
		}
		b.WriteString("    stages:\n")
		for _, ev := range r.Events {
			fmt.Fprintf(&b, "      %6.2fs  %-16v %s\n", ev.At.Seconds(), ev.Stage, ev.Note)
		}
	}
	b.WriteString("\n  (paper: service never stops; throughput drops to the Mvedsua-2\n")
	b.WriteString("   level between update and commit, then recovers)\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 7: updating with a large state and varying ring-buffer sizes.

// Fig7Result is one configuration's pause measurement.
type Fig7Result struct {
	Config string
	// MaxLatency is the worst client-visible request latency around the
	// update — the paper's measure of the update pause.
	MaxLatency time.Duration
}

// Fig7Config scales the experiment.
type Fig7Config struct {
	// Entries preloaded into the store (paper: 1M -> ~6.2s xform).
	Entries int
	// PostUpdate is how long to keep measuring after the update is
	// triggered (must exceed xform + catch-up).
	PostUpdate time.Duration
}

// DefaultFig7Config uses a 2^17-entry store (the paper's 1M-entry run
// scaled 8x down so it completes in minutes of wall-clock time; pass
// -full to the benchtool for paper scale). The buffer-size sweep keeps
// the paper's structure: one size too small to mask the pause, one that
// partially masks it, one that hides it completely.
var DefaultFig7Config = Fig7Config{Entries: 1 << 17, PostUpdate: 4 * time.Second}

// Fig7 measures the update pause for: Native (no update), Kitsune
// (in-place update), MVEDSUA with ring buffers of 2^10, 2^20 and 2^24
// entries, and the immediate-promotion ablation the paper describes in
// §6.1 (footnote 11's experiment).
func Fig7(cfg Fig7Config) ([]Fig7Result, error) {
	type variant struct {
		name      string
		mode      Mode
		bufCap    int
		update    bool
		immediate bool
	}
	// Buffer sizes scale with the store: at the paper's 1M entries the
	// sweep is exactly its 2^10 / 2^20 / 2^24. The middle size equals
	// the entry count (fills mid-update), the large one is 16x that
	// (never fills).
	small, medium, large := 1<<10, cfg.Entries, cfg.Entries*16
	name := func(n int) string {
		k := 0
		for 1<<k < n {
			k++
		}
		return fmt.Sprintf("Mvedsua 2^%d", k)
	}
	variants := []variant{
		{name: "Native (no update)", mode: ModeNative},
		{name: "Kitsune (in-place)", mode: ModeKitsune, update: true},
		{name: name(small), mode: ModeMvedsua2, bufCap: small, update: true},
		{name: name(medium), mode: ModeMvedsua2, bufCap: medium, update: true},
		{name: name(large), mode: ModeMvedsua2, bufCap: large, update: true},
		{name: name(large) + " + immediate promotion", mode: ModeMvedsua2, bufCap: large, update: true, immediate: true},
	}
	var out []Fig7Result
	for _, v := range variants {
		r, err := fig7One(v.name, v.mode, v.bufCap, v.update, v.immediate, cfg)
		if err != nil {
			return out, fmt.Errorf("fig7 %s: %w", v.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func fig7One(name string, mode Mode, bufCap int, update, immediate bool, cfg Fig7Config) (Fig7Result, error) {
	target := RedisTarget()
	target.MakeApp = func() dsu.App {
		s := redis()
		s.Preload(cfg.Entries)
		return s
	}
	m := NewMetrics(0)
	res := Fig7Result{Config: name}
	err := measure(sim.New(), target, mode, bufCap, nil, m, func(w *world, tk *sim.Task) error {
		tk.Sleep(500 * time.Millisecond) // warmup
		m.Reset(tk.Now())
		if update {
			v := target.MakeUpdate()
			switch mode {
			case ModeKitsune:
				w.leader.RequestUpdate(v)
			default:
				w.ctl.Update(v)
				if immediate {
					// Promote as soon as the follower finishes its
					// state transformation, skipping the outdated-
					// leader catch-up stage: the buffer backlog then
					// drains while nobody serves (paper: ~half the
					// update time, footnote 11).
					for tk.Now() < cfg.PostUpdate {
						rt := w.ctl.FollowerRuntime()
						if rt != nil && rt.Generation() > 0 && w.ctl.Stage() == core.StageOutdatedLeader {
							break
						}
						tk.Sleep(5 * time.Millisecond)
					}
					w.ctl.Promote()
				}
			}
		}
		tk.Sleep(cfg.PostUpdate)
		res.MaxLatency = m.MaxLatency
		return nil
	})
	return res, err
}

// FormatFig7 renders the pause comparison.
func FormatFig7(results []Fig7Result, cfg Fig7Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: update pause with %d-entry store (max client latency)\n", cfg.Entries)
	for _, r := range results {
		fmt.Fprintf(&b, "  %-36s %10.0f ms\n", r.Config, float64(r.MaxLatency)/float64(time.Millisecond))
	}
	b.WriteString("  (paper: native 100ms; Kitsune 5040ms; Mvedsua 2^10 7130ms,\n")
	b.WriteString("   2^20 5330ms, 2^24 117ms; immediate promotion 3000ms)\n")
	return b.String()
}
