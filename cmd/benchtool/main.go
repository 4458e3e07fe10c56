// Command benchtool regenerates the paper's evaluation artifacts (§6)
// and the repo's committed BENCH_*.json reports:
//
//	benchtool -list                # every experiment with a one-line description
//	benchtool -experiment fig6     # run one
//	benchtool -experiment all      # run everything, in -list order
//
// The metrics experiment emits a machine-readable report; -json writes
// it to a file and -validate checks an existing report against the
// golden schema:
//
//	benchtool -experiment metrics -json BENCH_metrics.json
//	benchtool -validate BENCH_metrics.json
//
// The perf experiment likewise writes its report with -json. Besides
// the virtual-cost scenario rows it sweeps the sharded runtime over
// 1/2/4/8 shards and reports a speedup curve with both a deterministic
// virtual-makespan column and measured wall-clock throughput. Because
// the wall columns are runner-dependent, `make check` compares the
// committed BENCH_perf.json with -perfdiff (semantic: deterministic
// fields must match exactly, measured fields are ignored) instead of a
// byte diff; regenerate with `make bench-perf`:
//
//	benchtool -experiment perf -json BENCH_perf.json
//	benchtool -perfdiff BENCH_perf.json fresh.json
//
// The timeline experiment writes its report with -json and the traced
// run's Chrome trace_event export (Perfetto-loadable) with -perfetto:
//
//	benchtool -experiment timeline -json BENCH_timeline.json -perfetto trace.json
//
// All measurements run in deterministic virtual time; see DESIGN.md for
// the substitution rationale and internal/bench/costmodel.go for the
// calibrated cost constants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mvedsua/internal/bench"
	"mvedsua/internal/rolling"
)

// experiment is one row of the catalogue that drives dispatch, -list and
// the -experiment flag's help.
type experiment struct {
	name, desc string
	// run executes the experiment and returns the text to print and, for
	// experiments with a machine-readable artifact, the report -json
	// serialises.
	run func() (report any, text string, err error)
	// schema labels the report in the "wrote" line; empty means the
	// experiment has no -json output.
	schema string
	// post, if set, runs once the text is printed and the JSON (if
	// requested) is on disk; data is nil when no JSON was written.
	post func(data []byte) error
}

// reporting adapts a Run/Format pair to experiment.run.
func reporting[R any](run func() (R, error), format func(R) string) func() (any, string, error) {
	return func() (any, string, error) {
		r, err := run()
		if err != nil {
			return nil, "", err
		}
		return r, format(r), nil
	}
}

// printing adapts an experiment that cannot fail and only prints.
func printing(run func() string) func() (any, string, error) {
	return func() (any, string, error) { return nil, run(), nil }
}

// catalogue lists the experiments in the order "all" runs them.
func catalogue(window *time.Duration, full *bool, perfettoOut *string) []experiment {
	var perfetto []byte // the timeline run's Chrome trace, for its post hook
	return []experiment{
		{name: "table1", desc: "Vsftpd rewrite-rule counts (paper Table 1)",
			run: printing(func() string { return bench.FormatTable1(bench.Table1()) })},
		{name: "table2", desc: "steady-state throughput and MVE overhead (paper Table 2)",
			run: reporting(func() ([]bench.Table2Cell, error) {
				cfg := bench.DefaultTable2Config
				cfg.Window = *window
				return bench.Table2(cfg)
			}, bench.FormatTable2)},
		{name: "fig6", desc: "throughput timeline while updating (paper Figure 6)",
			run: reporting(func() ([]bench.Fig6Result, error) { return bench.Fig6(bench.DefaultFig6Config) }, bench.FormatFig6)},
		{name: "fig7", desc: "update pause vs ring-buffer size (paper Figure 7)",
			run: func() (any, string, error) {
				cfg := bench.DefaultFig7Config
				if *full {
					cfg = bench.Fig7Config{Entries: 1 << 20, PostUpdate: 20 * time.Second}
				}
				results, err := bench.Fig7(cfg)
				if err != nil {
					return nil, "", err
				}
				return nil, bench.FormatFig7(results, cfg), nil
			}},
		{name: "faults", desc: "fault-tolerance runs: divergence, rollback, retry (paper 6.2)",
			run: printing(func() string { return bench.FormatFaults(bench.Faults()) })},
		{name: "chaos", desc: "seeded fault-injection matrix across syscalls and kinds",
			run: printing(func() string { return bench.FormatChaos(bench.ChaosSweep()) })},
		{name: "rolling", desc: "rolling-upgrade comparison vs MVEDSUA (paper 1.1 extension)",
			run: reporting(func() ([]rolling.ComparisonResult, error) { return rolling.Compare(4, 20000, "2.0.0", "2.0.1") },
				rolling.FormatComparison)},
		{name: "metrics", desc: "flight-recorder export -> BENCH_metrics.json",
			run:    reporting(bench.RunMetricsReport, bench.FormatMetricsReport),
			schema: "schema-valid " + bench.MetricsSchemaID,
			post: func(data []byte) error {
				if data == nil {
					return nil
				}
				if err := bench.ValidateMetricsReport(data, bench.MetricsSchemaJSON); err != nil {
					return fmt.Errorf("emitted report failed schema validation: %w", err)
				}
				return nil
			}},
		{name: "perf", desc: "perf-trajectory baseline + shard speedup curve -> BENCH_perf.json",
			run: reporting(bench.RunPerfReport, bench.FormatPerfReport), schema: bench.PerfSchemaID},
		{name: "timeline", desc: "span tracing + request latency attribution -> BENCH_timeline.json",
			run: func() (any, string, error) {
				r, trace, err := bench.RunTimelineReport()
				if err != nil {
					return nil, "", err
				}
				perfetto = trace
				return r, bench.FormatTimelineReport(r), nil
			},
			schema: bench.TimelineSchemaID,
			post: func([]byte) error {
				if *perfettoOut == "" {
					return nil
				}
				if err := bench.ValidateChromeTrace(perfetto); err != nil {
					return err
				}
				if err := os.WriteFile(*perfettoOut, perfetto, 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s (Chrome trace_event, load in Perfetto)\n", *perfettoOut)
				return nil
			}},
		{name: "nvariant", desc: "N-variant fleet: quorum verdicts + canary gates -> BENCH_nvariant.json",
			run: reporting(bench.RunNVariantReport, bench.FormatNVariantReport), schema: bench.NVariantSchemaID},
		{name: "slo", desc: "availability ledger: SLO windows, MTTR, pause attribution -> BENCH_slo.json",
			run: reporting(bench.RunSLOReport, bench.FormatSLOReport), schema: bench.SLOSchemaID},
		{name: "train", desc: "update trains: eager vs lazy state transformation -> BENCH_train.json",
			run: reporting(bench.RunTrainReport, bench.FormatTrainReport), schema: bench.TrainSchemaID},
		{name: "profile", desc: "virtual-clock profiler: exact duo/fleet/sweep time attribution -> BENCH_profile.json",
			run: reporting(bench.RunProfileReport, bench.FormatProfileReport), schema: bench.ProfileSchemaID},
		{name: "sharddet", desc: "sharded-runtime determinism smoke: parallel shards, cross-shard update trigger",
			run: reporting(bench.RunShardDetReport, bench.FormatShardDetReport), schema: bench.ShardDetSchemaID},
	}
}

func main() {
	window := flag.Duration("window", bench.DefaultTable2Config.Window, "table2 measurement window (virtual time)")
	full := flag.Bool("full", false, "run fig7 at paper scale (1M entries, 2^24 buffer; slow)")
	perfettoOut := flag.String("perfetto", "", "timeline: write the Chrome trace_event export to this file")
	experiments := catalogue(window, full, perfettoOut)
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	selected := flag.String("experiment", "all", strings.Join(append(names, "all"), "|"))
	list := flag.Bool("list", false, "list the experiments with one-line descriptions and exit")
	jsonOut := flag.String("json", "", "write the selected experiment's report as JSON to this file")
	validate := flag.String("validate", "", "validate a metrics-report JSON file against the golden schema and exit")
	perfdiff := flag.Bool("perfdiff", false, "compare two perf-report JSON files (args) on deterministic fields and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-10s %s\n", e.name, e.desc)
		}
		fmt.Printf("  %-10s %s\n", "all", "every experiment above, in order")
		return
	}

	if *perfdiff {
		args := flag.Args()
		if len(args) != 2 {
			fail(fmt.Errorf("-perfdiff needs exactly two report files, got %d", len(args)))
		}
		a, err := os.ReadFile(args[0])
		if err != nil {
			fail(err)
		}
		b, err := os.ReadFile(args[1])
		if err != nil {
			fail(err)
		}
		if err := bench.ComparePerfReports(a, b); err != nil {
			fail(fmt.Errorf("%s vs %s: %w", args[0], args[1], err))
		}
		fmt.Printf("%s and %s agree on all deterministic perf fields\n", args[0], args[1])
		return
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fail(err)
		}
		if err := bench.ValidateMetricsReport(data, bench.MetricsSchemaJSON); err != nil {
			fail(fmt.Errorf("%s: %w", *validate, err))
		}
		fmt.Printf("%s: valid %s report\n", *validate, bench.MetricsSchemaID)
		return
	}

	start := time.Now()
	for _, e := range experiments {
		if *selected != e.name && *selected != "all" {
			continue
		}
		report, text, err := e.run()
		if err != nil {
			fail(err)
		}
		fmt.Println(text)
		// -json targets the selected experiment; when running "all" the
		// metrics report owns the flag.
		var data []byte
		if *jsonOut != "" && e.schema != "" && (*selected == e.name || e.name == "metrics") {
			if data, err = json.MarshalIndent(report, "", "  "); err != nil {
				fail(err)
			}
			data = append(data, '\n')
			if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
				fail(err)
			}
		}
		if e.post != nil {
			if err := e.post(data); err != nil {
				fail(err)
			}
		}
		if data != nil {
			fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *jsonOut, e.schema)
		}
	}
	fmt.Fprintf(os.Stderr, "(completed in %.1fs wall-clock)\n", time.Since(start).Seconds())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtool:", err)
	os.Exit(1)
}
