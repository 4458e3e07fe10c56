package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mvedsua/internal/rolling"
)

// Sizing carries the run-size knobs the CLI exposes; the zero value is
// every experiment's default size.
type Sizing struct {
	// Window is table2's measurement window (0: DefaultTable2Config's).
	Window time.Duration
	// Full runs fig7 at paper scale (1M entries, 2^24 buffer; slow).
	Full bool
}

// Experiment is one row of the catalogue: what `benchtool -experiment`
// runs, what `-list` prints, and — for rows with a Schema — how the
// artifact gate (Check) keeps the report honest.
type Experiment struct {
	Name, Desc string
	// Run executes the experiment and returns the text to print and, for
	// experiments with a machine-readable report, the value Encode
	// serialises.
	Run func(Sizing) (report any, text string, err error)
	// Schema identifies the report format; empty means the experiment
	// only prints, and Check has nothing to pin.
	Schema string
	// Artifact is the committed file, relative to the repo root, that a
	// fresh report must reproduce (regenerate with `make bench-<Name>`).
	// A row with a Schema and no Artifact commits nothing and is checked
	// against a second run of itself. Either way the bytes must be
	// identical.
	Artifact string
	// Valid, if set, checks a fresh report beyond its bytes.
	Valid func(report any, fresh []byte) error
}

// reporting adapts a Run/Format pair to Experiment.Run.
func reporting[R any](run func() (R, error), format func(R) string) func(Sizing) (any, string, error) {
	return func(Sizing) (any, string, error) {
		r, err := run()
		if err != nil {
			return nil, "", err
		}
		return r, format(r), nil
	}
}

// Catalogue lists the experiments in the order "all" runs them.
var Catalogue = []Experiment{
	{Name: "table1", Desc: "Vsftpd rewrite-rule counts (paper Table 1)",
		Run: func(Sizing) (any, string, error) { return nil, FormatTable1(Table1()), nil }},
	{Name: "table2", Desc: "steady-state throughput and MVE overhead (paper Table 2)",
		Run: func(sz Sizing) (any, string, error) {
			cfg := DefaultTable2Config
			if sz.Window > 0 {
				cfg.Window = sz.Window
			}
			cells, err := Table2(cfg)
			return nil, FormatTable2(cells), err
		}},
	{Name: "fig6", Desc: "throughput timeline while updating (paper Figure 6)",
		Run: func(Sizing) (any, string, error) {
			results, err := Fig6(DefaultFig6Config)
			return nil, FormatFig6(results), err
		}},
	{Name: "fig7", Desc: "update pause vs ring-buffer size (paper Figure 7)",
		Run: func(sz Sizing) (any, string, error) {
			cfg := DefaultFig7Config
			if sz.Full {
				cfg = Fig7Config{Entries: 1 << 20, PostUpdate: 20 * time.Second}
			}
			results, err := Fig7(cfg)
			return nil, FormatFig7(results, cfg), err
		}},
	{Name: "faults", Desc: "fault-tolerance runs: divergence, rollback, retry (paper 6.2)",
		Run: func(Sizing) (any, string, error) { return nil, FormatFaults(Faults()), nil }},
	{Name: "chaos", Desc: "seeded fault-injection matrix across syscalls and kinds",
		Run: func(Sizing) (any, string, error) { return nil, FormatChaos(ChaosSweep()), nil }},
	{Name: "rolling", Desc: "rolling-upgrade comparison vs MVEDSUA (paper 1.1 extension)",
		Run: func(Sizing) (any, string, error) {
			results, err := rolling.Compare(4, 20000, "2.0.0", "2.0.1")
			return nil, rolling.FormatComparison(results), err
		}},
	{Name: "metrics", Desc: "flight-recorder export, checked against obs's metric vocabulary",
		Run:    reporting(RunMetricsReport, FormatMetricsReport),
		Schema: MetricsSchemaID, Artifact: "BENCH_metrics.json",
		Valid: func(_ any, fresh []byte) error {
			if err := ValidateMetricsReport(fresh); err != nil {
				return fmt.Errorf("report failed vocabulary validation: %w", err)
			}
			return nil
		}},
	{Name: "perf", Desc: "perf-trajectory baseline + virtual shard speedup curve",
		Run:    reporting(RunPerfReport, FormatPerfReport),
		Schema: PerfSchemaID, Artifact: "BENCH_perf.json"},
	{Name: "timeline", Desc: "span tracing + request latency attribution; validates its Chrome trace",
		Run:    reporting(RunTimelineReport, FormatTimelineReport),
		Schema: TimelineSchemaID, Artifact: "BENCH_timeline.json",
		Valid: func(r any, _ []byte) error { return ValidateChromeTrace(r.(TimelineReport).ChromeTrace) }},
	{Name: "nvariant", Desc: "N-variant fleet: quorum verdicts + canary gates",
		Run:    reporting(RunNVariantReport, FormatNVariantReport),
		Schema: NVariantSchemaID, Artifact: "BENCH_nvariant.json"},
	{Name: "slo", Desc: "availability ledger: SLO windows, MTTR, pause attribution",
		Run:    reporting(RunSLOReport, FormatSLOReport),
		Schema: SLOSchemaID, Artifact: "BENCH_slo.json"},
	{Name: "train", Desc: "update trains: eager vs lazy state transformation",
		Run:    reporting(RunTrainReport, FormatTrainReport),
		Schema: TrainSchemaID, Artifact: "BENCH_train.json"},
	{Name: "profile", Desc: "virtual-clock profiler: exact duo/fleet/sweep time attribution",
		Run:    reporting(RunProfileReport, FormatProfileReport),
		Schema: ProfileSchemaID, Artifact: "BENCH_profile.json"},
	{Name: "sharddet", Desc: "sharded-runtime determinism smoke: parallel shards, cross-shard update trigger",
		Run:    reporting(RunShardDetReport, FormatShardDetReport),
		Schema: ShardDetSchemaID},
}

// Encode serialises a report the way the committed artifacts are
// written: indented JSON and a trailing newline.
func Encode(report any) ([]byte, error) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Check is the artifact gate `benchtool -check`, `make check` and
// TestCommittedArtifacts all call: run the experiment and require the
// report to be valid and to reproduce what pins it under root. A row
// without a Schema has nothing pinned and passes without running.
func (e Experiment) Check(root string) error {
	if e.Schema == "" {
		return nil
	}
	report, fresh, err := e.encoded()
	if err != nil {
		return err
	}
	return e.verify(root, report, fresh)
}

// encoded runs the experiment at its default size and encodes the report.
func (e Experiment) encoded() (any, []byte, error) {
	report, _, err := e.Run(Sizing{})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	data, err := Encode(report)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	return report, data, nil
}

// verify is Check on a run already made.
func (e Experiment) verify(root string, report any, fresh []byte) error {
	if e.Valid != nil {
		if err := e.Valid(report, fresh); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	if e.Artifact == "" {
		_, again, err := e.encoded()
		if err != nil {
			return err
		}
		if err := sameBytes(fresh, again); err != nil {
			return fmt.Errorf("%s is nondeterministic across runs: %w", e.Name, err)
		}
		return nil
	}
	pinned, err := os.ReadFile(filepath.Join(root, e.Artifact))
	if err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	if err := sameBytes(pinned, fresh); err != nil {
		return fmt.Errorf("%s is stale; run 'make bench-%s' to regenerate: %w", e.Artifact, e.Name, err)
	}
	return nil
}

// sameBytes requires byte equality and points at the first differing
// line.
func sameBytes(pinned, fresh []byte) error {
	if bytes.Equal(pinned, fresh) {
		return nil
	}
	a, b := bytes.Split(pinned, []byte("\n")), bytes.Split(fresh, []byte("\n"))
	i := 0
	for i < len(a) && i < len(b) && bytes.Equal(a[i], b[i]) {
		i++
	}
	line := func(lines [][]byte) []byte {
		if i < len(lines) {
			return bytes.TrimSpace(lines[i])
		}
		return []byte("<end of file>")
	}
	return fmt.Errorf("first difference at line %d: pinned %q, fresh %q", i+1, line(a), line(b))
}
