// Command benchtool regenerates the paper's evaluation artifacts (§6)
// and the repo's committed BENCH_*.json reports. The experiments live in
// bench.Catalogue; this file only parses flags and prints.
//
//	benchtool -list                # every experiment, its description and artifact
//	benchtool -experiment fig6     # run one
//	benchtool -experiment all      # run everything, in -list order
//
// Experiments with a machine-readable report write it with -json (the
// report is validated first where the catalogue says how):
//
//	benchtool -experiment metrics -json BENCH_metrics.json
//
// -check is the artifact gate `make check` and tier-1's
// TestCommittedArtifacts share: every selected experiment with a report
// is run and must reproduce the file committed under the given root byte
// for byte; sharddet commits nothing and is compared with a second run
// of itself:
//
//	benchtool -check .
//	benchtool -check . -experiment slo
//
// The timeline experiment also exports the traced run as Chrome
// trace_event JSON (Perfetto-loadable) with -perfetto:
//
//	benchtool -experiment timeline -json BENCH_timeline.json -perfetto trace.json
//
// All measurements run in deterministic virtual time; see DESIGN.md for
// the substitution rationale and internal/bench/costmodel.go for the
// calibrated cost constants.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mvedsua/internal/bench"
)

// names joins the catalogue's experiment names and "all" for the
// -experiment flag's help and the unknown-name error.
func names() string {
	var out []string
	for _, e := range bench.Catalogue {
		out = append(out, e.Name)
	}
	return strings.Join(append(out, "all"), "|")
}

// resolve returns the catalogue rows -experiment selects.
func resolve(name string) ([]bench.Experiment, error) {
	if name == "all" {
		return bench.Catalogue, nil
	}
	for _, e := range bench.Catalogue {
		if e.Name == name {
			return []bench.Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q; one of %s", name, names())
}

func main() {
	window := flag.Duration("window", bench.DefaultTable2Config.Window, "table2 measurement window (virtual time)")
	full := flag.Bool("full", false, "run fig7 at paper scale (1M entries, 2^24 buffer; slow)")
	perfettoOut := flag.String("perfetto", "", "timeline: write the Chrome trace_event export to this file")
	selected := flag.String("experiment", "all", names())
	list := flag.Bool("list", false, "list the experiments with description and artifact, and exit")
	jsonOut := flag.String("json", "", "write the selected experiment's report as JSON to this file")
	check := flag.String("check", "", "run the selected experiments' artifact gate against the repo at this root and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Catalogue {
			fmt.Printf("  %-10s %-20s %s\n", e.Name, e.Artifact, e.Desc)
		}
		fmt.Printf("  %-10s %-20s %s\n", "all", "", "every experiment above, in order")
		return
	}

	experiments, err := resolve(*selected)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	for _, e := range experiments {
		if *check != "" {
			if err := e.Check(*check); err != nil {
				fail(err)
			}
			if e.Schema != "" {
				fmt.Printf("  %-10s ok\n", e.Name)
			}
			continue
		}
		report, text, err := e.Run(bench.Sizing{Window: *window, Full: *full})
		if err != nil {
			fail(err)
		}
		fmt.Println(text)
		// -json targets the selected experiment; when running "all" the
		// metrics report owns the flag.
		if *jsonOut != "" && e.Schema != "" && (*selected == e.Name || e.Name == "metrics") {
			data, err := bench.Encode(report)
			if err == nil && e.Valid != nil {
				err = e.Valid(report, data)
			}
			if err == nil {
				err = os.WriteFile(*jsonOut, data, 0o644)
			}
			if err != nil {
				fail(fmt.Errorf("%s: %w", e.Name, err))
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%s)\n", *jsonOut, e.Schema)
		}
		if tl, ok := report.(bench.TimelineReport); ok && *perfettoOut != "" {
			if err := bench.ValidateChromeTrace(tl.ChromeTrace); err != nil {
				fail(err)
			}
			if err := os.WriteFile(*perfettoOut, tl.ChromeTrace, 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (Chrome trace_event, load in Perfetto)\n", *perfettoOut)
		}
	}
	fmt.Fprintf(os.Stderr, "(completed in %.1fs wall-clock)\n", time.Since(start).Seconds())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtool:", err)
	os.Exit(1)
}
