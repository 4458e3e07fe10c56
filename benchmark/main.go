// Command benchmark is the repo's benchmark: five workloads driven
// through the public API of core.Controller / core.FleetController,
// measured from outside on two clocks — the simulated one (virt_*,
// exact) and the host's (host_*, noisy) — with one number per layer.
// See README.md for the metric ↔ layer ↔ workload table.
//
//	benchmark/run.sh --workload kv_single --seed 1 --seconds 10 --trace 0
//	benchmark/run.sh --workload kv_single --trace .bench_build/trace/kv_single
//	benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// result is the last line of standard output: the contract the driver
// reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]resultMV `json:"metrics"`
}

type resultMV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs: key choice, read/write mix, value lengths, file contents")
	seconds := flag.Float64("seconds", 10, "how long to keep measuring timed repetitions")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1: traced run printing per-layer metrics, files under .bench_build/trace/<workload>; else: traced run writing to that directory")
	out := flag.String("out", "", "also append the full report (quartiles, samples, fingerprint, digest) to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments, using BENCHMARK.json's bounds")
	list := flag.Bool("list", false, "list workloads and why each exists")
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-18s %s\n", w.name, w.why)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		if err := compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal("unknown workload %q; -list names them", *name)
	}
	dir := ""
	switch *trace {
	case "0", "":
	case "1":
		dir = filepath.Join(".bench_build", "trace", w.name)
	default:
		dir = *trace
	}
	rp, err := measure(w, *seed, *seconds, dir, os.Stdout)
	if err != nil {
		fatal("%v", err)
	}
	rp.print(os.Stdout)
	if dir != "" {
		fmt.Printf("traces: %s/{host_trace.json,virt_trace.json,virt_profile.folded}\n", dir)
	}
	if *out != "" {
		if err := mergeReport(*out, rp); err != nil {
			fatal("%v", err)
		}
	}

	// The last line carries the end-to-end metrics, or with tracing the
	// per-layer ones.
	defs := endToEnd
	if rp.Traced {
		defs = layerDefs()
	}
	res := result{Correct: rp.Correct, Attempted: rp.Attempted, Failed: rp.Failed, Metrics: map[string]resultMV{}}
	for _, d := range defs {
		res.Metrics[d.name] = resultMV{Value: rp.Metrics[d.name].Value, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !rp.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d client ops failed verification\n", rp.Failed, rp.Attempted)
		os.Exit(1)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// reportFile is what -out accumulates: every run of every workload and
// mode, so a whole campaign (all workloads, several runs each) compares
// as one file.
type reportFile struct {
	Runs map[string][]*report `json:"runs"` // "<workload>" or "<workload>+trace" → runs in order
}

func readReports(path string) (*reportFile, error) {
	f := &reportFile{Runs: map[string][]*report{}}
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func mergeReport(path string, rp *report) error {
	f, err := readReports(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	key := rp.Workload
	if rp.Traced {
		key += "+trace"
	}
	f.Runs[key] = append(f.Runs[key], rp)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
