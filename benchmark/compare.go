package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's bound.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setupFloorS keeps a sub-50 ms change in set-up time from reading as a
// regression of a quarter-second set-up.
const setupFloorS = 0.05

// compareFiles prints one row per workload × metric of two -out files
// (a = parent, b = change), each holding one or more runs per workload.
// It is tolerance-based, not a byte diff: virtual-clock metrics, counts
// and the digest must be equal in every run of both files; a host-clock
// end-to-end metric compares the medians over each file's runs and may
// worsen by its bound; where the quartile spread on either side — over
// the runs, or with a single run over its repetitions — exceeds the
// bound, the row reads "unresolved", not "unchanged", unless every
// sample of b beats every sample of a. Host-clock per-layer metrics
// have no bound and are shown as "info". It returns an error when any
// row regressed or differs.
func compareFiles(specPath, pathA, pathB string, w io.Writer) error {
	var spec benchSpec
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("-compare reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	b, err := readReports(pathB)
	if err != nil {
		return err
	}
	var keys []string
	for k := range a.Runs {
		if len(b.Runs[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("%s and %s share no run", pathA, pathB)
	}
	bad := 0
	row := func(k, name, va, vb, change, bound, verdict string) {
		fmt.Fprintf(w, "%-24s %-44s %14s %14s %9s %7s  %s\n", k, name, va, vb, change, bound, verdict)
		if verdict == "regressed" || verdict == "DIFFERS" || verdict == "MISSING" {
			bad++
		}
	}
	row("run (a×b runs)", "metric", "a", "b", "change", "bound", "verdict")
	for _, k := range keys {
		ra, rb := a.Runs[k], b.Runs[k]
		label := fmt.Sprintf("%s (%d×%d)", k, len(ra), len(rb))
		defs := endToEnd
		if ra[0].Traced {
			defs = layerDefs()
		}
		for _, d := range defs {
			ma, okA := across(ra, d.name)
			mb, okB := across(rb, d.name)
			if !okA || !okB {
				row(label, d.name, "-", "-", "-", "-", "MISSING")
				continue
			}
			bound, bounded := bounds[d.name]
			boundCol := "exact"
			if d.clock == clockHost {
				boundCol = "-"
				if bounded {
					boundCol = fmt.Sprintf("%.0f%%", bound*100)
				}
			}
			row(label, d.name, fmt.Sprintf("%.6g", ma.Value), fmt.Sprintf("%.6g", mb.Value),
				fmt.Sprintf("%+.2f%%", ratio(mb.Value-ma.Value, ma.Value)*100), boundCol, judge(d, ma, mb, bound, bounded))
		}
		da, db, failed := digests(ra), digests(rb), int64(0)
		verdict := "same"
		if da != db {
			verdict = "DIFFERS"
		}
		row(label, "virt_digest", da, db, "", "exact", verdict)
		for _, r := range append(append([]*report(nil), ra...), rb...) {
			failed += r.Failed
		}
		if failed > 0 {
			row(label, "failed_ops", "", fmt.Sprint(failed), "", "0", "regressed")
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) regressed, differ or are missing", bad)
	}
	return nil
}

// across folds one metric over a file's runs of a workload: with
// several runs the value is the median of the runs' values and the
// quartiles and samples describe the runs — what the driver computes —
// and with one run it is that run's own metric. An exact metric whose
// runs disagree comes back as NaN, which equals nothing.
func across(runs []*report, name string) (metric, bool) {
	m, ok := runs[0].Metrics[name]
	if !ok || len(runs) == 1 {
		return m, ok
	}
	vals := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r.Metrics[name]
		if !ok {
			return m, false
		}
		vals[i] = v.Value
		if m.Clock != clockHost && v.Value != m.Value {
			m.Value = math.NaN()
			return m, true
		}
	}
	m.Q1, m.Value, m.Q3 = quartiles(vals)
	m.Samples = vals
	return m, true
}

// digests joins the distinct digests of a file's runs; equal code and
// seed give exactly one.
func digests(runs []*report) string {
	var out []string
	for _, r := range runs {
		if !slices.Contains(out, r.VirtDigest) {
			out = append(out, r.VirtDigest)
		}
	}
	return strings.Join(out, ",")
}

func judge(d metricDef, a, b metric, bound float64, bounded bool) string {
	if d.clock != clockHost {
		if a.Value == b.Value {
			return "same"
		}
		return "DIFFERS"
	}
	if !bounded {
		return "info"
	}
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	if spreadOf(a) > bound || spreadOf(b) > bound {
		if len(a.Samples) > 0 && len(b.Samples) > 0 && allBetter(a.Samples, b.Samples, sign) {
			return "improved"
		}
		return "unresolved"
	}
	worse := sign * (b.Value - a.Value)
	allowed := bound * a.Value
	if strings.HasPrefix(d.name, "setup_") && allowed < setupFloorS {
		allowed = setupFloorS
	}
	switch {
	case worse > allowed:
		return "regressed"
	case worse < -allowed:
		return "improved"
	}
	return "unchanged"
}

// spreadOf is the quartile spread of a metric's repetitions relative to
// their middle (the value itself may be their minimum).
func spreadOf(m metric) float64 { return ratio(m.Q3-m.Q1, (m.Q1+m.Q3)/2) }

// allBetter reports whether every sample of b is better than every
// sample of a (sign +1: lower is better).
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
