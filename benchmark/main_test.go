package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json and the Go tables must declare the same workloads and
// the same metrics, in the same order, with the same units.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from code %q", i, s.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s: %q / %q is not a legal name / unit", kind, d.name, d.unit)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v of %s outside (0, 0.25]", kind, g.Bound, g.Name)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, layerDefs(), false)
}

// Every workload, the traced run and every probe at toy sizes: exactly
// the declared metrics come out, the runs are correct and repeat
// exactly, the trace files are written, and the bypass predictions that
// make the workloads worth having hold.
func TestToyWorkloads(t *testing.T) {
	defer func(d time.Duration, n int) { probeSample, calibIters = d, n }(probeSample, calibIters)
	probeSample, calibIters = 200*time.Microsecond, 1<<12

	for _, w := range workloads {
		w := w.toy()
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			rp, err := measure(w, 7, 0, dir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rp.Correct || rp.Failed != 0 || rp.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", rp.Correct, rp.Failed, rp.Attempted)
			}
			want := append(append([]metricDef(nil), endToEnd...), layerDefs()...)
			if len(rp.Metrics) != len(want) {
				t.Errorf("%d metrics reported, %d declared", len(rp.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rp.Metrics[d.name]
				if !ok {
					t.Errorf("metric %s not reported", d.name)
				} else if m.Unit != d.unit || m.Clock != d.clock {
					t.Errorf("%s reported as %s/%s, declared %s/%s", d.name, m.Unit, m.Clock, d.unit, d.clock)
				}
			}
			for _, name := range []string{"setup_s", "host_ns_per_op", "allocs_per_op", "virt_ops_per_s", "virt_max_latency_us", "sim.dispatches_per_op", "sim.probe_epoch_host_ns", "sysabi.calls_per_op", "vos.net_bytes_per_op", "vos.virt_ns_per_call", "dsu.update_points_per_op", "mve.virt_service_ns_per_op"} {
				if rp.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rp.Metrics[name].Value)
				}
			}
			for _, f := range []string{"host_trace.json", "virt_trace.json"} {
				raw, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: not a Chrome trace with events: %v", f, err)
				}
			}

			val := func(name string) float64 { return rp.Metrics[name].Value }
			duo := w.held || w.train || w.variants > 0
			if got := val("ringbuf.puts_per_op") > 0; got != duo {
				t.Errorf("ringbuf.puts_per_op = %v; ring traffic expected: %v", val("ringbuf.puts_per_op"), duo)
			}
			if got := val("sim.slice_host_share_follower_pct") > 0; got != duo {
				t.Errorf("follower host share = %v; followers expected: %v", val("sim.slice_host_share_follower_pct"), duo)
			}
			if got := val("dsl.rule_hits_per_op") > 0; got != w.train {
				t.Errorf("dsl.rule_hits_per_op = %v; rules expected to fire: %v", val("dsl.rule_hits_per_op"), w.train)
			}
			if w.train && (val("core.commits") != 4 || val("core.updates") != 4 || val("mve.promotions") != 4) {
				t.Errorf("train: updates/commits/promotions = %v/%v/%v, want 4/4/4", val("core.updates"), val("core.commits"), val("mve.promotions"))
			}
			if val("core.rollbacks")+val("core.retries")+val("core.fleet_ejects")+val("ringbuf.dropped")+val("mve.divergences") != 0 {
				t.Errorf("rollbacks, retries, ejects, drops or divergences on a fault-free workload")
			}
			if w.variants > 0 && val("mve.replayed_per_recorded") < 1.5 {
				t.Errorf("fleet of %d replays %v events per recorded one", w.variants, val("mve.replayed_per_recorded"))
			}
			if w.app == appFTP && val("vos.fs_bytes_per_op") < float64(w.fileKiB<<10) {
				t.Errorf("ftp moved %v file bytes per %d KiB transfer", val("vos.fs_bytes_per_op"), w.fileKiB)
			}
		})
	}
}

// A different seed is a different simulation; the same seed the same.
func TestSeedDrivesTheSimulation(t *testing.T) {
	defer func(n int) { calibIters = n }(calibIters)
	calibIters = 1 << 12
	w, _ := findWorkload("kv_single")
	w = w.toy()
	digest := func(seed uint64) string {
		rp, err := measure(w, seed, 0, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return rp.VirtDigest
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Errorf("seed 1 simulated %s then %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 both simulated %s", a)
	}
}

// The client must notice a wrong, short or malformed reply.
func TestClientFraming(t *testing.T) {
	for _, tc := range []struct {
		in   string
		done bool
	}{
		{"+OK\r\n", true}, {"+OK", false}, {"$-1\r\n", true}, {"$5\r\nab", false},
		{"$5\r\nabcde\r\n", true}, {"$12\r\nabcde\r\n", false}, {"-ERR x\r\n", true},
	} {
		if got := respComplete([]byte(tc.in)); got != tc.done {
			t.Errorf("respComplete(%q) = %v", tc.in, got)
		}
	}
	for _, tc := range []struct {
		in   string
		done bool
	}{
		{"END\r\n", true}, {"VALUE k 0 2\r\nab\r\n", false}, {"VALUE k 0 2\r\nab\r\nEND\r\n", true}, {"ERROR\r\n", true},
	} {
		if got := mcGetComplete([]byte(tc.in)); got != tc.done {
			t.Errorf("mcGetComplete(%q) = %v", tc.in, got)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 7, 3, 5, 8, 2, 10, 4, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v, Python gives 1 2 3", q1, med, q3)
	}
}

// -compare is tolerance-based: exact clocks must be equal, host clocks
// may move by the bound, and a spread wider than the bound is
// unresolved rather than unchanged.
func TestJudge(t *testing.T) {
	host := metricDef{"host_ns_per_op", "ns", "lower", clockHost}
	virt := metricDef{"virt_ops_per_s", "1/s", "higher", clockVirt}
	m := func(v, q1, q3 float64, samples ...float64) metric {
		return metric{Value: v, Q1: q1, Q3: q3, Samples: samples}
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b metric
		want string
	}{
		{"virt equal", virt, m(5, 5, 5), m(5, 5, 5), "same"},
		{"virt moved", virt, m(5, 5, 5), m(5.0001, 5, 5), "DIFFERS"},
		{"host within bound", host, m(100, 99, 101), m(105, 104, 106), "unchanged"},
		{"host worse", host, m(100, 99, 101), m(115, 114, 116), "regressed"},
		{"host better", host, m(100, 99, 101), m(80, 79, 81), "improved"},
		{"host noisy", host, m(100, 90, 112, 90, 100, 112), m(115, 114, 116, 114, 115, 116), "unresolved"},
		{"host noisy but disjoint", host, m(100, 90, 112, 90, 100, 112), m(70, 69, 71, 69, 70, 71), "improved"},
	} {
		if got := judge(tc.d, tc.a, tc.b, 0.10, true); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := judge(metricDef{"sim.probe_yield_host_ns", "ns", "lower", clockHost}, m(1, 1, 1), m(2, 2, 2), 0, false); got != "info" {
		t.Errorf("unbounded host metric: %s, want info", got)
	}
}

// --out accumulates runs; --compare folds them: medians over runs for
// host metrics, equality in every run for exact ones.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, hostNS []float64, virt float64, digest string) string {
		path := filepath.Join(dir, name)
		for _, ns := range hostNS {
			rp := &report{Workload: "kv_single", Correct: true, VirtDigest: digest, Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				rp.Metrics[d.name] = metric{Value: 1, Unit: d.unit, Clock: d.clock, Q1: 1, Q3: 1}
			}
			rp.Metrics["host_ns_per_op"] = metric{Value: ns, Unit: "ns", Clock: clockHost, Q1: ns, Q3: ns}
			rp.Metrics["virt_ops_per_s"] = metric{Value: virt, Unit: "1/s", Clock: clockVirt, Q1: virt, Q3: virt}
			if err := mergeReport(path, rp); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	a := write("a.json", []float64{100, 102, 98}, 5000, "d1")
	var out bytes.Buffer
	if err := compareFiles(spec, a, write("same.json", []float64{101, 99, 103}, 5000, "d1"), &out); err != nil {
		t.Errorf("same code: %v\n%s", err, out.String())
	}
	if err := compareFiles(spec, a, write("slow.json", []float64{150, 152, 149}, 5000, "d1"), io.Discard); err == nil {
		t.Error("a 50 % slowdown over three runs compared clean")
	}
	if err := compareFiles(spec, a, write("model.json", []float64{100, 101, 99}, 5001, "d2"), io.Discard); err == nil {
		t.Error("a changed simulation compared clean")
	}
	if err := compareFiles(spec, a, write("flaky.json", []float64{100}, 5000, "d1"), io.Discard); err != nil {
		t.Errorf("one run against three: %v", err)
	}
}
