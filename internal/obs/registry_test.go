package obs

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// requireRegistriesEqual compares two registries over the given metric
// names: counters, gauges and histogram aggregates (including
// interpolated quantiles).
func requireRegistriesEqual(t *testing.T, want, got *Registry, counters, gauges, hists []string) {
	t.Helper()
	for _, name := range counters {
		if w, g := want.Counter(name), got.Counter(name); w != g {
			t.Fatalf("counter %q: %d vs %d", name, w, g)
		}
	}
	for _, name := range gauges {
		if w, g := want.Gauge(name), got.Gauge(name); w != g {
			t.Fatalf("gauge %q: %d vs %d", name, w, g)
		}
	}
	for _, name := range hists {
		w, g := want.Hist(name), got.Hist(name)
		if (w == nil) != (g == nil) {
			t.Fatalf("histogram %q: presence mismatch (%v vs %v)", name, w, g)
		}
		if w == nil {
			continue
		}
		if !reflect.DeepEqual(*w, *g) {
			t.Fatalf("histogram %q: %+v vs %+v", name, *w, *g)
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
			if wq, gq := w.Quantile(q), g.Quantile(q); wq != gq {
				t.Fatalf("histogram %q q=%v: %v vs %v", name, q, wq, gq)
			}
		}
	}
}

// TestMergeOrderInvarianceSeeded is the merge-semantics property test:
// a seeded random workload lands on K registries, and MergeInto
// must produce identical aggregates regardless of merge order. With
// K=1 the merge must be the identity.
func TestMergeOrderInvarianceSeeded(t *testing.T) {
	const K = 4
	rng := rand.New(rand.NewSource(0xC0FFEE))

	counters := []string{"c.a", "c.b"}
	gauges := []string{"g.max"}
	hists := []string{"h.a", "h.b"}
	children := make([]*Registry, K)
	for i := range children {
		children[i] = NewRegistry("")
	}
	for op := 0; op < 2000; op++ {
		g := children[rng.Intn(K)]
		switch rng.Intn(4) {
		case 0:
			g.Add(counters[rng.Intn(len(counters))], int64(rng.Intn(5)+1))
		case 1:
			g.Add(counters[rng.Intn(len(counters))], 1)
		case 2:
			g.MaxGauge(gauges[0], int64(rng.Intn(1000)))
		case 3:
			g.Observe(hists[rng.Intn(len(hists))], time.Duration(rng.Intn(5_000_000)))
		}
	}

	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	merged := make([]*Registry, len(perms))
	for pi, perm := range perms {
		dst := NewRegistry("merged")
		for _, i := range perm {
			children[i].MergeInto(dst)
		}
		merged[pi] = dst
	}
	for i := 1; i < len(merged); i++ {
		requireRegistriesEqual(t, merged[0], merged[i], counters, gauges, hists)
	}

	// K=1: merging a single registry into an empty one is the identity.
	solo := NewRegistry("solo")
	children[0].MergeInto(solo)
	requireRegistriesEqual(t, children[0], solo, counters, gauges, hists)
}

// TestMergedHistogramQuantileClamps is the satellite regression for
// Histogram.Quantile on a merged histogram: two registries with
// disjoint latency ranges merge into one whose interpolated quantiles
// must stay inside the merged [Min, Max] envelope and be monotone.
func TestMergedHistogramQuantileClamps(t *testing.T) {
	fast := NewRegistry("fast")
	slow := NewRegistry("slow")
	for i := 0; i < 40; i++ {
		fast.Observe("h", 100*time.Microsecond+time.Duration(i)*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		slow.Observe("h", 9*time.Millisecond+time.Duration(i)*100*time.Microsecond)
	}
	dst := NewRegistry("merged")
	fast.MergeInto(dst)
	slow.MergeInto(dst)
	h := dst.Hist("h")
	if h == nil {
		t.Fatal("merged histogram missing")
	}
	if h.Count != 50 {
		t.Fatalf("merged count = %d, want 50", h.Count)
	}
	if h.Min != 100*time.Microsecond || h.Max != 9*time.Millisecond+900*time.Microsecond {
		t.Fatalf("merged extremes = [%v, %v]", h.Min, h.Max)
	}
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < h.Min || v > h.Max {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, h.Min, h.Max)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %v not monotone (prev %v)", q, v, prev)
		}
		prev = v
	}
	// p90 must land in the slow mode's range: 45th of 50 observations.
	if p90 := h.Quantile(0.9); p90 < 9*time.Millisecond {
		t.Fatalf("merged p90 = %v, want >= 9ms (slow mode)", p90)
	}
}

// TestFormatMetricsIncludesP90 pins the p90 column added to the
// histogram listing.
func TestFormatMetricsIncludesP90(t *testing.T) {
	r := New(nil, Options{})
	for i := 1; i <= 100; i++ {
		r.Observe("h", time.Duration(i)*time.Millisecond)
	}
	out := r.FormatMetrics()
	if !strings.Contains(out, "p90=") {
		t.Fatalf("FormatMetrics missing p90 column:\n%s", out)
	}
}
