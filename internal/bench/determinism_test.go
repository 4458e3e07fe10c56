package bench

import (
	"testing"
	"time"

	"mvedsua/internal/sim"
)

// TestMemcachedDuoSchedulingDeterministic runs the most
// interleaving-sensitive configuration in the suite — Memcached (four
// worker threads) under Varan-2 — twice and requires byte-identical
// scheduling traces. This pins the wakeAllTIDs ordering fix: group
// retirement used to wake validator threads in Go's randomized map
// order, which let duo-mode benchmark results jitter run to run.
func TestMemcachedDuoSchedulingDeterministic(t *testing.T) {
	run := func() []string {
		s := sim.New()
		// This run produces ~308k dispatches; raise the trace cap so the
		// full interleaving stays pinned, not just the newest window.
		s.SetTraceCapacity(1 << 19)
		s.SetTracing(true)
		err := measure(s, MemcachedTarget(), ModeVaran2, 0, nil, NewMetrics(0), func(_ *world, tk *sim.Task) error {
			tk.Sleep(250 * time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Trace()
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			lo := i - 6
			if lo < 0 {
				lo = 0
			}
			for j := lo; j <= i+6 && j < len(a); j++ {
				t.Logf("%7d  %-30s  %-30s", j, a[j], b[j])
			}
			t.Fatalf("first divergence at trace index %d: %q vs %q", i, a[i], b[i])
		}
	}
	t.Logf("traces identical for %d entries", len(a))
}
