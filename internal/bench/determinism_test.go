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

// TestMemcachedDuoSettledShare pins the census behind ROADMAP item 7:
// of every 100 scheduler dispatches the 4-worker Memcached duo makes in
// the outdated-leader stage (Table 2's Mvedsua-2 row, the benchmark's
// mc_duo shape), how many are a follower thread woken by another
// thread's retirement while still out of turn — dispatches the scheduler
// settles by parking the thread again without switching into it
// (sim.Task.BlockWhile; its one caller is mve's turn wait). Everything
// else is a real switch. The run is deterministic, so the numbers are
// exact; if they move, the schedule moved.
func TestMemcachedDuoSettledShare(t *testing.T) {
	s := sim.New()
	var settled, dispatches int64
	err := measure(s, MemcachedTarget(), ModeMvedsua2, 0, nil, NewMetrics(0), func(w *world, tk *sim.Task) error {
		if err := w.warmUp(tk, 20*time.Millisecond); err != nil {
			return err
		}
		s0, d0 := s.Settled(), s.Dispatches()
		tk.Sleep(100 * time.Millisecond)
		settled, dispatches = s.Settled()-s0, s.Dispatches()-d0
		return w.validating("duo did not survive the window")
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantSettled, wantDispatches = 84528, 132148
	if settled != wantSettled || dispatches != wantDispatches {
		t.Fatalf("settled %d of %d dispatches (%.1f%%), want %d of %d",
			settled, dispatches, 100*float64(settled)/float64(dispatches), wantSettled, wantDispatches)
	}
}
