package bench

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apps/memcache"
	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// The relation table. A relation is a variant of a run and a check of
// what must not change under it: the harness checks its own instruments
// the way MVEDSUA checks an update, by comparing two executions that must
// agree. Each relation row is one test below, run by checkRelation on
// every run the catalogue's experiments build from a scenario table, plus
// two worlds; the shard row runs on whole sharded workloads.

// probe is what the variant side of a relation changes about a run; the
// bare side is the zero probe.
type probe struct {
	profiled bool // a profiler sink on the scheduler
	traced   bool // span tracing (apptest.World.EnableSpanTracing)
	ringX    int  // ring capacity multiplier; 0 keeps the run's own
}

// relation is one row over single runs: the variant and the check its
// bare and variant sides must pass, "" if they do.
type relation struct {
	name    string
	variant probe
	check   func(bare, variant observed) string
}

// The rows over single runs. The two span rows share a variant: one holds
// the schedule fixed, the other every other observable, with spans on the
// traced side only. The capacity row applies to runs whose ring neither
// blocked nor dropped, since a ring that filled can tell a bigger one
// apart.
var (
	profilerRelation = relation{"profiler", probe{profiled: true}, observed.diff}
	spanRelation     = relation{"span", probe{traced: true}, sameSchedule}
	spansRelation    = relation{"spans", probe{traced: true}, onlyAddsSpans}
	capacityRelation = relation{"capacity", probe{ringX: 16}, observed.diff}
)

// relationExceptions are where a relation is known not to hold, keyed
// as the relation tests report them ("row run", or "shard workload fact"),
// each with its reason. The test still checks each one, logs what
// differs, and fails once the relation holds there, so an exception
// cannot outlive its cause.
var relationExceptions = map[string]string{
	// A shard is a simulated core: groups placed on one queue for it.
	"shard speedup-groups merged histograms":    "latencies and ring block waits are virtual time, which co-located groups share: the speedup curve measures exactly this",
	"shard controller-groups merged histograms": "syscall latency counts the wait for a core that co-located groups share",
	// placeGroups' driver tears a group down once its clients finish.
	"shard speedup-groups merged counters": "teardown cuts the follower off mid-backlog behind a ring that blocked, at a point set by the CPU co-located groups left it: mve.replayed, ringbuf.get and sysabi.calls.follower move with placement",
	"shard speedup-groups merged gauges":   "ringbuf.occupancy is the backlog the teardown cut-off left",
	"shard speedup-groups cpu fold":        "the follower's validate time is what it replayed before the teardown cut-off",
}

// errNoSpanSwitch is the probe a bench world cannot take.
var errNoSpanSwitch = errors.New("a bench world has no span switch")

// fact is one named observable, rendered.
type fact struct{ name, value string }

// factsDiff names the first fact whose values differ, with the text
// around the first byte where they part, "" if none.
func factsDiff(a, b []fact) string {
	for i := range a {
		x, y := a[i].value, b[i].value
		if x == y {
			continue
		}
		at := 0
		for at < len(x) && at < len(y) && x[at] == y[at] {
			at++
		}
		around := func(s string) string { return s[max(0, at-60):min(len(s), at+60)] }
		return fmt.Sprintf("%s differs at byte %d: %q vs %q", a[i].name, at, around(x), around(y))
	}
	return ""
}

// observed is what a relation compares between the two sides of a run:
// the schedule, then the facts (final clock, client transcript, final
// state with the judge's breaches, metrics); and the spans recorded and
// whether the ring blocked or dropped.
type observed struct {
	sched  schedule
	facts  []fact
	spans  int
	filled bool
}

// newObserved takes a finished run's observables, its metrics and spans
// from rec.
func newObserved(sched schedule, clock time.Duration, transcript, final string, rec *obs.Recorder) observed {
	m := rec.Snapshot()
	return observed{
		sched: sched,
		facts: []fact{{"final clock", clock.String()}, {"client transcript", transcript},
			{"final state", final}, {"metrics", fmt.Sprintf("%+v", m)}},
		spans:  len(rec.Spans()),
		filled: m.Counters[obs.CRingBlocked] > 0 || m.Counters[obs.CRingDropped] > 0,
	}
}

// diff names the first observable where a and b differ, "" if none.
func (a observed) diff(b observed) string {
	if d := sameSchedule(a, b); d != "" {
		return d
	}
	return factsDiff(a.facts, b.facts)
}

// sameSchedule names the first dispatch where a and b part, "" if none.
func sameSchedule(a, b observed) string {
	if d := scheduleDiff(a.sched, b.sched); d != "" {
		return "schedule: " + d
	}
	return ""
}

// onlyAddsSpans names the first fact where untraced and traced differ, or
// where spans were recorded untraced or none traced, "" if neither.
func onlyAddsSpans(untraced, traced observed) string {
	if d := factsDiff(untraced.facts, traced.facts); d != "" {
		return d
	}
	if untraced.spans != 0 || traced.spans == 0 {
		return fmt.Sprintf("%d spans untraced, %d traced; want none, then some", untraced.spans, traced.spans)
	}
	return ""
}

// relationRun is one run of the table, built afresh for each side:
// injections carry their fired state.
type relationRun struct {
	name string
	run  func(p probe) (observed, error)
}

// each maps xs to scenarios with f.
func each[T any](xs []T, f func(T) scenario) []scenario {
	var out []scenario
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// relationRuns is every run the catalogue's experiments build from a
// scenario table, plus two worlds at the sizes earlier pair tests used:
// the Memcached 1.2.2 → 1.2.3 update, its requests tagged, and Redis
// under Varan-2 for 100ms.
func relationRuns() []relationRun {
	unreported := func(t tracked) scenario {
		return t.scenario(func(*apptest.World, obs.SLOReport, string) {})
	}
	tables := []struct {
		name  string
		build func() []scenario
	}{
		{"metrics", metricsScenarios},
		{"timeline", timelineScenarios},
		{"nvariant", func() []scenario { return append(nvariantOverheadScenarios(), nvariantScenarios()...) }},
		{"faults", func() []scenario { return each(faultRows, func(row func() scenario) scenario { return row() }) }},
		{"chaos", func() []scenario {
			return each(ChaosMatrix(), func(cs ChaosScenario) scenario { return chaosCell(cs, nil) })
		}},
		{"slo", func() []scenario { return each(sloScenarios(), unreported) }},
		{"train", func() []scenario { return each(trainScenarios(), unreported) }},
		{"profile", profileFleetScenarios},
		{"world", func() []scenario { return []scenario{memcachedUpdate()} }},
	}
	var runs []relationRun
	for _, table := range tables {
		for i, sc := range table.build() {
			runs = append(runs, relationRun{table.name + "/" + sc.name, func(p probe) (observed, error) {
				return observe(table.build()[i], p), nil
			}})
		}
	}
	return append(runs, relationRun{"world/varan2-redis", varan2Redis})
}

// observe runs sc with p applied.
func observe(sc scenario, p probe) observed {
	if p.ringX > 0 {
		if sc.cfg.BufferEntries == 0 {
			sc.cfg.BufferEntries = 256 // core's default
		}
		sc.cfg.BufferEntries *= p.ringX
	}
	var sched *schedule
	w, _, breaches := sc.with(func(w *apptest.World) {
		if p.profiled {
			w.EnableProfiling()
		}
		if p.traced {
			w.EnableSpanTracing()
		}
		sched = recordSchedule(w.S) // last: it wraps the span hook
	}).run()
	return newObserved(*sched, w.S.Now(), fmt.Sprintf("%+v", w.Transcript()),
		fmt.Sprintf("%+v; breaches: %s", w.Final(), summary(breaches)), w.Rec)
}

// memcachedUpdate is the Memcached 1.2.2 → 1.2.3 duo update with every
// request tagged: the most interleaving-sensitive lifecycle in the suite.
func memcachedUpdate() scenario {
	sc := memcachedScenario(core.Config{}, memcache.AbortReset)
	sc.name = "memcached-update"
	sc.want = apptest.Outcome{Leader: "1.2.3", Counters: tally(1, 0)}
	sc.drive = func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		reqID := uint64(1)
		c.SendTagged(tk, reqID, "set k 0 0 5\r\nhello\r\n")
		c.DrainUntil(tk, "STORED\r\n")
		get := func(n int) {
			for i := 0; i < n; i++ {
				reqID++
				c.SendTagged(tk, reqID, "get k\r\n")
				c.DrainUntil(tk, "END\r\n")
				tk.Sleep(15 * time.Millisecond)
			}
		}
		w.C.Update(memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{}))
		for round := 0; round < 40 && w.C.Stage() != core.StageOutdatedLeader; round++ {
			get(1)
		}
		promoteIfInstalled(w.C, get)
	}
	return sc
}

// varan2Redis runs Redis under Varan-2 on a 256-entry ring for 100ms.
func varan2Redis(p probe) (observed, error) {
	if p.traced {
		return observed{}, errNoSpanSwitch
	}
	s := sim.New()
	rec := obs.New(s.Now, obs.Options{})
	if p.profiled {
		s.SetProfiler(obs.NewProfiler().ShardSink(0, s.Now))
	}
	sched := recordSchedule(s)
	m := NewMetrics(0)
	err := measure(s, RedisTarget(), ModeVaran2, 256*max(p.ringX, 1), rec, m, func(_ *world, tk *sim.Task) error {
		tk.Sleep(100 * time.Millisecond)
		return nil
	})
	return newObserved(*sched, s.Now(), "", fmt.Sprintf("ops %d, max latency %v", m.Ops, m.MaxLatency), rec), err
}

// shardWorkloads are the shard row's runs: shard-local groups whose
// merged metrics, clients, outcomes and cpu fold must not depend on how
// many shards they are placed on.
var shardWorkloads = []struct {
	name string
	run  func(shards int) ([]fact, error)
}{
	{"speedup-groups", speedupGroupsFacts},
	{"controller-groups", controllerGroupsFacts},
}

// profileShards attaches one profiler to every shard of ss.
func profileShards(ss *sim.ShardedScheduler) *obs.Profiler {
	prof := obs.NewProfiler()
	for i := 0; i < ss.Shards(); i++ {
		sh := ss.Shard(i)
		sh.SetProfiler(prof.ShardSink(i, sh.Now))
	}
	return prof
}

// mergedFacts renders a merged snapshot as three facts, each checked on
// its own.
func mergedFacts(s obs.Snapshot) []fact {
	return []fact{{"merged counters", fmt.Sprint(s.Counters)}, {"merged gauges", fmt.Sprint(s.Gauges)},
		{"merged histograms", fmt.Sprintf("%+v", s.Histograms)}}
}

// speedupGroupsFacts runs the perf experiment's speedup workload, the
// Varan-2 groups of placeGroups, on shards shards.
func speedupGroupsFacts(shards int) ([]fact, error) {
	ss := sim.NewSharded(shards, speedupQuantum)
	prof := profileShards(ss)
	groups := placeGroups(ss, speedupGroups, speedupClients, speedupOps)
	if err := ss.Run(); err != nil {
		return nil, err
	}
	merged := obs.NewRegistry("")
	var ops int64
	for _, gr := range groups {
		ops += gr.m.Ops
		gr.rec.Root().MergeInto(merged)
	}
	return append(mergedFacts(merged.Snapshot()), fact{"total ops", fmt.Sprint(ops)}, fact{"cpu fold", prof.FoldedCPU()}), nil
}

// controllerGroupsFacts runs four Redis controller worlds of
// apptest.NewShardedWorld on shards shards, each with one client of 12
// requests.
func controllerGroupsFacts(shards int) ([]fact, error) {
	sw := apptest.NewShardedWorld(shards, 4)
	prof := profileShards(sw.SS)
	for g, w := range sw.Worlds {
		w.Start(redis())
		w.S.Go(fmt.Sprintf("client%d", g), func(tk *sim.Task) {
			defer w.Finish()
			c := w.Connect(tk, kvstore.Port)
			defer c.Close(tk)
			for i := 0; i < 12; i++ {
				c.Do(tk, fmt.Sprintf("INCR g%d", g))
			}
		})
	}
	if err := sw.Run(); err != nil {
		return nil, err
	}
	facts := mergedFacts(sw.MergedMetrics().Snapshot())
	for g, w := range sw.Worlds {
		facts = append(facts, fact{fmt.Sprintf("group %d transcript", g), fmt.Sprintf("%+v", w.Transcript())},
			fact{fmt.Sprintf("group %d final state", g), fmt.Sprintf("%+v", w.Final())})
	}
	return append(facts, fact{"cpu fold", prof.FoldedCPU()}), nil
}

// relationVerdict fails the test on d, the difference found at key,
// unless relationExceptions lists key; a listed key where nothing differs
// fails too.
func relationVerdict(t *testing.T, key, d string) {
	t.Helper()
	reason, ok := relationExceptions[key]
	switch {
	case ok && d == "":
		t.Errorf("%s: listed as an exception (%s), but the relation holds", key, reason)
	case ok:
		t.Logf("%s: known exception (%s): %s", key, reason, d)
	case d != "":
		t.Errorf("%s: %s", key, d)
	}
}

// checkRelation runs every run of relationRuns bare and under rel's
// variant, each side built afresh, and passes each pair to rel.check.
func checkRelation(t *testing.T, rel relation) {
	runs := relationRuns()
	checked, skipped := 0, 0
	for _, r := range runs {
		bare, err := r.run(probe{})
		if err != nil {
			t.Errorf("%s: %v", r.name, err)
			continue
		}
		if rel.variant.ringX > 0 && bare.filled {
			skipped++
			continue
		}
		variant, err := r.run(rel.variant)
		if errors.Is(err, errNoSpanSwitch) {
			skipped++
			continue
		}
		d := rel.check(bare, variant)
		if err != nil {
			d = err.Error()
		}
		relationVerdict(t, rel.name+" "+r.name, d)
		checked++
	}
	t.Logf("%s: %d of %d runs checked, %d not applicable", rel.name, checked, len(runs), skipped)
}

// A profiler sink on the scheduler changes no dispatch, clock, client
// byte, final state or metric.
func TestProfilingDoesNotPerturbSchedule(t *testing.T) { checkRelation(t, profilerRelation) }

// Span tracing changes no dispatch.
func TestSpanTracingDoesNotPerturbSchedule(t *testing.T) { checkRelation(t, spanRelation) }

// Span tracing changes no clock, client byte, final state or metric, and
// spans are recorded when it is on and only then.
func TestSpanModeOnlyAddsSpans(t *testing.T) { checkRelation(t, spansRelation) }

// A ring sixteen times bigger changes nothing about a run whose ring
// neither blocked nor dropped.
func TestRingCapacityDoesNotPerturbSchedule(t *testing.T) { checkRelation(t, capacityRelation) }

// The shard row: every fact of each shard workload is the same at 2 and
// 4 shards as at 1.
func TestShardCountDoesNotChangeWorkloads(t *testing.T) {
	facts := 0
	for _, wl := range shardWorkloads {
		at := map[int][]fact{}
		for _, shards := range []int{1, 2, 4} {
			f, err := wl.run(shards)
			if err != nil {
				t.Fatalf("shard %s at %d shards: %v", wl.name, shards, err)
			}
			at[shards] = f
		}
		for i, f := range at[1] {
			d := ""
			for _, shards := range []int{4, 2} {
				if x := factsDiff(at[1][i:i+1], at[shards][i:i+1]); x != "" {
					d = fmt.Sprintf("%d shards against 1: %s", shards, x)
				}
			}
			relationVerdict(t, "shard "+wl.name+" "+f.name, d)
			facts++
		}
	}
	t.Logf("shard: %d facts of %d workloads checked at 2 and 4 shards against 1", facts, len(shardWorkloads))
}
