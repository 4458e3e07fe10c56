package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// The profile experiment answers "where does the virtual time go?" with
// the exact virtual-clock profiler (internal/obs/profile.go): every
// scheduler slice charged to a shard/process/role/activity stack, no
// sampling. Three scenario families make the paper's cost story
// visible in one artifact:
//
//   - duo: the Memcached record/replay pair across synchronization
//     modes — lockstep_wait dominates in lockstep mode and shrinks to
//     nothing once the ring buffer decouples the pair, and the
//     MVEDSUA mid-run update adds an xform share.
//   - fleet: the K-replica kvstore fleet — validation time grows
//     linearly with K while the leader's service share stays flat
//     (replicas replay a recorded stream; the leader never waits for
//     them).
//   - sweep: the same 4-group kvstore duo workload placed on 1, 2 and
//     4 shards — per-shard busy+idle == makespan exactly, and the
//     cpu-only fold is byte-identical at every placement.
//
// Every number is virtual-time-derived, so BENCH_profile.json is
// byte-stable run-to-run; `make check` diffs it.

// ProfileSchemaID is the report format identifier.
const ProfileSchemaID = "mvedsua-profile/v1"

// ProfileShare is one attribution line of a scenario's time-share
// table: a folded stack, its accounting dimension, and its share of
// the scenario's summed shard makespans.
type ProfileShare struct {
	Stack     string  `json:"stack"`
	Kind      string  `json:"kind"` // "cpu", "off", or "idle"
	VirtualUS int64   `json:"virtual_us"`
	Share     float64 `json:"share"` // of summed makespan, rounded to 1e-6
}

// ProfileShardTotal is one shard's makespan identity (busy + idle ==
// makespan, checked exactly in nanoseconds before the microsecond
// truncation here).
type ProfileShardTotal struct {
	Shard      int   `json:"shard"`
	BusyUS     int64 `json:"busy_us"`
	IdleUS     int64 `json:"idle_us"`
	MakespanUS int64 `json:"makespan_us"`
}

// ProfileScenario is one profiled run. The headline fields pull the
// stacks the experiment's claims ride on out of the full share table.
type ProfileScenario struct {
	Name      string `json:"name"`
	Mode      string `json:"mode,omitempty"`
	K         int    `json:"k,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	VirtualUS int64  `json:"virtual_us"` // summed shard makespans

	// Headline attributions (microseconds of virtual time).
	LeaderServiceUS int64 `json:"leader_service_us"`
	ValidateUS      int64 `json:"validate_us"`
	XformUS         int64 `json:"xform_us"`
	RingWaitUS      int64 `json:"ring_wait_us"`
	LockstepWaitUS  int64 `json:"lockstep_wait_us"`

	// SumsToMakespan records the exactness invariant: on every shard,
	// busy + idle == makespan to the nanosecond.
	SumsToMakespan bool                `json:"sums_to_makespan"`
	Totals         []ProfileShardTotal `json:"shard_totals"`
	Shares         []ProfileShare      `json:"shares"`
}

// ProfileReport is the `benchtool -experiment profile` artifact
// (BENCH_profile.json).
type ProfileReport struct {
	Schema string            `json:"schema"`
	Duo    []ProfileScenario `json:"duo"`
	Fleet  []ProfileScenario `json:"fleet"`
	Sweep  []ProfileScenario `json:"sweep"`
	// FoldedCPUInvariant: the sweep's cpu-only folded output was
	// byte-identical across the 1-, 2- and 4-shard placements.
	FoldedCPUInvariant bool `json:"folded_cpu_invariant"`
}

// usOf truncates a virtual duration to whole microseconds.
func usOf(d time.Duration) int64 { return int64(d / time.Microsecond) }

// round6 rounds a share to 6 decimals so the JSON is byte-stable.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// profileScenario folds a finished profiler into a scenario row.
func profileScenario(name string, prof *obs.Profiler) ProfileScenario {
	sc := ProfileScenario{Name: name}
	var totalMk time.Duration
	sc.SumsToMakespan = true
	for _, t := range prof.ShardTotals() {
		if t.Busy+t.Idle != t.Makespan {
			sc.SumsToMakespan = false
		}
		totalMk += t.Makespan
		sc.Totals = append(sc.Totals, ProfileShardTotal{
			Shard: t.Shard, BusyUS: usOf(t.Busy), IdleUS: usOf(t.Idle), MakespanUS: usOf(t.Makespan),
		})
	}
	sc.VirtualUS = usOf(totalMk)
	for _, r := range prof.Rows() {
		share := 0.0
		if totalMk > 0 {
			share = round6(float64(r.Dur) / float64(totalMk))
		}
		sc.Shares = append(sc.Shares, ProfileShare{
			Stack:     fmt.Sprintf("shard%d;%s", r.Shard, r.Stack),
			Kind:      r.Kind,
			VirtualUS: usOf(r.Dur),
			Share:     share,
		})
		marked := ";" + r.Stack + ";"
		waitLeaf := strings.HasSuffix(r.Stack, ";"+obs.LblRingWait) ||
			strings.HasSuffix(r.Stack, ";"+obs.LblLockstepWait)
		if r.Kind == "cpu" && strings.Contains(marked, ";"+obs.LblLeader+";"+obs.LblService+";") {
			sc.LeaderServiceUS += usOf(r.Dur)
		}
		// Wait-leaf rows count toward their own columns, not the work
		// they were blocked inside — validate/xform report work done.
		if !waitLeaf && strings.Contains(marked, ";"+obs.LblValidate+";") {
			sc.ValidateUS += usOf(r.Dur)
		}
		if !waitLeaf && strings.Contains(marked, ";"+obs.LblXform+";") {
			sc.XformUS += usOf(r.Dur)
		}
		if strings.HasSuffix(r.Stack, ";"+obs.LblRingWait) {
			sc.RingWaitUS += usOf(r.Dur)
		}
		if strings.HasSuffix(r.Stack, ";"+obs.LblLockstepWait) {
			sc.LockstepWaitUS += usOf(r.Dur)
		}
	}
	return sc
}

// Duo scenario timing: a short warmup, then a fixed measurement window
// (the update scenario installs its update between the two warmup
// halves, exactly like the Table 2 Mvedsua-2 cell).
const (
	profileDuoWarmup = 50 * time.Millisecond
	profileDuoWindow = 200 * time.Millisecond
)

// runProfileDuo profiles the Memcached record/replay duo in one
// synchronization mode under the Table 2 protocol: in ModeMvedsua2 the
// 1.2.2 -> 1.2.3 update installs mid-warmup, so the state transformation
// and the outdated-leader validation phase land in the profile.
func runProfileDuo(name string, mode Mode) (ProfileScenario, error) {
	s := sim.New()
	rec := obs.New(s.Now, obs.Options{})
	prof := obs.NewProfiler()
	s.SetProfiler(prof.ShardSink(0, s.Now))
	err := measure(s, MemcachedTarget(), mode, 256, rec, NewMetrics(0), func(w *world, tk *sim.Task) error {
		if err := w.warmUp(tk, profileDuoWarmup); err != nil {
			return err
		}
		tk.Sleep(profileDuoWindow)
		return w.validating("duo did not survive the window")
	})
	if err != nil {
		return ProfileScenario{}, err
	}
	sc := profileScenario(name, prof)
	sc.Mode = mode.String()
	return sc, nil
}

// profileFleetScenarios are the profile experiment's fleet runs: a
// K-replica kvstore session of 60 requests at K = 1, 2 and 3, and one at
// K = 3 with a canary-staged update installed before request 10, which
// must promote cleanly.
func profileFleetScenarios() []scenario {
	fleet := func(name string, k, updateAt int) scenario {
		want := apptest.Outcome{Leader: "2.0.0", Fleet: k}
		if updateAt >= 0 {
			want = apptest.Outcome{Leader: "2.0.1", Fleet: k, Counters: map[string]int64{obs.CCanaryPromotions: 1}}
		}
		return scenario{
			name:  name,
			cfg:   fleetConfig(k),
			setup: func(w *apptest.World) { w.K.BaseCost = KernelCost },
			drive: func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
				for i := 0; i < 60; i++ {
					if i == updateAt {
						w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
					}
					c.Do(tk, "INCR prof")
					tk.Sleep(5 * time.Millisecond)
				}
				tk.Sleep(200 * time.Millisecond)
			},
			want: want,
		}
	}
	return []scenario{fleet("fleet-k1", 1, -1), fleet("fleet-k2", 2, -1), fleet("fleet-k3", 3, -1), fleet("fleet-k3-canary", 3, 10)}
}

// runProfileFleet profiles one fleet run.
func runProfileFleet(sc scenario) (ProfileScenario, error) {
	var prof *obs.Profiler
	_, _, breaches := sc.with(func(w *apptest.World) { prof = w.EnableProfiling() }).run()
	if err := failed(breaches); err != nil {
		return ProfileScenario{}, err
	}
	ps := profileScenario(sc.name, prof)
	ps.K = len(sc.cfg.Variants)
	return ps, nil
}

// Sweep sizing: 4 groups so the 4-shard point places one group per
// shard, strong scaling (the total workload is placement-invariant).
const (
	profileSweepGroups  = 4
	profileSweepClients = 1
	profileSweepOps     = 80
)

// runProfileSweep profiles the fixed kvstore duo workload at one shard
// count and returns the scenario row plus the finished profiler (whose
// cpu-only fold is the placement-invariance witness).
func runProfileSweep(shards int) (ProfileScenario, *obs.Profiler, error) {
	ss := sim.NewSharded(shards, speedupQuantum)
	prof := obs.NewProfiler()
	for i := 0; i < shards; i++ {
		sh := ss.Shard(i)
		sh.SetProfiler(prof.ShardSink(i, sh.Now))
	}
	placeGroups(ss, profileSweepGroups, profileSweepClients, profileSweepOps)
	if err := ss.Run(); err != nil {
		return ProfileScenario{}, nil, err
	}
	sc := profileScenario(fmt.Sprintf("kvstore-duo-%dshard", shards), prof)
	sc.Shards = shards
	sc.Mode = ModeVaran2.String()
	return sc, prof, nil
}

// RunProfileReport executes all three scenario families and assembles
// the artifact.
func RunProfileReport() (*ProfileReport, error) {
	report := &ProfileReport{Schema: ProfileSchemaID}

	duos := []struct {
		name string
		mode Mode
	}{
		{"memcached-lockstep", ModeLockstep},
		{"memcached-ring", ModeVaran2},
		{"memcached-update", ModeMvedsua2},
	}
	for _, d := range duos {
		sc, err := runProfileDuo(d.name, d.mode)
		if err != nil {
			return nil, fmt.Errorf("profile duo %s: %w", d.name, err)
		}
		report.Duo = append(report.Duo, sc)
	}

	for _, fleet := range profileFleetScenarios() {
		sc, err := runProfileFleet(fleet)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", fleet.name, err)
		}
		report.Fleet = append(report.Fleet, sc)
	}

	var baseFold string
	report.FoldedCPUInvariant = true
	for _, shards := range []int{1, 2, 4} {
		sc, prof, err := runProfileSweep(shards)
		if err != nil {
			return nil, fmt.Errorf("profile sweep shards=%d: %w", shards, err)
		}
		if fold := prof.FoldedCPU(); baseFold == "" {
			baseFold = fold
		} else if fold != baseFold {
			report.FoldedCPUInvariant = false
		}
		report.Sweep = append(report.Sweep, sc)
	}
	return report, nil
}

// FormatProfileReport renders the report for the terminal: per
// scenario, the headline attributions and the top time shares.
func FormatProfileReport(r *ProfileReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Virtual-clock profile (%s)\n", r.Schema)

	section := func(title string, scs []ProfileScenario) {
		fmt.Fprintf(&b, "\n  %s:\n", title)
		fmt.Fprintf(&b, "    %-22s %10s %10s %10s %10s %10s %10s\n",
			"scenario", "virtual-us", "lead-svc", "validate", "xform", "ring-wait", "lockstep")
		for _, sc := range scs {
			fmt.Fprintf(&b, "    %-22s %10d %10d %10d %10d %10d %10d\n",
				sc.Name, sc.VirtualUS, sc.LeaderServiceUS, sc.ValidateUS,
				sc.XformUS, sc.RingWaitUS, sc.LockstepWaitUS)
		}
	}
	section("Memcached duo (synchronization modes)", r.Duo)
	section("kvstore fleet (validation vs K)", r.Fleet)
	section("kvstore duo sweep (placements)", r.Sweep)

	fmt.Fprintf(&b, "\n  cpu fold placement-invariant across 1/2/4 shards: %v\n", r.FoldedCPUInvariant)
	for _, sc := range r.Sweep {
		fmt.Fprintf(&b, "  %s shard identity (busy+idle==makespan): %v\n", sc.Name, sc.SumsToMakespan)
	}

	// Worked flamegraph excerpt: the update scenario's top shares.
	for _, sc := range r.Duo {
		if !strings.HasSuffix(sc.Name, "-update") {
			continue
		}
		top := append([]ProfileShare(nil), sc.Shares...)
		sort.Slice(top, func(i, j int) bool {
			if top[i].VirtualUS != top[j].VirtualUS {
				return top[i].VirtualUS > top[j].VirtualUS
			}
			return top[i].Stack < top[j].Stack
		})
		if len(top) > 8 {
			top = top[:8]
		}
		fmt.Fprintf(&b, "\n  %s top stacks:\n", sc.Name)
		for _, s := range top {
			fmt.Fprintf(&b, "    %-60s %4s %10dus %8.4f\n", s.Stack, s.Kind, s.VirtualUS, s.Share)
		}
	}
	return b.String()
}
