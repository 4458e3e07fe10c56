package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/chaos"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// fleetCfg is the baseline valid fleet config the validation table
// perturbs.
func fleetCfg(variants ...string) FleetConfig {
	if len(variants) == 0 {
		variants = []string{"r1"}
	}
	return FleetConfig{
		Variants: variants,
		Canary:   CanaryGate{Window: 100 * time.Millisecond},
	}
}

func TestFleetConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*FleetConfig)
		want string // panic substring; empty = must not panic
	}{
		{"valid K=1", func(cfg *FleetConfig) {}, ""},
		{"valid K=3", func(cfg *FleetConfig) { cfg.Variants = []string{"r1", "r2", "r3"} }, ""},
		{"no variants", func(cfg *FleetConfig) { cfg.Variants = nil }, ""}, // the gate alone, K = 0
		{"empty id", func(cfg *FleetConfig) { cfg.Variants = []string{"r1", ""} }, "Variants[1] is empty"},
		{"duplicate id", func(cfg *FleetConfig) { cfg.Variants = []string{"r1", "r2", "r1"} }, `duplicate variant id "r1"`},
		{"zero window", func(cfg *FleetConfig) { cfg.Canary.Window = 0 }, "Canary.Window"},
		{"negative window", func(cfg *FleetConfig) { cfg.Canary.Window = -time.Second }, "Canary.Window"},
		{"negative budget", func(cfg *FleetConfig) { cfg.Canary.MaxDivergences = -1 }, "Canary.MaxDivergences"},
		{"negative lag bound", func(cfg *FleetConfig) { cfg.Canary.MaxLag = -2 }, "Canary.MaxLag"},
		{"embedded config still checked", func(cfg *FleetConfig) { cfg.BufferEntries = -1 }, "BufferEntries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleetCfg()
			tc.mut(&cfg)
			defer func() {
				r := recover()
				switch {
				case tc.want == "" && r != nil:
					t.Fatalf("unexpected panic: %v", r)
				case tc.want != "" && r == nil:
					t.Fatalf("no panic; want one mentioning %q", tc.want)
				case tc.want != "" && !strings.Contains(fmt.Sprint(r), tc.want):
					t.Fatalf("panic %q does not mention %q", fmt.Sprint(r), tc.want)
				}
			}()
			cfg.validate()
		})
	}
}

// fleetHarness wires a fleet controller plus a gated client.
type fleetHarness struct {
	s       *sim.Scheduler
	k       *vos.Kernel
	fc      *FleetController
	rec     *obs.Recorder
	replies []string
	done    bool
}

func newFleetHarness(cfg FleetConfig) *fleetHarness {
	s := sim.New()
	k := vos.NewKernel(s)
	rec := obs.New(s.Now, obs.Options{})
	cfg.Recorder = rec
	return &fleetHarness{s: s, k: k, rec: rec, fc: NewFleet(k, cfg)}
}

func (h *fleetHarness) client(n int, hooks map[int]func(tk *sim.Task)) {
	h.s.Go("client", func(tk *sim.Task) {
		fd := int(h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		for i := 0; i < n; i++ {
			if hook := hooks[i]; hook != nil {
				hook(tk)
			}
			h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			h.replies = append(h.replies, string(r.Data))
			tk.Sleep(10 * time.Millisecond)
		}
		h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
		h.done = true
	})
}

func (h *fleetHarness) run(t *testing.T) {
	t.Helper()
	h.s.Go("teardown", func(tk *sim.Task) {
		// A client still waiting after 5 s is wedged: tear down anyway, and
		// Run reports it as the deadlock it is.
		for i := 0; !h.done && i < 100; i++ {
			tk.Sleep(50 * time.Millisecond)
		}
		// Let in-flight verdict/respawn machinery settle before the axe.
		// Only the runtimes are killed — not Shutdown() — so the tests
		// can still assert on the monitor-side fleet state afterwards.
		tk.Sleep(100 * time.Millisecond)
		for _, fv := range h.fc.live {
			if fv.rt != nil {
				fv.rt.KillAll()
			}
		}
		if h.fc.leaderRT != nil {
			h.fc.leaderRT.KillAll()
		}
	})
	if err := h.s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func (h *fleetHarness) timelineHas(substr string) bool {
	for _, ev := range h.fc.Timeline() {
		if strings.Contains(ev.Note, substr) {
			return true
		}
	}
	return false
}

// TestFleetSteadyState: leader + two replicas validate a whole client
// session; nobody diverges, nobody is ejected.
func TestFleetSteadyState(t *testing.T) {
	h := newFleetHarness(fleetCfg("r1", "r2"))
	h.fc.Start(&srv{version: "v1"})
	h.client(6, nil)
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v", h.replies)
	}
	if h.fc.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.fc.Stage())
	}
	if got := h.fc.LiveVariants(); len(got) != 2 {
		t.Fatalf("live variants = %v", got)
	}
	if n := len(h.fc.Monitor().Divergences()); n != 0 {
		t.Fatalf("divergences: %v", h.fc.Monitor().Divergences())
	}
}

// TestFleetEjectAndRespawn: a targeted chaos crash kills one replica;
// the quorum ejects it, clients see nothing, and the slot is respawned
// from the leader at its next quiescence under a fresh incarnation.
func TestFleetEjectAndRespawn(t *testing.T) {
	cfg := fleetCfg("r1", "r2")
	plan := chaos.NewPlan(&chaos.Injection{
		Proc: "r2#1@v1", Op: sysabi.OpWrite, AfterCalls: 2, Kind: chaos.KindCrash,
	})
	cfg.WrapDispatcher = plan.Wrap
	h := newFleetHarness(cfg)
	var verdicts []string
	h.fc.OnVerdict = func(v mve.Verdict) { verdicts = append(verdicts, v.String()) }
	h.fc.Start(&srv{version: "v1"})
	h.client(8, nil)
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v (eject was client-visible)", h.replies)
	}
	if plan.Fired() != 1 {
		t.Fatalf("chaos fired %d times", plan.Fired())
	}
	if len(verdicts) != 1 || !strings.Contains(verdicts[0], "eject") {
		t.Fatalf("verdicts = %v", verdicts)
	}
	if !h.timelineHas("r2#1@v1 ejected") || !h.timelineHas("respawned variant r2#2@v1") {
		t.Fatalf("timeline missing eject/respawn: %+v", h.fc.Timeline())
	}
	live := strings.Join(h.fc.LiveVariants(), ",")
	if live != "r1#1@v1,r2#2@v1" {
		t.Fatalf("live variants = %q", live)
	}
	if e, r := h.rec.Counter(obs.CFleetEjects), h.rec.Counter(obs.CFleetRespawns); e != 1 || r != 1 {
		t.Fatalf("ejects counter = %d, respawns counter = %d", e, r)
	}
	if h.fc.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.fc.Stage())
	}
}

// TestCanaryPromoteOnCleanGate: a staged update runs clean through the
// observation window; the gate passes, the canary is promoted, the old
// fleet is reaped, and K fresh variants respawn from the new leader.
func TestCanaryPromoteOnCleanGate(t *testing.T) {
	cfg := fleetCfg("r1", "r2")
	cfg.Canary.Window = 40 * time.Millisecond
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(10, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			if !h.fc.Update(v2) {
				t.Error("Update rejected")
			}
		},
	})
	h.run(t)
	// The counter survives the staged update: replies are 1..10 with a
	// single switch from v1 format ("N") to v2 format ("v2:N").
	switched := false
	for i, r := range h.replies {
		want := fmt.Sprintf("%d", i+1)
		if strings.HasPrefix(r, "v2:") {
			switched = true
			want = "v2:" + want
		} else if switched {
			t.Fatalf("reply %d reverted to v1 after promotion: %v", i, h.replies)
		}
		if r != want {
			t.Fatalf("reply %d = %q, want %q (%v)", i, r, want, h.replies)
		}
	}
	if !switched {
		t.Fatalf("promotion never reached clients: %v", h.replies)
	}
	if h.fc.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.fc.Stage())
	}
	if got := h.fc.LeaderRuntime().App().Version(); got != "v2" {
		t.Fatalf("leader version = %s", got)
	}
	if got := h.rec.Counter(obs.CCanaryPromotions); got != 1 {
		t.Fatalf("promotions counter = %d", got)
	}
	// The fleet was respawned at full strength from the new leader.
	live := h.fc.LiveVariants()
	if len(live) != 2 || !strings.Contains(live[0], "@v2") || !strings.Contains(live[1], "@v2") {
		t.Fatalf("live variants after promotion = %v", live)
	}
	if got := h.rec.Counter(obs.CFleetRespawns); got != 2 {
		t.Fatalf("respawns counter = %d", got)
	}
}

// TestCanaryRollbackOnDivergenceStorm: the staged version misbehaves
// past its divergence budget mid-window; only the canary is rolled
// back — the old-version fleet and clients never notice.
func TestCanaryRollbackOnDivergenceStorm(t *testing.T) {
	cfg := fleetCfg("r1")
	cfg.Canary.Window = 200 * time.Millisecond
	cfg.Canary.MaxDivergences = 1
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	// v2 misformats every reply after count 4: divergence #1 is absorbed
	// against the budget, #2 is the storm verdict.
	v2 := upgrade(nil, func(n *srv) { n.misformatAfter = 4 })
	h.client(10, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.fc.Update(v2) },
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v (rollback was client-visible)", h.replies)
	}
	if h.fc.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.fc.Stage())
	}
	if got := h.fc.LeaderRuntime().App().Version(); got != "v1" {
		t.Fatalf("leader version = %s", got)
	}
	if got := h.rec.Counter(obs.CCoreRollbacks); got != 1 {
		t.Fatalf("rollbacks counter = %d", got)
	}
	if got := h.rec.Counter(obs.CCanaryPromotions); got != 0 {
		t.Fatalf("promotions counter = %d", got)
	}
	if !h.timelineHas("rolled back: divergence: ") {
		t.Fatalf("timeline missing rollback: %+v", h.fc.Timeline())
	}
	if h.fc.Monitor().Candidate() != nil {
		t.Fatal("canary still attached after rollback")
	}
	// The same-version replica was untouched throughout.
	if live := strings.Join(h.fc.LiveVariants(), ","); live != "r1#1@v1" {
		t.Fatalf("live variants = %q", live)
	}
}

// TestCanaryRollbackOnFailedGate: the canary never diverges but stops
// consuming events (targeted chaos stall); at window close its lag
// violates the gate and the update is rolled back.
func TestCanaryRollbackOnFailedGate(t *testing.T) {
	cfg := fleetCfg("r1")
	cfg.Canary.Window = 50 * time.Millisecond
	cfg.Canary.MaxLag = 1
	plan := chaos.NewPlan(&chaos.Injection{
		Proc: "canary#1@v2", AfterCalls: 1, Kind: chaos.KindStall,
	})
	cfg.WrapDispatcher = plan.Wrap
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(10, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.fc.Update(v2) },
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v", h.replies)
	}
	if plan.Fired() != 1 {
		t.Fatalf("chaos fired %d times (stall never hit the canary)", plan.Fired())
	}
	if h.fc.Stage() != StageSingleLeader || h.fc.LeaderRuntime().App().Version() != "v1" {
		t.Fatalf("stage=%v version=%s", h.fc.Stage(), h.fc.LeaderRuntime().App().Version())
	}
	if !h.timelineHas("gate failed") {
		t.Fatalf("timeline missing gate failure: %+v", h.fc.Timeline())
	}
	if got := h.rec.Counter(obs.CCoreRollbacks); got != 1 {
		t.Fatalf("rollbacks counter = %d", got)
	}
}

// TestFleetUpdateGuards: a second update is refused while a canary is
// in flight, and accepted again after its rollback.
func TestFleetUpdateGuards(t *testing.T) {
	cfg := fleetCfg("r1")
	cfg.Canary.Window = 500 * time.Millisecond // outlives the client
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(6, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			if !h.fc.Update(v2) {
				t.Error("first Update rejected")
			}
		},
		4: func(tk *sim.Task) {
			if h.fc.Update(v2) {
				t.Error("second Update accepted with a canary in flight")
			}
		},
	})
	h.run(t)
	// Exactly one canary was ever forked; the refused second request
	// left no trace.
	if got := h.fc.spawned["canary"]; got != 1 {
		t.Fatalf("canary incarnations = %d", got)
	}
	if got := h.rec.Counter(obs.CCoreUpdates); got != 1 {
		t.Fatalf("updates counter = %d", got)
	}
}

// TestCanaryFailsAfterPromotionBarrierLeaderResumes: the canary's replay
// is slow enough that it passes the gate with a backlog, and diverges in
// that backlog after the promotion entry is written — the old leader has
// already retired for it. Ejecting the canary must put the old leader
// back in charge, and the replicas superseded at the barrier must be
// respawned from it.
func TestCanaryFailsAfterPromotionBarrierLeaderResumes(t *testing.T) {
	cfg := fleetCfg("r1")
	cfg.Canary.Window = 40 * time.Millisecond
	cfg.Costs.Replay = 12 * time.Millisecond
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	var atRollback []string
	h.fc.OnStage = func(ev Event) {
		if ev.Kind == KindRollback {
			atRollback = append(atRollback, fmt.Sprintf("%v after %v: leader %v",
				ev.Note, h.fc.Timeline()[len(h.fc.Timeline())-2].Stage, h.fc.Monitor().Leader().Role()))
		}
	}
	v2 := upgrade(nil, func(n *srv) { n.misformatAfter = 5 })
	h.client(12, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.fc.Update(v2) },
	})
	h.run(t)
	if want := `rolled back: divergence: output mismatch: "v2:6" vs "GARBAGE" after promoting: leader single-leader`; len(atRollback) != 1 || atRollback[0] != want {
		t.Fatalf("rollbacks = %q, want one: %q\ntimeline: %+v", atRollback, want, h.fc.Timeline())
	}
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v: the service did not survive the canary", h.replies)
	}
	if got := h.fc.LeaderRuntime().App().Version(); got != "v1" || h.fc.Stage() != StageSingleLeader {
		t.Fatalf("leader version = %s, stage = %v", got, h.fc.Stage())
	}
	if live := strings.Join(h.fc.LiveVariants(), ","); live != "r1#2@v1" {
		t.Fatalf("live variants = %q, want the superseded replica's slot respawned", live)
	}
	if role := h.fc.Monitor().Leader().Role(); role != mve.RoleLeader {
		t.Fatalf("leader role = %v with a replica validating it", role)
	}
}

// TestCanaryGateWithoutReplicas: the timed gate needs no replicas. At
// K = 0 a clean update walks window → promote → commit and a divergence
// storm rolls back, each with the reply stream clients see at K = 2.
func TestCanaryGateWithoutReplicas(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		mutate               func(*srv)
		version, note        string
		promotions, rollback int64
	}{
		{"clean gate", nil, "v2", "promoted; respawning fleet", 1, 0},
		{"storm", func(n *srv) { n.misformatAfter = 4 }, "v1", "rolled back: divergence: ", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var streams []string
			for _, variants := range [][]string{nil, {"r1", "r2"}} {
				cfg := FleetConfig{Variants: variants, Canary: CanaryGate{Window: 40 * time.Millisecond, MaxDivergences: 1}}
				h := newFleetHarness(cfg)
				h.fc.Start(&srv{version: "v1"})
				v2 := upgrade(nil, tc.mutate)
				h.client(10, map[int]func(*sim.Task){
					2: func(tk *sim.Task) { h.fc.Update(v2) },
				})
				h.run(t)
				k := len(variants)
				if got := h.fc.LeaderRuntime().App().Version(); got != tc.version || h.fc.Stage() != StageSingleLeader || !h.timelineHas(tc.note) {
					t.Fatalf("K=%d: leader %s in %v, want %s steady after %q\ntimeline: %+v", k, got, h.fc.Stage(), tc.version, tc.note, h.fc.Timeline())
				}
				if p, r := h.rec.Counter(obs.CCanaryPromotions), h.rec.Counter(obs.CCoreRollbacks); p != tc.promotions || r != tc.rollback {
					t.Fatalf("K=%d: %d promotions, %d rollbacks", k, p, r)
				}
				if live := h.fc.LiveVariants(); len(live) != k || h.fc.Monitor().Candidate() != nil {
					t.Fatalf("K=%d: live variants = %v, candidate %v", k, live, h.fc.Monitor().Candidate())
				}
				streams = append(streams, strings.Join(h.replies, ","))
			}
			if streams[0] != streams[1] || strings.Count(streams[0], ",") != 9 {
				t.Fatalf("reply streams differ:\nK=0: %s\nK=2: %s", streams[0], streams[1])
			}
		})
	}
}

// gateHarness builds a fleet controller with the given gate whose
// recorder holds one validate-lag observation of p99 (none when zero),
// sampled only when spans is on.
func gateHarness(gate CanaryGate, p99 time.Duration, spans bool) *fleetHarness {
	cfg := fleetCfg()
	cfg.Canary = gate
	h := newFleetHarness(cfg)
	if spans {
		h.rec.EnableSpans()
	}
	if p99 > 0 {
		h.rec.Observe(obs.HReqValidateLag, p99)
	}
	return h
}

// gateRules lists the recorded violations' rules, all of which must be
// the canary gate's.
func gateRules(t *testing.T, c *Controller) []string {
	t.Helper()
	var rules []string
	for _, v := range entries(c, KindViolation) {
		if v.Subject != "canary-gate" {
			t.Fatalf("violation %+v: want fleet/canary-gate", v)
		}
		rules = append(rules, v.Rule)
	}
	return rules
}

// TestCanaryGateRulesLegacyReasons pins the gate's boundaries and the
// reason strings the golden artifacts embed: each bound trips strictly
// above it, the recorder's validate-lag histogram never gates (however
// high, with spans on), the first failure's reason is the rollback's, and
// every failure is recorded.
func TestCanaryGateRulesLegacyReasons(t *testing.T) {
	gate := CanaryGate{Window: 150 * time.Millisecond, MaxDivergences: 2, MaxLag: 64}
	for _, tc := range []struct {
		name      string
		divs, lag int
		p99       time.Duration // observed validate lag; 0 = none
		spans     bool
		want      string   // first failure's reason; "" = clean gate
		rules     []string // every violation recorded, in order
	}{
		{"divergences-at-budget", 2, 0, 0, false, "", nil},
		{"divergences-over", 3, 0, 0, false, "3 divergences exceed budget 2", []string{"divergence-budget"}},
		{"lag-at-bound", 0, 64, 0, false, "", nil},
		{"lag-over", 0, 65, 0, false, "lag 65 exceeds 64", []string{"ring-lag"}},
		{"validate-lag-never-gates", 0, 0, time.Hour, true, "", nil},
		{"first-failure-wins", 9, 99, 0, false, "9 divergences exceed budget 2",
			[]string{"divergence-budget", "ring-lag"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := gateHarness(gate, tc.p99, tc.spans)
			if got := h.fc.gateFailure(tc.divs, tc.lag); got != tc.want {
				t.Fatalf("gate failure = %q, want %q", got, tc.want)
			}
			if rules := gateRules(t, h.fc); strings.Join(rules, ",") != strings.Join(tc.rules, ",") {
				t.Fatalf("recorded rules = %v, want %v", rules, tc.rules)
			}
		})
	}
}

// TestCanaryGateRulesConditional: unset optional bounds are never
// checked, however far over them the canary is.
func TestCanaryGateRulesConditional(t *testing.T) {
	h := gateHarness(CanaryGate{Window: time.Second, MaxDivergences: 2}, time.Second, true)
	if got := h.fc.gateFailure(0, 1000); got != "" {
		t.Fatalf("gate failure = %q with only the divergence budget set", got)
	}
	if rules := gateRules(t, h.fc); len(rules) != 0 {
		t.Fatalf("recorded rules = %v, want none", rules)
	}
}

// TestGateDecisionOrder: a window close that trips both bounds records
// both violations, in the gate's order, then the rollback with the first
// one's reason, at one instant. mve storms a canary the moment it passes
// its budget, so no real window closes over it; the test lowers the
// gate's budget after the canary absorbed its one divergence and then
// stalled, which reaches that close.
func TestGateDecisionOrder(t *testing.T) {
	cfg := fleetCfg("r1")
	cfg.Canary = CanaryGate{Window: 50 * time.Millisecond, MaxDivergences: 1, MaxLag: 1}
	plan := chaos.NewPlan(&chaos.Injection{
		Proc: "canary#1@v2", Op: sysabi.OpWrite, AfterCalls: 2, Kind: chaos.KindStall,
	})
	cfg.WrapDispatcher = plan.Wrap
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	// The canary's first reply is garbage; its second write stalls.
	v2 := upgrade(nil, func(n *srv) { n.misformatAfter = n.count })
	h.client(10, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.fc.Update(v2) },
		4: func(tk *sim.Task) { h.fc.cfg.Canary.MaxDivergences = 0 },
	})
	h.run(t)
	if plan.Fired() != 1 {
		t.Fatalf("chaos fired %d times", plan.Fired())
	}
	d := decision(t, h.fc, KindViolation, 3)
	if d[0].Rule != "divergence-budget" || d[0].Note != "1 divergences exceed budget 0" ||
		d[1].Kind != KindViolation || d[1].Rule != "ring-lag" {
		t.Fatalf("violations = %+v, want divergence-budget then ring-lag", d[:2])
	}
	if d[2].Kind != KindRollback || d[2].Note != "rolled back: gate failed: "+d[0].Note {
		t.Fatalf("after the violations %+v, want the gate's rollback", d[2])
	}
}

// TestFollowerLivenessRule: a fleet arms the same watchdog as a duo, so
// a replica that stops consuming trips follower-liveness — recorded as a
// fleet violation — and is ejected and respawned.
func TestFollowerLivenessRule(t *testing.T) {
	cfg := fleetCfg("r1", "r2")
	cfg.WatchdogDeadline = 40 * time.Millisecond
	plan := chaos.NewPlan(&chaos.Injection{
		Proc: "r2#1@v1", Op: sysabi.OpWrite, AfterCalls: 2, Kind: chaos.KindStall,
	})
	cfg.WrapDispatcher = plan.Wrap
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	h.client(10, nil)
	// Shutdown, not run's runtime kill: armed watchdogs outlive runtimes.
	shutdownAndDrain(t, h.s, h.fc, &h.done, 100*time.Millisecond)
	if plan.Fired() != 1 {
		t.Fatalf("chaos fired %d times", plan.Fired())
	}
	vs := entries(h.fc, KindViolation)
	if len(vs) != 1 {
		t.Fatalf("violations = %+v, want one", vs)
	}
	v := vs[0]
	if v.Subject != "r2#1@v1" || v.Rule != "follower-liveness" ||
		!strings.HasPrefix(v.Note, "no progress for ") || !strings.HasSuffix(v.Note, "(deadline 40ms)") {
		t.Fatalf("violation = %+v", v)
	}
	if !h.timelineHas("r2#1@v1 ejected (stall)") || !h.timelineHas("respawned variant r2#2@v1") {
		t.Fatalf("timeline missing eject/respawn: %+v", h.fc.Timeline())
	}
}

// TestFleetEjectsCountEjectVerdictsOnly: mve.fleet.ejects counts the
// replicas a minority verdict quarantined. A clean K = 2 promotion has no
// verdict, so neither the replicas it supersedes nor the canary it
// consumes count as ejects.
func TestFleetEjectsCountEjectVerdictsOnly(t *testing.T) {
	cfg := fleetCfg("r1", "r2")
	cfg.Canary.Window = 40 * time.Millisecond
	h := newFleetHarness(cfg)
	verdicts := 0
	h.fc.OnVerdict = func(mve.Verdict) { verdicts++ }
	h.fc.Start(&srv{version: "v1"})
	h.client(10, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.fc.Update(upgrade(nil, nil)) },
	})
	h.run(t)
	if got := h.rec.Counter(obs.CCanaryPromotions); got != 1 || verdicts != 0 {
		t.Fatalf("%d promotion(s), %d verdict(s); want a clean promotion", got, verdicts)
	}
	if got := h.rec.Counter(obs.CFleetEjects); got != 0 {
		t.Fatalf("ejects counter = %d after a promotion with no verdict, want 0", got)
	}
}

// TestGatedLifecycleCountsAsCore: a gated controller's promotions and
// rollbacks land in the same core.* counters as a duo's. Hop 1 of the
// train promotes, hop 2 storms its divergence budget and rolls back.
func TestGatedLifecycleCountsAsCore(t *testing.T) {
	cfg := fleetCfg("r1")
	cfg.Canary.Window = 40 * time.Millisecond
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})
	h.client(16, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			h.fc.QueueUpdate(hop("v1", "v2", nil))
			h.fc.QueueUpdate(hop("v2", "v3", func(n *srv) { n.misformatAfter = 1 }))
		},
	})
	h.run(t)
	if got := strings.Join(versionsSeen(t, h.replies), ","); got != "v1,v2" {
		t.Fatalf("versions seen = %s, want v1,v2\ntimeline: %+v", got, h.fc.Timeline())
	}
	for _, name := range []string{obs.CCoreCommits, obs.CCoreRollbacks} {
		if got := h.rec.Counter(name); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if !h.timelineHas("rolled back: divergence: ") {
		t.Fatalf("timeline missing the rollback: %+v", h.fc.Timeline())
	}
}

// TestGatedUpdateDrawsControllerTrack: in span mode a gated update is
// drawn like a duo's. The controller track carries one stage:* arc per
// stage and the update:<version> arc from fork to promotion, whether
// the canary is promoted, rolled back by the gate, or swept away by a
// majority abort. No arc is left open except the current stage's.
func TestGatedUpdateDrawsControllerTrack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
		faults []*chaos.Injection
		final  Stage
		note   string
	}{
		{"promote", 40 * time.Millisecond, nil, StageSingleLeader, "promoted; respawning fleet"},
		{"gate-rollback", 40 * time.Millisecond, []*chaos.Injection{
			{Proc: "canary#1@v2", AfterCalls: 1, Kind: chaos.KindStall},
		}, StageSingleLeader, "rolled back: gate failed: lag"},
		{"majority-abort", 300 * time.Millisecond, []*chaos.Injection{
			{Proc: "r1#1@v1", Op: sysabi.OpWrite, AfterCalls: 5, Kind: chaos.KindErrno, Errno: sysabi.EPIPE},
			{Proc: "r2#1@v1", Op: sysabi.OpWrite, AfterCalls: 5, Kind: chaos.KindErrno, Errno: sysabi.EPIPE},
		}, StageAborted, "fleet aborted: verdict for r2#1@v1 (divergence): abort [2/3 failed]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleetCfg("r1", "r2")
			cfg.Canary.Window = tc.window
			cfg.Canary.MaxLag = 1
			cfg.WrapDispatcher = chaos.NewPlan(tc.faults...).Wrap
			h := newFleetHarness(cfg)
			h.rec.EnableSpans()
			h.fc.Start(&srv{version: "v1"})
			h.client(10, map[int]func(*sim.Task){
				2: func(tk *sim.Task) { h.fc.Update(upgrade(nil, nil)) },
			})
			h.run(t)
			if h.fc.Stage() != tc.final || !h.timelineHas(tc.note) {
				t.Fatalf("ended in %v, want %v after %q\ntimeline: %+v", h.fc.Stage(), tc.final, tc.note, h.fc.Timeline())
			}
			open := map[uint64]string{}
			drawn := map[string]bool{}
			for _, s := range h.rec.Spans() {
				switch {
				case s.Track != "controller":
				case s.Phase == obs.PhaseAsyncBegin:
					open[s.ID] = s.Name
					drawn[s.Name] = true
				case s.Phase == obs.PhaseAsyncEnd:
					if open[s.ID] != s.Name {
						t.Fatalf("end of %s (id %d) matches no open arc: open %v", s.Name, s.ID, open)
					}
					delete(open, s.ID)
				}
			}
			for _, name := range []string{"stage:outdated-leader", "update:v2"} {
				if !drawn[name] {
					t.Errorf("controller track has no %s arc: drew %v", name, drawn)
				}
			}
			want := "stage:" + tc.final.String()
			if len(open) != 1 {
				t.Fatalf("open arcs = %v, want only %s", open, want)
			}
			for _, name := range open {
				if name != want {
					t.Fatalf("open arc %s, want %s", name, want)
				}
			}
		})
	}
}
