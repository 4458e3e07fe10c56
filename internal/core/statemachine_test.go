package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/chaos"
	"mvedsua/internal/dsu"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// TestRandomizedOperatorSequences drives the controller with random
// operator actions (update / promote / commit / rollback, some of them
// invalid for the current stage) under continuous traffic, and checks
// the stage-machine invariants after every step:
//
//   - the stage is always one of the four Figure 2 stages;
//   - invalid operations are rejected without changing the stage;
//   - service never stops (every request gets a correct reply);
//   - the counter is monotonic (no lost or duplicated state).
func TestRandomizedOperatorSequences(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(strings.Repeat("s", int(seed)), func(t *testing.T) {
			runRandomized(t, seed)
		})
	}
	for k := 1; k <= 3; k++ {
		for seed := int64(1); seed <= 20; seed++ {
			k, seed := k, seed
			t.Run(fmt.Sprintf("fleet/K=%d/seed=%d", k, seed), func(t *testing.T) {
				runRandomizedFleet(t, k, seed)
			})
		}
	}
}

// runRandomizedFleet is the fleet's operator: random Update / QueueUpdate
// / Rollback under continuous traffic, plus one replica crash at a random
// point of the run. Whatever the interleaving of windows, promotions,
// rollbacks, ejects and respawns:
//
//   - every reply's counter component is exactly the request index
//     (nothing lost or duplicated), and versions never go backwards;
//   - the run ends in single-leader or, after a majority verdict, aborted;
//   - a fleet that was not aborted is back at K live variants with no
//     update pending and the train empty;
//   - nothing runs after Shutdown.
func runRandomizedFleet(t *testing.T, k int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const steps = 30
	cfg := fleetCfg()
	cfg.Variants = []string{"r1", "r2", "r3"}[:k]
	cfg.Canary.Window = time.Duration(20+r.Intn(40)) * time.Millisecond
	plan := chaos.NewPlan(&chaos.Injection{
		Role: "variant", Op: sysabi.OpWrite, AfterCalls: 1 + r.Intn(2*steps*k), Kind: chaos.KindCrash,
	})
	cfg.WrapDispatcher = plan.Wrap
	h := newFleetHarness(cfg)
	h.fc.Start(&srv{version: "v1"})

	// next is the hop that extends the train: it starts from the version
	// the fleet will be on once everything in flight has committed.
	next := func() *dsu.Version {
		from := h.fc.LeaderRuntime().App().Version()
		if h.fc.pending != nil {
			from = h.fc.pending.Name
		}
		if n := len(h.fc.queued); n > 0 {
			from = h.fc.queued[n-1].Name
		}
		if from == "v9" {
			return nil // two-character version names only
		}
		return hop(from, fmt.Sprintf("v%d", int(from[1]-'0')+1), nil)
	}
	operate := func() {
		before, aborted := h.fc.Stage(), h.fc.Stage() == StageAborted
		switch r.Intn(5) {
		case 0:
			if v := next(); v != nil {
				ok := h.fc.Update(v)
				if ok != (before == StageSingleLeader && h.fc.pending == v) {
					t.Errorf("Update = %v in %v", ok, before)
				}
			}
		case 1:
			if v := next(); v != nil {
				if pos := h.fc.QueueUpdate(v); (pos == -1) != aborted {
					t.Errorf("QueueUpdate = %d in %v", pos, before)
				}
			}
		case 2:
			ok := h.fc.Rollback("random")
			if ok != (before == StageOutdatedLeader || before == StagePromoting) {
				t.Errorf("Rollback = %v in %v", ok, before)
			}
			if ok && (h.fc.Stage() != StageSingleLeader || h.fc.QueuedUpdates() != 0 || h.fc.Monitor().Candidate() != nil) {
				t.Errorf("after Rollback: %v, %d queued, canary %v", h.fc.Stage(), h.fc.QueuedUpdates(), h.fc.Monitor().Candidate())
			}
		}
	}
	// settled: nothing in flight any more, so the invariants below are
	// about where the fleet came to rest, not about where the client
	// happened to stop.
	settled := func() bool {
		if h.fc.Stage() == StageAborted {
			return true
		}
		return h.fc.Stage() == StageSingleLeader && h.fc.pending == nil &&
			h.fc.QueuedUpdates() == 0 && len(h.fc.LiveVariants()) == k
	}
	h.s.Go("client", func(tk *sim.Task) {
		defer func() { h.done = true }()
		fd := int(h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		defer h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
		for i := 0; i < 2*steps || !settled(); i++ {
			if i >= 2*steps+100 {
				t.Errorf("fleet never settled: %v, pending %v, %d queued, live %v", h.fc.Stage(), h.fc.pending, h.fc.QueuedUpdates(), h.fc.LiveVariants())
				return
			}
			if i < 2*steps && i%2 == 0 {
				operate()
			}
			h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			h.replies = append(h.replies, string(r.Data))
			tk.Sleep(10 * time.Millisecond)
		}
	})
	shutdownAndDrain(t, h.s, h.fc, &h.done, 200*time.Millisecond)

	seen := versionsSeen(t, h.replies)
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("versions went backwards: %v", seen)
		}
	}
	if n := len(h.fc.Monitor().Divergences()); n != 0 {
		t.Errorf("%d divergences under correct rules: %v", n, h.fc.Monitor().Divergences()[0])
	}
	if st := h.fc.Stage(); st != StageSingleLeader && st != StageAborted {
		t.Fatalf("ended in %v: %+v", st, h.fc.Timeline())
	}
	version := h.fc.LeaderRuntime().App().Version()
	t.Logf("%v on %s after %d requests: %d promotion(s), %d rollback(s), %d respawn(s), crash fired %d",
		h.fc.Stage(), version, len(h.replies), h.rec.Counter(obs.CCanaryPromotions),
		h.rec.Counter(obs.CCoreRollbacks), h.rec.Counter(obs.CFleetRespawns), plan.Fired())
	if seen[len(seen)-1] != version {
		t.Errorf("last reply from %s, leader on %s", seen[len(seen)-1], version)
	}
}

func runRandomized(t *testing.T, seed int64) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	r := rand.New(rand.NewSource(seed))

	h.s.Go("client", func(tk *sim.Task) {
		defer func() { h.done = true }()
		c := connectSrv(h, tk)
		defer closeSrv(h, tk, c)
		count := 0
		ping := func() {
			reply := doSrv(h, tk, c, "ping")
			count++
			// The reply's counter component must be exactly count,
			// whichever version answers.
			want1 := strconv.Itoa(count)
			want2 := "v2:" + strconv.Itoa(count)
			if reply != want1 && reply != want2 {
				t.Errorf("seed %d: reply %q, want %q or %q", seed, reply, want1, want2)
			}
			tk.Sleep(10 * time.Millisecond)
		}
		for step := 0; step < 30; step++ {
			before := h.c.Stage()
			switch r.Intn(5) {
			case 0:
				// Pick an update that matches the current leader
				// version (updating v2 with v1→v2 rules would be an
				// operator error, which the rules rightly flag).
				v := upgrade(nil, nil)
				if h.c.LeaderRuntime().App().Version() == "v2" {
					v = &dsu.Version{
						Name: "v2",
						Xform: func(old dsu.App) (dsu.App, error) {
							return old.Fork(), nil
						},
					}
				}
				ok := h.c.Update(v)
				if ok && before != StageSingleLeader {
					t.Errorf("seed %d: Update accepted in %v", seed, before)
				}
				if !ok && before == StageSingleLeader && h.c.pending == nil {
					t.Errorf("seed %d: Update rejected in clean single-leader", seed)
				}
			case 1:
				ok := h.c.Promote()
				if ok && before != StageOutdatedLeader {
					t.Errorf("seed %d: Promote accepted in %v", seed, before)
				}
			case 2:
				ok := h.c.Commit()
				if ok && before != StageUpdatedLeader {
					t.Errorf("seed %d: Commit accepted in %v", seed, before)
				}
			case 3:
				ok := h.c.Rollback("random")
				if ok && before != StageOutdatedLeader && before != StagePromoting {
					t.Errorf("seed %d: Rollback accepted in %v", seed, before)
				}
			default:
				// just traffic
			}
			ping()
			ping()
			st := h.c.Stage()
			if st != StageSingleLeader && st != StageOutdatedLeader &&
				st != StagePromoting && st != StageUpdatedLeader {
				t.Fatalf("seed %d: illegal stage %v", seed, st)
			}
		}
		if n := len(h.c.Monitor().Divergences()); n != 0 {
			t.Errorf("seed %d: %d divergences under correct rules", seed, n)
		}
	})
	h.run(t)
}

// Small helpers working against the srv test app's wire format.

func connectSrv(h *harness, tk *sim.Task) int {
	r := h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}})
	return int(r.Ret)
}

func closeSrv(h *harness, tk *sim.Task, fd int) {
	h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
}

func doSrv(h *harness, tk *sim.Task, fd int, msg string) string {
	h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(msg)})
	r := h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
	return string(r.Data)
}
