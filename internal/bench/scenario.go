package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// scenario is one controller-world run: a duo or fleet configuration, a
// fault plan, and a driver that steers the lifecycle over one client
// connection. Every experiment that deploys a server under a controller
// is a table of these; adding a run is one more element, never another
// runner. Tables are functions returning fresh values because
// injections carry their armed/seen/fired state and every report runs
// more than once per process.
type scenario struct {
	// name labels the run in its experiment's report; the runner does
	// not read it.
	name string
	// cfg is the controller configuration. With Variants it builds an
	// N-variant fleet world, without them the duo world of cfg.Config.
	cfg    core.FleetConfig
	faults []*chaos.Injection
	// plan, if non-nil, is the fault plan the run binds in place of
	// one over faults, for a driver that reads its firings.
	plan *chaos.Plan
	// app and port name the server to deploy and where the driver's
	// client connects; a nil app deploys redis() on kvstore.Port.
	app  dsu.App
	port int64
	// setup runs on the built world before the server starts: kernel
	// cost, instruments, and When gates that need the controller.
	setup func(w *apptest.World)
	// drive runs in the driver task with a connected client. It only
	// steers: what the run ended in is the world's Final state, which
	// teardown takes after drive returns.
	drive func(w *apptest.World, tk *sim.Task, c *apptest.Client)
	// want is the outcome the run declares, and run judges the run
	// against it. label is what the run's report prints when the run
	// keeps its outcome.
	want  apptest.Outcome
	label string
}

// candidateRollbacks declares one rollback-candidate verdict per cause,
// in order.
func candidateRollbacks(causes ...string) []apptest.Verdict {
	var verdicts []apptest.Verdict
	for _, cause := range causes {
		verdicts = append(verdicts, apptest.Verdict{Cause: cause, Action: mve.VerdictRollbackCandidate})
	}
	return verdicts
}

// tally declares how many updates a run commits and rolls back.
func tally(commits, rollbacks int64) map[string]int64 {
	return map[string]int64{obs.CCoreCommits: commits, obs.CCoreRollbacks: rollbacks}
}

// duo lifts a duo controller configuration into a scenario's cfg.
func duo(cfg core.Config) core.FleetConfig { return core.FleetConfig{Config: cfg} }

// run builds the world, binds the fault plan to it, deploys the server,
// drives it to completion and tears it down. The world and the plan come
// back for whatever is read after teardown (the Final state, the registry,
// which faults fired), with the run's breaches: a scheduler error, every
// injection that never fired and every breach the judge finds
// (apptest.World.Judge).
func (sc scenario) run() (*apptest.World, *chaos.Plan, []apptest.Breach) {
	cfg := sc.cfg
	plan := sc.plan
	if plan == nil {
		plan = chaos.NewPlan(sc.faults...)
	}
	cfg.WrapDispatcher = plan.Wrap
	var w *apptest.World
	if len(cfg.Variants) > 0 {
		w = apptest.NewFleetWorld(cfg)
	} else {
		w = apptest.NewWorld(cfg.Config)
	}
	plan.Rec = w.Rec
	if sc.setup != nil {
		sc.setup(w)
	}
	app, port := sc.app, sc.port
	if app == nil {
		app, port = redis(), kvstore.Port
	}
	w.Start(app)
	w.S.Go("driver", func(tk *sim.Task) {
		defer w.Finish()
		c := w.Connect(tk, port)
		defer c.Close(tk)
		sc.drive(w, tk, c)
	})
	if err := w.Run(); err != nil {
		return w, plan, []apptest.Breach{{Exchange: -1, Detail: "scheduler: " + err.Error()}}
	}
	var breaches []apptest.Breach
	if fired, n := plan.Fired(), len(plan.Injections); fired < n {
		breaches = append(breaches, apptest.Breach{Exchange: -1,
			Detail: fmt.Sprintf("%d of %d injections never fired", n-fired, n)})
	}
	return w, plan, append(breaches, w.Judge(sc.want)...)
}

// summary joins the breaches' details.
func summary(breaches []apptest.Breach) string {
	var details []string
	for _, b := range breaches {
		details = append(details, b.Detail)
	}
	return strings.Join(details, "; ")
}

// failed is the breaches as one error, nil when there are none.
func failed(breaches []apptest.Breach) error {
	if len(breaches) == 0 {
		return nil
	}
	return errors.New(summary(breaches))
}

// incr issues n INCR requests 10ms apart — the light background traffic
// of the lifecycle scenarios.
func incr(tk *sim.Task, c *apptest.Client, n int) {
	for i := 0; i < n; i++ {
		c.Do(tk, "INCR counter")
		tk.Sleep(10 * time.Millisecond)
	}
}

// lifecycle is the clean Figure 6 story — update, validate, promote,
// commit — with traffic(n) issuing n requests between the steps.
func lifecycle(c *core.Controller, traffic func(n int)) {
	traffic(3)
	c.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
	traffic(5)
	c.Promote()
	traffic(5)
	c.Commit()
	traffic(2)
}

// promoteIfInstalled finishes a run whose update may or may not have
// survived its faults: a little more traffic, then promote and commit
// if the duo is validating.
func promoteIfInstalled(c *core.Controller, traffic func(n int)) {
	traffic(3)
	if c.Stage() == core.StageOutdatedLeader {
		c.Promote()
		traffic(3)
		c.Commit()
	}
}
