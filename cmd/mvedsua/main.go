// Command mvedsua runs a scripted demonstration of one server under the
// MVEDSUA controller: deploy, dynamically update, optionally inject one
// of the paper's §6.2 faults, promote, commit — and print the controller
// timeline and the MVE monitor's event log.
//
//	mvedsua -app tkv                       # the paper's running example
//	mvedsua -app redis                     # kvstore 2.0.0 -> 2.0.1
//	mvedsua -app memcached                 # memcache 1.2.2 -> 1.2.3
//	mvedsua -app vsftpd                    # ftpd 2.0.3 -> 2.0.4
//	mvedsua -app redis -fault newcode      # HMGET crash -> rollback
//	mvedsua -app redis -fault xform        # broken transformation
//	mvedsua -app redis -fault stall        # hung follower -> watchdog rollback
//	mvedsua -app memcached -fault timing   # missing LibEvent reset -> retries
//	mvedsua -app cluster                   # rolling upgrade vs MVEDSUA (§1.1)
//
// Observability (docs/OBSERVABILITY.md):
//
//	mvedsua -app redis -trace              # update-lifecycle timeline
//	mvedsua -app redis -trace-all          # full trace incl. per-syscall events
//	mvedsua -app redis -metrics            # flight-recorder counters/histograms
//	mvedsua -app redis -perfetto out.json  # Chrome trace_event export (load in
//	                                       # https://ui.perfetto.dev)
//	mvedsua -app redis -folded out.txt     # exact virtual-clock profile as
//	                                       # folded flamegraph stacks
//	mvedsua -app redis -pprof out.pb       # the same profile, pprof-encoded
//	                                       # (go tool pprof out.pb)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mvedsua/internal/apps/ftpd"
	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apps/memcache"
	"mvedsua/internal/apps/tkv"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/obs"
	"mvedsua/internal/rolling"
	"mvedsua/internal/sim"
)

var (
	traceFlag    = flag.Bool("trace", false, "print the flight-recorder lifecycle timeline (milestone events)")
	traceAllFlag = flag.Bool("trace-all", false, "print the full flight-recorder trace, including per-syscall hot events")
	metricsFlag  = flag.Bool("metrics", false, "print flight-recorder metrics (counters, gauges, latency histograms)")
	perfettoFlag = flag.String("perfetto", "", "write a Chrome trace_event export of the run to this file (Perfetto-loadable)")
	foldedFlag   = flag.String("folded", "", "write the exact virtual-clock profile to this file as folded flamegraph stacks")
	pprofFlag    = flag.String("pprof", "", "write the exact virtual-clock profile to this file in pprof format")
)

// prof holds the run's virtual-clock profiler when -folded or -pprof
// asked for one; nil otherwise (profiling stays fully dark).
var prof *obs.Profiler

func main() {
	app := flag.String("app", "tkv", "tkv|redis|memcached|vsftpd|cluster")
	fault := flag.String("fault", "", "''|newcode|xform|stall|timing")
	flag.Parse()

	var err error
	switch *app {
	case "tkv":
		err = demoTKV()
	case "redis":
		err = demoRedis(*fault)
	case "memcached":
		err = demoMemcached(*fault)
	case "vsftpd":
		err = demoVsftpd()
	case "cluster":
		err = demoCluster()
	default:
		err = fmt.Errorf("unknown app %q", *app)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvedsua:", err)
		os.Exit(1)
	}
}

// setup applies the observability flags to a freshly built world:
// span tracing is enabled only when the run will export a trace, so
// flag-less demo output stays identical.
func setup(w *apptest.World) *apptest.World {
	w.C.Monitor().EnableEventLog(0) // report() prints the lifecycle log
	if *perfettoFlag != "" {
		w.EnableSpanTracing()
	}
	if *foldedFlag != "" || *pprofFlag != "" {
		prof = w.EnableProfiling()
	}
	return w
}

func report(w *apptest.World) {
	fmt.Println("\ncontroller timeline:")
	for _, ev := range w.C.Timeline() {
		fmt.Printf("  %8.3fs  %-16v %s\n", ev.At.Seconds(), ev.Stage, ev.Note)
	}
	fmt.Println("\nmonitor log:")
	for _, l := range w.C.Monitor().EventLog() {
		fmt.Println("  " + l)
	}
	if d := w.C.Monitor().Divergences(); len(d) > 0 {
		fmt.Println("\ndivergences:")
		for _, dv := range d {
			fmt.Println("  " + dv.String())
		}
	}
	if *traceFlag || *traceAllFlag {
		fmt.Println("\nflight recorder trace:")
		fmt.Print(indent(w.Rec.FormatTimeline(!*traceAllFlag)))
		fmt.Println()
	}
	if *metricsFlag {
		fmt.Println("\nflight recorder metrics:")
		fmt.Print(indent(w.Rec.FormatMetrics()))
		fmt.Println()
	}
	if *perfettoFlag != "" {
		data, err := w.Rec.ExportChromeTrace()
		if err == nil {
			err = os.WriteFile(*perfettoFlag, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvedsua: perfetto export:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d span events; open in https://ui.perfetto.dev)\n",
			*perfettoFlag, len(w.Rec.Spans()))
	}
	if *foldedFlag != "" && prof != nil {
		folded := prof.Folded()
		if err := os.WriteFile(*foldedFlag, []byte(folded), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mvedsua: folded export:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d folded stacks; render with any flamegraph tool)\n",
			*foldedFlag, strings.Count(folded, "\n"))
	}
	if *pprofFlag != "" && prof != nil {
		if err := os.WriteFile(*pprofFlag, prof.Pprof(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mvedsua: pprof export:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (inspect with `go tool pprof -top %s`)\n", *pprofFlag, *pprofFlag)
	}
}

func demoTKV() error {
	w := setup(apptest.NewWorld(core.Config{}))
	w.C.Start(tkv.New("v1", false))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, tkv.Port)
		defer c.Close(tk)
		say := func(cmd string) {
			fmt.Printf("  > %-26s %s", cmd, c.Do(tk, cmd))
		}
		fmt.Println("v1 serving:")
		say("PUT balance 1000")
		say("GET balance")
		fmt.Println("\ndynamic update v1 -> v2 (typed entries, Figure 1)...")
		w.C.Update(tkv.Update(tkv.UpdateOpts{}))
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Println("old version still leads; new commands rejected (Rule 1):")
		say("PUT-number balance 1001")
		say("TYPE balance")
		tk.Sleep(20 * time.Millisecond)
		fmt.Println("\npromoting the new version (t4)...")
		w.C.Promote()
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Println("new interface live, state carried over:")
		say("TYPE balance")
		say("PUT-number visits 42")
		say("GET visits")
		w.C.Commit()
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	report(w)
	return nil
}

func demoRedis(fault string) error {
	opts := kvstore.UpdateOpts{PerEntryXform: time.Microsecond}
	cfg := core.Config{}
	var plan *chaos.Plan
	switch fault {
	case "newcode":
		opts.BugHMGET = true
	case "xform":
		opts.BreakXform = true
	case "stall":
		// The chaos layer parks the follower at its 3rd syscall — a
		// silent hang, not a crash — and the liveness watchdog turns it
		// into a rollback within the configured deadline.
		cfg.WatchdogDeadline = 50 * time.Millisecond
		plan = chaos.NewPlan(&chaos.Injection{
			Role: "follower", AfterCalls: 3, Kind: chaos.KindStall,
		})
		cfg.WrapDispatcher = plan.Wrap
	case "":
	default:
		return fmt.Errorf("redis supports faults: newcode, xform, stall")
	}
	w := setup(apptest.NewWorld(cfg))
	if plan != nil {
		plan.Rec = w.Rec // injected faults join the flight-recorder timeline
	}
	w.C.Start(kvstore.New(kvstore.SpecFor("2.0.0", false)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		fmt.Printf("  > SET plain value        %s", c.Do(tk, "SET plain value"))
		fmt.Println("updating Redis 2.0.0 -> 2.0.1 (one DSL rule)...")
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", opts))
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR counter")
			tk.Sleep(10 * time.Millisecond)
		}
		if fault == "newcode" {
			fmt.Println("sending the bad HMGET (revision 7fb16bac's crash):")
			fmt.Printf("  > HMGET plain f          %s", c.Do(tk, "HMGET plain f"))
			tk.Sleep(50 * time.Millisecond)
		}
		if fault == "stall" {
			fmt.Println("follower is hung; serving on while the watchdog counts down...")
			for i := 0; i < 8; i++ {
				c.Do(tk, "INCR counter")
				tk.Sleep(10 * time.Millisecond)
			}
		}
		if w.C.Stage() == core.StageOutdatedLeader {
			w.C.Promote()
			for i := 0; i < 5; i++ {
				c.Do(tk, "INCR counter")
				tk.Sleep(10 * time.Millisecond)
			}
			w.C.Commit()
		}
		fmt.Printf("  > GET plain              %s", c.Do(tk, "GET plain"))
		fmt.Printf("final leader version: %s\n", w.C.LeaderRuntime().App().Version())
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	report(w)
	return nil
}

func demoMemcached(fault string) error {
	cfg := core.Config{DSU: dsu.Config{
		EpollWaitIsUpdatePoint: true,
		EpollUpdateInterval:    5 * time.Millisecond,
		OnAbort:                memcache.AbortReset,
	}}
	opts := memcache.UpdateOpts{PerItemXform: time.Microsecond}
	switch fault {
	case "xform":
		opts.UseAfterFree = true
	case "timing":
		cfg.DSU.OnAbort = nil
		cfg.RetryOnRollback = true
		cfg.RetryInterval = 500 * time.Millisecond
	case "":
	default:
		return fmt.Errorf("memcached supports faults: xform, timing")
	}
	w := setup(apptest.NewWorld(cfg))
	w.C.Start(memcache.New(memcache.SpecFor("1.2.2", 1)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		a := apptest.Connect(w.K, tk, memcache.Port)
		b := apptest.Connect(w.K, tk, memcache.Port)
		defer a.Close(tk)
		defer b.Close(tk)
		a.Send(tk, "set k 0 0 5\r\nhello\r\n")
		a.RecvUntil(tk, "STORED\r\n")
		if fault == "timing" {
			// Advance the round-robin memory so the rebuilt follower
			// disagrees about dispatch order.
			for w.C.LeaderRuntime().App().(*memcache.Server).WorkerBases()[0].RROffset()%2 == 0 {
				a.Send(tk, "get k\r\n")
				a.RecvUntil(tk, "END\r\n")
			}
		}
		fmt.Println("updating Memcached 1.2.2 -> 1.2.3 (no DSL rules needed)...")
		w.C.Update(memcache.Update("1.2.2", "1.2.3", opts))
		for round := 0; round < 40; round++ {
			a.Send(tk, "get k\r\n")
			b.Send(tk, "get k\r\n")
			a.RecvUntil(tk, "END\r\n")
			b.RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
			if fault == "" && w.C.Stage() == core.StageOutdatedLeader {
				break
			}
			if fault == "timing" && w.C.Stage() == core.StageOutdatedLeader &&
				len(w.C.Monitor().Divergences()) > 0 {
				break
			}
			if fault == "xform" && w.C.Stage() == core.StageSingleLeader && round > 10 {
				break
			}
		}
		if w.C.Stage() == core.StageOutdatedLeader && fault == "" {
			w.C.Promote()
			for i := 0; i < 5; i++ {
				a.Send(tk, "get k\r\n")
				a.RecvUntil(tk, "END\r\n")
				tk.Sleep(15 * time.Millisecond)
			}
			w.C.Commit()
		}
		a.Send(tk, "version\r\n")
		fmt.Printf("final version reply: %s", a.RecvUntil(tk, "\r\n"))
		if fault == "timing" {
			fmt.Printf("retries needed: %d (paper: max 8, median 2)\n", w.C.Retries())
		}
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	report(w)
	return nil
}

func demoVsftpd() error {
	w := setup(apptest.NewWorld(core.Config{}))
	w.K.WriteFile(ftpd.Root+"/readme.txt", []byte("welcome to the mvedsua ftp demo"))
	w.C.Start(ftpd.New(ftpd.SpecFor("2.0.3")))
	fwd, _ := ftpd.RulesFor("2.0.3", "2.0.4")
	fmt.Println("generated forward rules for 2.0.3 -> 2.0.4:")
	fmt.Println(indent(fwd.String()))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, ftpd.Port)
		defer c.Close(tk)
		c.RecvUntil(tk, "\r\n")
		c.Do(tk, "USER anonymous")
		c.Do(tk, "PASS guest")
		fmt.Println("updating Vsftpd 2.0.3 -> 2.0.4 (adds MDTM)...")
		w.C.Update(ftpd.Update("2.0.3", "2.0.4"))
		for i := 0; i < 4; i++ {
			c.Do(tk, "NOOP")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Printf("  > MDTM readme.txt (old leads)  %s", c.Do(tk, "MDTM readme.txt"))
		tk.Sleep(20 * time.Millisecond)
		w.C.Promote()
		for i := 0; i < 4; i++ {
			c.Do(tk, "NOOP")
			tk.Sleep(10 * time.Millisecond)
		}
		w.C.Commit()
		fmt.Printf("  > MDTM readme.txt (new leads)  %s", c.Do(tk, "MDTM readme.txt"))
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	report(w)
	return nil
}

func demoCluster() error {
	fmt.Println("upgrading a 4-node sharded cluster (20k entries/node) under live load,")
	fmt.Println("with each strategy; what the clients experience:")
	results, err := rolling.Compare(4, 20000, "2.0.0", "2.0.1")
	if err != nil {
		return err
	}
	fmt.Println(rolling.FormatComparison(results))
	return nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
