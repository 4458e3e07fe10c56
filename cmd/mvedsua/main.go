// Command mvedsua runs a scripted demonstration of one server under the
// MVEDSUA controller: deploy, dynamically update, optionally inject one
// of the paper's §6.2 faults, promote, commit — and print the run's
// lifecycle as the flight recorder saw it: stages, roles, divergences,
// each rule's first hit per process, stalls, verdicts, faults and
// retries.
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
// -report <dir> also writes the run's instruments into dir
// (docs/OBSERVABILITY.md); stdout stays the same, since instruments
// never advance virtual time:
//
//	metrics.txt     counters, gauges and latency histograms
//	trace.json      Chrome trace_event export (load in https://ui.perfetto.dev)
//	profile.folded  exact virtual-clock profile as folded flamegraph stacks
//	profile.pprof   the same profile, pprof-encoded (go tool pprof)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mvedsua:", err)
		os.Exit(1)
	}
}

// run parses args, runs the demo they name and prints its story to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mvedsua", flag.ExitOnError)
	app := fs.String("app", "tkv", "tkv|redis|memcached|vsftpd|cluster")
	fault := fs.String("fault", "", "''|newcode|xform|stall|timing")
	report := fs.String("report", "", "write the run's metrics, Perfetto export and virtual-clock profile into this directory")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	d := &demo{out: out, report: *report}
	switch *app {
	case "tkv":
		return d.tkv()
	case "redis":
		return d.redis(*fault)
	case "memcached":
		return d.memcached(*fault)
	case "vsftpd":
		return d.vsftpd()
	case "cluster":
		if d.report != "" {
			return errors.New("-report: the cluster demo has no world to report")
		}
		return d.cluster()
	}
	return fmt.Errorf("unknown app %q", *app)
}

// demo is one run of a demonstration: where its story goes and, with
// -report, where its instruments go.
type demo struct {
	out    io.Writer
	report string        // -report's directory; "" leaves the instruments dark
	prof   *obs.Profiler // the run's virtual-clock profiler, with report
}

// setup turns the instruments on for a freshly built world when the run
// will report them.
func (d *demo) setup(w *apptest.World) *apptest.World {
	if d.report != "" {
		w.EnableSpanTracing()
		d.prof = w.EnableProfiling()
	}
	return w
}

// finish prints the run's lifecycle and writes the report, if asked for.
func (d *demo) finish(w *apptest.World) error {
	fmt.Fprintln(d.out, "\nlifecycle:")
	fmt.Fprintln(d.out, indent(w.Rec.FormatTimeline()))
	if d.report == "" {
		return nil
	}
	chrome, err := w.Rec.ExportChromeTrace()
	if err != nil {
		return fmt.Errorf("Chrome trace export: %w", err)
	}
	if err := os.MkdirAll(d.report, 0o755); err != nil {
		return err
	}
	for name, data := range map[string][]byte{ // maporder: ok — independent files
		"metrics.txt":    []byte(w.Rec.FormatMetrics()),
		"trace.json":     chrome,
		"profile.folded": []byte(d.prof.Folded()),
		"profile.pprof":  d.prof.Pprof(),
	} {
		if err := os.WriteFile(filepath.Join(d.report, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (d *demo) tkv() error {
	w := d.setup(apptest.NewWorld(core.Config{}))
	w.C.Start(tkv.New("v1", false))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, tkv.Port)
		defer c.Close(tk)
		say := func(cmd string) {
			fmt.Fprintf(d.out, "  > %-26s %s", cmd, c.Do(tk, cmd))
		}
		fmt.Fprintln(d.out, "v1 serving:")
		say("PUT balance 1000")
		say("GET balance")
		fmt.Fprintln(d.out, "\ndynamic update v1 -> v2 (typed entries, Figure 1)...")
		w.C.Update(tkv.Update(tkv.UpdateOpts{}))
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Fprintln(d.out, "old version still leads; new commands rejected (Rule 1):")
		say("PUT-number balance 1001")
		say("TYPE balance")
		tk.Sleep(20 * time.Millisecond)
		fmt.Fprintln(d.out, "\npromoting the new version (t4)...")
		w.C.Promote()
		for i := 0; i < 3; i++ {
			c.Do(tk, "GET balance")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Fprintln(d.out, "new interface live, state carried over:")
		say("TYPE balance")
		say("PUT-number visits 42")
		say("GET visits")
		w.C.Commit()
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	return d.finish(w)
}

func (d *demo) redis(fault string) error {
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
	w := d.setup(apptest.NewWorld(cfg))
	if plan != nil {
		plan.Rec = w.Rec // injected faults join the flight-recorder timeline
	}
	w.C.Start(kvstore.New(kvstore.SpecFor("2.0.0", false)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		fmt.Fprintf(d.out, "  > SET plain value        %s", c.Do(tk, "SET plain value"))
		fmt.Fprintln(d.out, "updating Redis 2.0.0 -> 2.0.1 (one DSL rule)...")
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", opts))
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR counter")
			tk.Sleep(10 * time.Millisecond)
		}
		if fault == "newcode" {
			fmt.Fprintln(d.out, "sending the bad HMGET (revision 7fb16bac's crash):")
			fmt.Fprintf(d.out, "  > HMGET plain f          %s", c.Do(tk, "HMGET plain f"))
			tk.Sleep(50 * time.Millisecond)
		}
		if fault == "stall" {
			fmt.Fprintln(d.out, "follower is hung; serving on while the watchdog counts down...")
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
		fmt.Fprintf(d.out, "  > GET plain              %s", c.Do(tk, "GET plain"))
		fmt.Fprintf(d.out, "final leader version: %s\n", w.C.LeaderRuntime().App().Version())
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	return d.finish(w)
}

func (d *demo) memcached(fault string) error {
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
	w := d.setup(apptest.NewWorld(cfg))
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
		fmt.Fprintln(d.out, "updating Memcached 1.2.2 -> 1.2.3 (no DSL rules needed)...")
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
		fmt.Fprintf(d.out, "final version reply: %s", a.RecvUntil(tk, "\r\n"))
		if fault == "timing" {
			fmt.Fprintf(d.out, "retries needed: %d (paper: max 8, median 2)\n", w.C.Retries())
		}
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	return d.finish(w)
}

func (d *demo) vsftpd() error {
	w := d.setup(apptest.NewWorld(core.Config{}))
	w.K.WriteFile(ftpd.Root+"/readme.txt", []byte("welcome to the mvedsua ftp demo"))
	w.C.Start(ftpd.New(ftpd.SpecFor("2.0.3")))
	fwd, _ := ftpd.RulesFor("2.0.3", "2.0.4")
	fmt.Fprintln(d.out, "generated forward rules for 2.0.3 -> 2.0.4:")
	fmt.Fprintln(d.out, indent(fwd.String()))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, ftpd.Port)
		defer c.Close(tk)
		c.RecvUntil(tk, "\r\n")
		c.Do(tk, "USER anonymous")
		c.Do(tk, "PASS guest")
		fmt.Fprintln(d.out, "updating Vsftpd 2.0.3 -> 2.0.4 (adds MDTM)...")
		w.C.Update(ftpd.Update("2.0.3", "2.0.4"))
		for i := 0; i < 4; i++ {
			c.Do(tk, "NOOP")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Fprintf(d.out, "  > MDTM readme.txt (old leads)  %s", c.Do(tk, "MDTM readme.txt"))
		tk.Sleep(20 * time.Millisecond)
		w.C.Promote()
		for i := 0; i < 4; i++ {
			c.Do(tk, "NOOP")
			tk.Sleep(10 * time.Millisecond)
		}
		w.C.Commit()
		fmt.Fprintf(d.out, "  > MDTM readme.txt (new leads)  %s", c.Do(tk, "MDTM readme.txt"))
	})
	if err := w.Run(time.Hour); err != nil {
		return err
	}
	return d.finish(w)
}

func (d *demo) cluster() error {
	fmt.Fprintln(d.out, "upgrading a 4-node sharded cluster (20k entries/node) under live load,")
	fmt.Fprintln(d.out, "with each strategy; what the clients experience:")
	results, err := rolling.Compare(4, 20000, "2.0.0", "2.0.1")
	if err != nil {
		return err
	}
	fmt.Fprintln(d.out, rolling.FormatComparison(results))
	return nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
