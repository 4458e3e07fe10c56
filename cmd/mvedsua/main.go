// Command mvedsua runs a scripted demonstration of one server under the
// MVEDSUA controller — deploy, dynamically update, promote, commit — and
// prints the run's lifecycle as the flight recorder saw it: stages,
// roles, divergences, each rule's first hit per process, stalls,
// verdicts, faults and retries.
//
//	mvedsua -app tkv                       # the paper's running example
//	mvedsua -app redis                     # kvstore 2.0.0 -> 2.0.1
//	mvedsua -app memcached                 # memcache 1.2.2 -> 1.2.3
//	mvedsua -app vsftpd                    # ftpd 1.1.3 -> 1.2.0: STOU, both rule sets
//
// With -fault the demo is one of the paper's §6.2 faults, run as the row
// of `benchtool -experiment faults` or the cell of `-experiment chaos`
// that tells it (bench.Story); it prints that row's verdict, then the
// lifecycle:
//
//	mvedsua -app redis -fault newcode      # HMGET crash -> rollback
//	mvedsua -app redis -fault xform        # broken transformation -> rollback
//	mvedsua -app redis -fault stall        # hung follower -> watchdog rollback
//	mvedsua -app memcached -fault xform    # freed LibEvent state -> rollback
//	mvedsua -app memcached -fault timing   # missing LibEvent reset -> retries
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
	"mvedsua/internal/bench"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/obs"
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
	app := fs.String("app", "tkv", "tkv|redis|memcached|vsftpd")
	fault := fs.String("fault", "", "''|newcode|xform|stall (redis), ''|xform|timing (memcached)")
	report := fs.String("report", "", "write the run's metrics, Perfetto export and virtual-clock profile into this directory")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	d := &demo{out: out, report: *report}
	if *fault != "" {
		return d.story(*app + "/" + *fault)
	}
	switch *app {
	case "tkv":
		return d.tkv()
	case "redis":
		return d.redis()
	case "memcached":
		return d.memcached()
	case "vsftpd":
		return d.vsftpd()
	}
	return fmt.Errorf("unknown app %q; have tkv, redis, memcached, vsftpd", *app)
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
func (d *demo) setup(w *apptest.World) {
	if d.report != "" {
		w.EnableSpanTracing()
		d.prof = w.EnableProfiling()
	}
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

// story runs a fault demo: the bench row it names, with this demo's
// instruments, then its verdict and lifecycle. A row that did not
// tolerate its fault still prints both, and fails the run.
func (d *demo) story(name string) error {
	verdict, w, err := bench.Story(name, d.setup)
	if w == nil {
		return err
	}
	fmt.Fprint(d.out, verdict)
	return errors.Join(err, d.finish(w))
}

func (d *demo) tkv() error {
	w := apptest.NewWorld(core.Config{})
	d.setup(w)
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
	if err := w.Run(); err != nil {
		return err
	}
	return d.finish(w)
}

func (d *demo) redis() error {
	w := apptest.NewWorld(core.Config{})
	d.setup(w)
	w.C.Start(kvstore.New(kvstore.SpecFor("2.0.0", false)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		fmt.Fprintf(d.out, "  > SET plain value        %s", c.Do(tk, "SET plain value"))
		fmt.Fprintln(d.out, "updating Redis 2.0.0 -> 2.0.1 (one DSL rule)...")
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{PerEntryXform: time.Microsecond}))
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR counter")
			tk.Sleep(10 * time.Millisecond)
		}
		w.C.Promote()
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR counter")
			tk.Sleep(10 * time.Millisecond)
		}
		w.C.Commit()
		fmt.Fprintf(d.out, "  > GET plain              %s", c.Do(tk, "GET plain"))
		fmt.Fprintf(d.out, "final leader version: %s\n", w.C.LeaderRuntime().App().Version())
	})
	if err := w.Run(); err != nil {
		return err
	}
	return d.finish(w)
}

func (d *demo) memcached() error {
	w := apptest.NewWorld(core.Config{DSU: dsu.Config{
		EpollWaitIsUpdatePoint: true,
		EpollUpdateInterval:    5 * time.Millisecond,
		OnAbort:                memcache.AbortReset,
	}})
	d.setup(w)
	w.C.Start(memcache.New(memcache.SpecFor("1.2.2", 1)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		a := apptest.Connect(w.K, tk, memcache.Port)
		b := apptest.Connect(w.K, tk, memcache.Port)
		defer a.Close(tk)
		defer b.Close(tk)
		a.Send(tk, "set k 0 0 5\r\nhello\r\n")
		a.RecvUntil(tk, "STORED\r\n")
		fmt.Fprintln(d.out, "updating Memcached 1.2.2 -> 1.2.3 (no DSL rules needed)...")
		w.C.Update(memcache.Update("1.2.2", "1.2.3", memcache.UpdateOpts{PerItemXform: time.Microsecond}))
		for round := 0; round < 40; round++ {
			a.Send(tk, "get k\r\n")
			b.Send(tk, "get k\r\n")
			a.RecvUntil(tk, "END\r\n")
			b.RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
			if w.C.Stage() == core.StageOutdatedLeader {
				break
			}
		}
		w.C.Promote()
		for i := 0; i < 5; i++ {
			a.Send(tk, "get k\r\n")
			a.RecvUntil(tk, "END\r\n")
			tk.Sleep(15 * time.Millisecond)
		}
		w.C.Commit()
		a.Send(tk, "version\r\n")
		fmt.Fprintf(d.out, "final version reply: %s", a.RecvUntil(tk, "\r\n"))
	})
	if err := w.Run(); err != nil {
		return err
	}
	return d.finish(w)
}

// vsftpd updates across the pair that adds STOU: while the old version
// leads, Figure 5's forward redirect keeps the follower in step with the
// rejected command; once the new version leads, the reverse tolerate rule
// keeps the demoted old version in step with the stored file.
func (d *demo) vsftpd() error {
	w := apptest.NewWorld(core.Config{})
	d.setup(w)
	w.C.Start(ftpd.New(ftpd.SpecFor("1.1.3")))
	fwd, rev := ftpd.RulesFor("1.1.3", "1.2.0")
	fmt.Fprintln(d.out, "generated forward rules for 1.1.3 -> 1.2.0 (old version leads):")
	fmt.Fprintln(d.out, indent(fwd.String()))
	fmt.Fprintln(d.out, "generated reverse rules (new version leads):")
	fmt.Fprintln(d.out, indent(rev.String()))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, ftpd.Port)
		defer c.Close(tk)
		c.RecvUntil(tk, "\r\n")
		c.Do(tk, "USER anonymous")
		c.Do(tk, "PASS guest")
		fmt.Fprintln(d.out, "updating Vsftpd 1.1.3 -> 1.2.0 (adds STOU)...")
		w.C.Update(ftpd.Update("1.1.3", "1.2.0"))
		for i := 0; i < 4; i++ {
			c.Do(tk, "NOOP")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Fprintf(d.out, "  > STOU some-data (old leads)         %s", c.Do(tk, "STOU some-data"))
		tk.Sleep(20 * time.Millisecond)
		w.C.Promote()
		for i := 0; i < 4; i++ {
			c.Do(tk, "NOOP")
			tk.Sleep(10 * time.Millisecond)
		}
		fmt.Fprintf(d.out, "  > STOU precious-payload (new leads)  %s", c.Do(tk, "STOU precious-payload"))
		tk.Sleep(20 * time.Millisecond)
		c.Send(tk, "RETR stou.0001\r\n")
		fmt.Fprintf(d.out, "  > RETR stou.0001                     %q\n", c.RecvUntil(tk, "226 Transfer complete.\r\n"))
		w.C.Commit()
	})
	if err := w.Run(); err != nil {
		return err
	}
	return d.finish(w)
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
