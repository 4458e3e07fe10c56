package apptest

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/core"
	"mvedsua/internal/mve"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// This file is the one judge of a run. A run declares the Outcome it
// ends in, and Judge holds the world's Final state to it. Then Judge
// replays what the run's clients sent on a twin that was never updated
// and compares every reply: the paper's promise (§3.2, §6.2) is that no
// fault during an update reaches a client, so what a client read must be
// what the old version alone would have told it.

// Exchange is one step a world's client took: a connect, a send or a
// close. Reply is every byte the client read after the step and before
// its next step on the same connection.
type Exchange struct {
	Conn  int       // the connection, numbered in connect order
	Op    sysabi.Op // OpConnect, OpWrite or OpClose
	Port  int64     // the port a connect dialled
	Sent  string    // the bytes a write sent
	Read  bool      // the client read after the step
	Reply string
}

// Final is the state a world's run ended in. Teardown takes it just
// before Shutdown detaches every variant and kills every process.
type Final struct {
	Stage    core.Stage
	Leader   string   // the leading version
	Variants []string // the live replicas and candidate
	// Verdicts are every verdict the controller acted on, in order.
	Verdicts   []mve.Verdict
	Violations []string // the rule of every tripped threshold, in order
	Counters   map[string]int64
	Retries    int
}

// snapshot reads the world's Final state.
func (w *World) snapshot() Final {
	f := Final{
		Stage:    w.C.Stage(),
		Variants: w.C.LiveVariants(),
		Counters: w.Rec.Snapshot().Counters,
		Retries:  w.C.Retries(),
	}
	if rt := w.C.LeaderRuntime(); rt != nil {
		f.Leader = rt.App().Version()
	}
	for _, ev := range w.C.Timeline() {
		switch ev.Kind {
		case core.KindVerdict:
			f.Verdicts = append(f.Verdicts, ev.Verdict)
		case core.KindViolation:
			f.Violations = append(f.Violations, ev.Rule)
		}
	}
	return f
}

// Outcome is the final state a run declares it ends in. Judge compares
// every field with the world's Final state, so a zero field declares a
// zero value; of the counters, only the ones named are compared.
type Outcome struct {
	Stage      core.Stage
	Leader     string
	Fleet      int // live variants
	Verdicts   []Verdict
	Violations []string
	Counters   map[string]int64
	Retries    int
}

// Verdict is a verdict as an outcome declares it: its cause and action.
type Verdict struct {
	Cause  string
	Action mve.VerdictAction
}

// String reads "cause:action".
func (v Verdict) String() string { return v.Cause + ":" + v.Action.String() }

// Breach is one way a finished run broke its promise.
type Breach struct {
	// Exchange is the index of the transcript step whose reply the twin
	// did not give, -1 for every other breach.
	Exchange int
	Detail   string
}

// String returns the detail.
func (b Breach) String() string { return b.Detail }

// Judge returns every breach of a finished run: each field of its Final
// state that differs from want, then each step of its transcript whose
// reply differs from the twin's. The world must have been deployed with
// Start and run to teardown.
func (w *World) Judge(want Outcome) []Breach {
	return append(w.final.breaches(want), w.replayOnTwin()...)
}

// breaches compares f with want, field by field.
func (f Final) breaches(want Outcome) []Breach {
	var out []Breach
	differ := func(what string, got, want any) {
		if g, d := fmt.Sprint(got), fmt.Sprint(want); g != d {
			out = append(out, Breach{Exchange: -1, Detail: fmt.Sprintf("%s %s, declared %s", what, g, d)})
		}
	}
	differ("stage", f.Stage, want.Stage)
	differ("leader", f.Leader, want.Leader)
	differ("fleet", len(f.Variants), want.Fleet)
	var verdicts []Verdict
	for _, v := range f.Verdicts {
		verdicts = append(verdicts, Verdict{Cause: v.Cause, Action: v.Action})
	}
	differ("verdicts", verdicts, want.Verdicts)
	differ("violations", f.Violations, want.Violations)
	names := make([]string, 0, len(want.Counters))
	for name := range want.Counters { // maporder: ok — names are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		differ(name, f.Counters[name], want.Counters[name])
	}
	differ("retries", f.Retries, want.Retries)
	return out
}

// twinQuiet is how long the twin's client waits for more of a reply
// before it takes what it has. The twin runs no fault and no update, so
// a reply it has not sent within a virtual second it never sends.
const twinQuiet = time.Second

// replayOnTwin replays the transcript on a fresh single-leader world
// running the twin under the run's runtime template, one step at a time
// in the order the run took them, and returns a breach for every reply
// that differs: a lost, duplicated or changed one alike. The twin reads
// after a step only when the run's client did; it replays at its own
// pace, so a reply that depends on the clock (a TTL) would differ.
func (w *World) replayOnTwin() []Breach {
	if w.twin == nil {
		return []Breach{{Exchange: -1, Detail: "no twin: the world was not deployed with Start"}}
	}
	tw := NewWorld(core.Config{DSU: w.dsu})
	tw.C.Start(w.twin)
	var out []Breach
	tw.S.Go("apptest/twin", func(tk *sim.Task) {
		defer tw.Finish()
		var conns []*Client
		for i, e := range w.transcript {
			switch e.Op {
			case sysabi.OpConnect:
				conns = append(conns, Connect(tw.K, tk, e.Port))
			case sysabi.OpWrite:
				conns[e.Conn].Send(tk, e.Sent)
			case sysabi.OpClose:
				conns[e.Conn].Close(tk)
			}
			if !e.Read {
				continue
			}
			if got := conns[e.Conn].recvFor(tk, len(e.Reply)); got != e.Reply {
				out = append(out, Breach{Exchange: i, Detail: fmt.Sprintf(
					"exchange %d on connection %d: sent %q, read %q; the twin replied %q", i, e.Conn, e.Sent, e.Reply, got)})
			}
		}
	})
	if err := tw.Run(); err != nil {
		out = append(out, Breach{Exchange: -1, Detail: "twin: " + err.Error()})
	}
	return out
}

// recvFor reads until n bytes have arrived, or nothing more arrives for
// twinQuiet, or the connection ends, and returns what it read.
func (c *Client) recvFor(tk *sim.Task, n int) string {
	ep := int(c.k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
	defer c.k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: ep})
	c.k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: ep, Args: [2]int64{int64(c.fd), 1}})
	var b strings.Builder
	for n == 0 || b.Len() < n {
		wait := sysabi.Call{Op: sysabi.OpEpollWait, FD: ep, Args: [2]int64{1, int64(twinQuiet)}}
		if c.k.Invoke(tk, wait).Ret == 0 {
			break
		}
		part := c.recv(tk)
		if len(part) == 0 {
			break
		}
		b.Write(part)
	}
	return b.String()
}
