package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/chaos"
	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// srv is the test application: a counter server whose reply format is
// version-specific, with injectable faults.
type srv struct {
	version  string
	listenFD int
	connFD   int
	count    int

	// crashOn makes the server panic when the counter reaches the value
	// (new-code / old-code error injection).
	crashOn int
	// misformatAfter makes replies wrong after the counter passes the
	// value (semantic divergence injection); 0 disables.
	misformatAfter int
	// blockedWorker, when non-nil, makes Main spawn a worker that parks
	// on the queue and only reaches an update point when woken — the
	// paper's timing-error shape (§2.4): a thread waiting on a lock
	// prevents quiescence.
	blockedWorker *sim.WaitQueue
}

func (a *srv) Version() string { return a.version }

func (a *srv) Fork() dsu.App {
	cp := *a
	return &cp
}

func (a *srv) reply() string {
	if a.misformatAfter > 0 && a.count > a.misformatAfter {
		return "GARBAGE"
	}
	if a.version == "v1" {
		return fmt.Sprintf("%d", a.count)
	}
	return fmt.Sprintf("%s:%d", a.version, a.count)
}

func (a *srv) Main(env *dsu.Env) {
	if !env.Updating() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9000, 0}})
		a.listenFD = int(r.Ret)
		r = env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: a.listenFD})
		a.connFD = int(r.Ret)
	}
	if a.blockedWorker != nil {
		q := a.blockedWorker
		env.Go("busy", func(we *dsu.Env) {
			for !we.Exiting() {
				we.Task().Block(q)
				if we.UpdatePoint("busy") == dsu.Exit {
					return
				}
			}
		})
	}
	for !env.Exiting() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: a.connFD, Args: [2]int64{64, 0}})
		if !r.OK() || r.Ret == 0 {
			return
		}
		a.count++
		if a.crashOn > 0 && a.count >= a.crashOn {
			panic(fmt.Sprintf("%s bug at count %d", a.version, a.count))
		}
		env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: a.connFD, Buf: []byte(a.reply())})
		if env.UpdatePoint("main_loop") == dsu.Exit {
			return
		}
	}
}

// upgrade builds the v1 -> v2 descriptor; mutate tweaks the new instance
// (fault injection), xformErr breaks the transformation.
//
// v2 prefixes replies with "v2:", an intentional behaviour change, so the
// update ships rewrite rules (§3.3): while the old version leads, its
// reply "N" corresponds to the follower's "v2:N"; after promotion the
// reverse rule maps the new leader's "v2:N" back to the old follower's
// "N".
func upgrade(xformErr error, mutate func(*srv)) *dsu.Version {
	return &dsu.Version{
		Name: "v2",
		Rules: dsl.MustParse(`
rule "v1-to-v2-reply" {
    match write(fd, s, n) {
        emit write(fd, concat("v2:", s), n + 3);
    }
}
`),
		ReverseRules: dsl.MustParse(`
rule "v2-to-v1-reply" {
    match write(fd, s, n) where prefix(s, "v2:") {
        emit write(fd, sub(s, 3, len(s)), n - 3);
    }
}
`),
		Xform: func(old dsu.App) (dsu.App, error) {
			if xformErr != nil {
				return nil, xformErr
			}
			o := old.(*srv)
			n := &srv{version: "v2", listenFD: o.listenFD, connFD: o.connFD, count: o.count}
			if mutate != nil {
				mutate(n)
			}
			return n, nil
		},
	}
}

// pinger is a test world's client side: the scheduler and kernel it
// runs on, the replies it read and whether it finished.
type pinger struct {
	s       *sim.Scheduler
	k       *vos.Kernel
	replies []string
	done    bool
}

// client sends pings, invoking hooks[i] before message i (nil = none).
func (h *pinger) client(n int, hooks map[int]func(tk *sim.Task)) {
	h.s.Go("client", func(tk *sim.Task) {
		fd := int(h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		for i := 0; i < n; i++ {
			if hook := hooks[i]; hook != nil {
				hook(tk)
			}
			h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			h.replies = append(h.replies, string(r.Data))
			// Give background machinery (follower catch-up, promotion)
			// a window between requests.
			tk.Sleep(10 * time.Millisecond)
		}
		h.k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
		h.done = true
	})
}

// harness wires a controller plus a gated client and runs the scenario.
type harness struct {
	pinger
	c *Controller
}

func newHarness(cfg Config) *harness {
	s := sim.New()
	k := vos.NewKernel(s)
	return &harness{pinger: pinger{s: s, k: k}, c: New(k, cfg)}
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	// Tear everything down at the end so Run terminates: kill remaining
	// runtime tasks once the client is done. A client still waiting
	// after 60 s is wedged: tear down anyway, and Run reports it as the
	// deadlock it is.
	h.s.Go("teardown", func(tk *sim.Task) {
		for i := 0; !h.clientDone() && i < 1200; i++ {
			tk.Sleep(50 * time.Millisecond)
		}
		h.c.Shutdown()
	})
	if err := h.s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func (h *harness) clientDone() bool { return h.done }

// entries returns c's timeline entries of kind k.
func entries(c *Controller, k Kind) []Event {
	var out []Event
	for _, ev := range c.Timeline() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// decision returns the n timeline entries that start at the first entry
// of kind first, which must all share its instant.
func decision(t *testing.T, c *Controller, first Kind, n int) []Event {
	t.Helper()
	tl := c.Timeline()
	for i, ev := range tl {
		if ev.Kind != first {
			continue
		}
		if i+n > len(tl) {
			t.Fatalf("%d entries from %+v, want %d", len(tl)-i, ev, n)
		}
		for _, e := range tl[i : i+n] {
			if e.At != ev.At {
				t.Fatalf("decision spans two instants: %+v", tl[i:i+n])
			}
		}
		return tl[i : i+n]
	}
	t.Fatalf("no entry of kind %d: %+v", first, tl)
	return nil
}

func TestFullUpdateLifecycle(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(8, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { // t1: update after 2 replies
			if !h.c.Update(v2) {
				t.Error("Update rejected")
			}
		},
		5: func(tk *sim.Task) { // t4: promote after 5 replies
			if !h.c.Promote() {
				t.Error("Promote rejected")
			}
		},
		7: func(tk *sim.Task) { // t6: commit
			if h.c.Stage() != StageUpdatedLeader {
				t.Errorf("stage before commit = %v", h.c.Stage())
			}
			if !h.c.Commit() {
				t.Error("Commit rejected")
			}
		},
	})
	h.run(t)
	// Replies 1-6 come from v1 (old semantics kept while it leads, even
	// after the update was applied on the follower; the promotion takes
	// effect at the leader's quiescence after serving request 6); the
	// rest from v2, with the counter preserved.
	want := []string{"1", "2", "3", "4", "5", "6", "v2:7", "v2:8"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v\nwant %v", h.replies, want)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("final stage = %v", h.c.Stage())
	}
	if len(h.c.Monitor().Divergences()) != 0 {
		t.Fatalf("divergences: %v", h.c.Monitor().Divergences())
	}
	// The timeline walked all four stages.
	stages := map[Stage]bool{}
	for _, ev := range h.c.Timeline() {
		stages[ev.Stage] = true
	}
	for _, st := range []Stage{StageSingleLeader, StageOutdatedLeader, StagePromoting, StageUpdatedLeader} {
		if !stages[st] {
			t.Errorf("timeline missing stage %v: %+v", st, h.c.Timeline())
		}
	}
}

func TestSemanticDivergenceRollsBack(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	// The updated version formats replies wrong after count 4: during
	// the outdated-leader stage its writes mismatch and it is rolled
	// back; clients keep seeing v1 output throughout.
	v2 := upgrade(nil, func(n *srv) { n.misformatAfter = 4 })
	h.client(8, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v", h.replies)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
	if len(h.c.Monitor().Divergences()) == 0 {
		t.Fatal("no divergence recorded")
	}
	if h.c.LeaderRuntime().App().Version() != "v1" {
		t.Fatalf("leader version = %s", h.c.LeaderRuntime().App().Version())
	}
	if len(entries(h.c, KindRollback)) == 0 {
		t.Fatalf("timeline has no rollback: %+v", h.c.Timeline())
	}
}

func TestStateXformErrorRollsBack(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(fmt.Errorf("freed memory still in use"), nil)
	// A failed transformation is a recorded outcome, not a process
	// crash: the rollback note names the transformation, never a crash.
	h.client(6, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	if vs := entries(h.c, KindVerdict); len(vs) != 0 {
		t.Fatalf("xform error surfaced as a verdict instead of a failed-update rollback: %+v", vs)
	}
	if rb := entries(h.c, KindRollback); len(rb) != 1 || !strings.Contains(rb[0].Note, "freed memory still in use") ||
		!strings.HasPrefix(rb[0].Note, "rolled back: state transformation to v2 failed") {
		t.Fatalf("no graceful rollback in timeline: %v", h.c.Timeline())
	}
	want := []string{"1", "2", "3", "4", "5", "6"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v (clients noticed the failed update)", h.replies)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
	if got := h.c.LeaderRuntime().App().Version(); got != "v1" {
		t.Fatalf("leader version = %s, want v1", got)
	}
}

// upgradeFromV2 builds the second hop of an update train: v2 -> name,
// with same-length reply rewrites in both directions.
func upgradeFromV2(name string) *dsu.Version {
	return &dsu.Version{
		Name: name,
		Rules: dsl.MustParse(`
rule "v2-to-next-reply" {
    match write(fd, s, n) where prefix(s, "v2:") {
        emit write(fd, concat("` + name + `:", sub(s, 3, len(s))), n);
    }
}
`),
		ReverseRules: dsl.MustParse(`
rule "next-to-v2-reply" {
    match write(fd, s, n) where prefix(s, "` + name + `:") {
        emit write(fd, concat("v2:", sub(s, 3, len(s))), n);
    }
}
`),
		Xform: func(old dsu.App) (dsu.App, error) {
			o := old.(*srv)
			return &srv{version: name, listenFD: o.listenFD, connFD: o.connFD, count: o.count}, nil
		},
	}
}

// An update train: the second hop is queued while the first is still in
// flight, arms automatically when the first commits, and walks the full
// lifecycle itself — no request is ever dropped.
func TestQueuedUpdateTrainCommitsBothHops(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	v3 := upgradeFromV2("v3")
	h.client(14, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			if pos := h.c.QueueUpdate(v2); pos != 0 {
				t.Errorf("QueueUpdate(v2) position = %d, want 0 (immediate)", pos)
			}
			if pos := h.c.QueueUpdate(v3); pos != 1 {
				t.Errorf("QueueUpdate(v3) position = %d, want 1 (queued)", pos)
			}
			if h.c.QueuedUpdates() != 1 {
				t.Errorf("QueuedUpdates = %d, want 1", h.c.QueuedUpdates())
			}
		},
		5: func(tk *sim.Task) {
			if !h.c.Promote() {
				t.Error("first Promote rejected")
			}
		},
		7: func(tk *sim.Task) {
			if !h.c.Commit() {
				t.Error("first Commit rejected")
			}
			// The queued hop must be armed by the commit, not dropped.
			if h.c.QueuedUpdates() != 0 {
				t.Errorf("QueuedUpdates after commit = %d, want 0 (armed)", h.c.QueuedUpdates())
			}
		},
		10: func(tk *sim.Task) {
			if !h.c.Promote() {
				t.Error("second Promote rejected")
			}
		},
		12: func(tk *sim.Task) {
			if !h.c.Commit() {
				t.Error("second Commit rejected")
			}
		},
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6", "v2:7", "v2:8", "v2:9", "v2:10", "v2:11", "v3:12", "v3:13", "v3:14"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v\nwant %v", h.replies, want)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("final stage = %v", h.c.Stage())
	}
	if got := h.c.LeaderRuntime().App().Version(); got != "v3" {
		t.Fatalf("leader version = %s, want v3", got)
	}
	if len(h.c.Monitor().Divergences()) != 0 {
		t.Fatalf("divergences: %v", h.c.Monitor().Divergences())
	}
}

// A rollback mid-train flushes the queued hops: later hops assume the
// earlier hops' state shape, so skipping a failed hop is never safe.
func TestRollbackMidTrainFlushesQueuedHops(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	// First hop diverges after count 4; the queued second hop must die
	// with it.
	v2 := upgrade(nil, func(n *srv) { n.misformatAfter = 4 })
	v3 := upgradeFromV2("v3")
	h.client(8, map[int]func(*sim.Task){
		2: func(tk *sim.Task) {
			h.c.QueueUpdate(v2)
			if pos := h.c.QueueUpdate(v3); pos != 1 {
				t.Errorf("QueueUpdate(v3) position = %d, want 1", pos)
			}
		},
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v", h.replies)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
	if got := h.c.LeaderRuntime().App().Version(); got != "v1" {
		t.Fatalf("leader version = %s, want v1 (rollback)", got)
	}
	if h.c.QueuedUpdates() != 0 {
		t.Fatalf("QueuedUpdates = %d after rollback, want 0 (flushed)", h.c.QueuedUpdates())
	}
	if tr := entries(h.c, KindTrain); tr[len(tr)-1].Note != "update train flushed after rollback of v2 (1 queued hop(s) dropped)" {
		t.Fatalf("timeline has no train flush: %+v", h.c.Timeline())
	}
}

func TestNewCodeCrashRollsBack(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	// The new version crashes when the counter reaches 5 (the HMGET-
	// style bug): under MVEDSUA the follower dies, execution reverts to
	// the old version, and clients proceed without incident (§6.2).
	v2 := upgrade(nil, func(n *srv) { n.crashOn = 5 })
	h.client(8, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v", h.replies)
	}
	if h.c.Stage() != StageSingleLeader || h.c.LeaderRuntime().App().Version() != "v1" {
		t.Fatalf("stage=%v version=%s", h.c.Stage(), h.c.LeaderRuntime().App().Version())
	}
}

func TestOldVersionCrashPromotesFollower(t *testing.T) {
	h := newHarness(Config{})
	// The old version has a bug at count 5; the new version fixes it.
	h.c.Start(&srv{version: "v1", crashOn: 5})
	v2 := upgrade(nil, func(n *srv) { n.crashOn = 0 })
	h.client(8, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	// Replies 1-4 from v1; v1 crashes serving #5; the promoted v2
	// finishes that request and the rest. No state or requests lost.
	want := []string{"1", "2", "3", "4", "v2:5", "v2:6", "v2:7", "v2:8"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v\nwant %v", h.replies, want)
	}
	if h.c.LeaderRuntime().App().Version() != "v2" {
		t.Fatalf("leader version = %s", h.c.LeaderRuntime().App().Version())
	}
}

func TestNewLeaderCrashRevertsToOldVersion(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	// The new version has a latent bug that only fires after promotion
	// (at count 6); the still-warm old follower takes back over.
	v2 := upgrade(nil, func(n *srv) { n.crashOn = 6 })
	h.client(8, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
		3: func(tk *sim.Task) { h.c.Promote() },
	})
	h.run(t)
	// Replies 1-4 come from v1 (promotion lands at the quiescence after
	// request 4); v2 serves 5 and crashes serving 6; the reverted v1
	// serves 6, 7, 8. No requests are lost.
	want := []string{"1", "2", "3", "4", "v2:5", "6", "7", "8"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v\nwant %v\ntimeline: %+v", h.replies, want, h.c.Timeline())
	}
	if got := h.c.LeaderRuntime().App().Version(); got != "v1" {
		t.Fatalf("leader version = %s, want reverted v1", got)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
	reverted := false
	for _, ev := range h.c.Timeline() {
		if strings.Contains(ev.Note, "reverting to old version") {
			reverted = true
		}
	}
	if !reverted {
		t.Fatalf("timeline missing revert: %+v", h.c.Timeline())
	}
}

// After one committed update the leader's runtime and the next
// candidate's were both created in the follower role, and their task
// names start alike; a crash is still the leader's. v2 crashes serving
// #9 while v3 validates it: v3 is promoted, answers #9 and the rest.
func TestLeaderCrashAfterCommittedUpdatePromotesNextCandidate(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(nil, func(n *srv) { n.crashOn = 9 })
	h.client(12, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
		3: func(tk *sim.Task) { h.c.Promote() },
		5: func(tk *sim.Task) { h.c.Commit() },
		6: func(tk *sim.Task) { h.c.Update(upgradeFromV2("v3")) },
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "v2:5", "v2:6", "v2:7", "v2:8", "v3:9", "v3:10", "v3:11", "v3:12"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v\nwant %v\ntimeline: %+v", h.replies, want, h.c.Timeline())
	}
	if got := h.c.LeaderRuntime().App().Version(); got != "v3" || h.c.Stage() != StageSingleLeader {
		t.Fatalf("leader version = %s in %v, want v3 in single-leader", got, h.c.Stage())
	}
}

// Two controllers share one scheduler, each over its own kernel, as one
// per cluster node does. A's leader crashes during A's update: A
// promotes its follower, and B — built last, so its handler sees the
// crash first — passes it on and records nothing.
func TestCrashReachesItsOwnControllerOnASharedScheduler(t *testing.T) {
	a := newHarness(Config{})
	b := &harness{pinger: pinger{s: a.s, k: vos.NewKernel(a.s)}}
	b.c = New(b.k, Config{})
	a.c.Start(&srv{version: "v1", crashOn: 5})
	b.c.Start(&srv{version: "v1"})
	a.client(8, map[int]func(*sim.Task){
		2: func(tk *sim.Task) { a.c.Update(upgrade(nil, nil)) },
	})
	b.client(8, nil)
	bEntries := len(b.c.Timeline())
	a.s.Go("teardown", func(tk *sim.Task) {
		for i := 0; !(a.done && b.done) && i < 1200; i++ {
			tk.Sleep(50 * time.Millisecond)
		}
		a.c.Shutdown()
		b.c.Shutdown()
	})
	if err := a.s.Run(); err != nil {
		t.Fatalf("Run: %v\nA's timeline: %+v", err, a.c.Timeline())
	}
	want := []string{"1", "2", "3", "4", "v2:5", "v2:6", "v2:7", "v2:8"}
	if strings.Join(a.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("A's replies = %v\nwant %v", a.replies, want)
	}
	if got := a.c.LeaderRuntime().App().Version(); got != "v2" {
		t.Fatalf("A's leader version = %s, want v2", got)
	}
	if got := strings.Join(b.replies, ","); got != "1,2,3,4,5,6,7,8" {
		t.Fatalf("B's replies = %s", got)
	}
	if tl := b.c.Timeline(); len(tl) != bEntries {
		t.Fatalf("B's timeline gained %+v", tl[bEntries:])
	}
}

func TestTimingErrorRetriesUntilInstalled(t *testing.T) {
	h := newHarness(Config{
		RetryInterval: 100 * time.Millisecond,
		DSU:           dsu.Config{QuiesceTimeout: 50 * time.Millisecond},
	})
	// The worker holds "the lock" (parks off any update point) for the
	// first 380ms; attempts during that window time out and are retried
	// every 100ms; once the lock is released the retry installs
	// (§6.2: update always installed eventually, max 8 retries).
	var lock sim.WaitQueue
	h.c.Start(&srv{version: "v1", blockedWorker: &lock})
	h.s.Go("lock-releaser", func(tk *sim.Task) {
		tk.Sleep(380 * time.Millisecond)
		for i := 0; i < 400; i++ {
			lock.WakeAll(h.s)
			tk.Sleep(5 * time.Millisecond)
			if h.done {
				return
			}
		}
	})
	v2 := upgrade(nil, nil)
	h.client(60, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	if h.c.Stage() != StageOutdatedLeader {
		t.Fatalf("stage = %v; update never installed (retries=%d)\ntimeline: %+v",
			h.c.Stage(), h.c.Retries(), h.c.Timeline())
	}
	if h.c.Retries() == 0 {
		t.Fatal("update installed without any retries; timing error not exercised")
	}
	if h.c.Retries() > 8 {
		t.Fatalf("retries = %d, want <= 8", h.c.Retries())
	}
}

func TestUpdateRejectedOutsideSingleLeader(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(6, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
		3: func(tk *sim.Task) {
			if h.c.Update(upgrade(nil, nil)) {
				t.Error("second Update accepted during outdated-leader stage")
			}
		},
		4: func(tk *sim.Task) { h.c.Promote() },
	})
	h.run(t)
	if h.c.Stage() != StageUpdatedLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
}

func TestManualRollbackDuringOutdatedLeader(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(6, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
		3: func(tk *sim.Task) {
			if !h.c.Rollback("operator changed their mind") {
				t.Error("Rollback rejected")
			}
		},
	})
	h.run(t)
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
	want := []string{"1", "2", "3", "4", "5", "6"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v", h.replies)
	}
}

func TestCommitRequiresUpdatedLeader(t *testing.T) {
	h := newHarness(Config{})
	h.c.Start(&srv{version: "v1"})
	if h.c.Commit() {
		t.Fatal("Commit accepted in single-leader stage")
	}
	if h.c.Rollback("x") {
		t.Fatal("Rollback accepted in single-leader stage")
	}
	h.client(1, nil)
	h.run(t)
}

func TestStageString(t *testing.T) {
	names := map[Stage]string{
		StageSingleLeader:   "single-leader",
		StageOutdatedLeader: "outdated-leader",
		StagePromoting:      "promoting",
		StageUpdatedLeader:  "updated-leader",
		Stage(9):            "stage(9)",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative buffer", Config{BufferEntries: -1}, "BufferEntries"},
		{"negative retry interval", Config{RetryInterval: -time.Second}, "RetryInterval"},
		{"negative retry cap", Config{RetryMaxInterval: -1}, "RetryMaxInterval"},
		{"cap below base", Config{RetryInterval: time.Second, RetryMaxInterval: time.Millisecond}, "cannot undercut"},
		{"negative watchdog", Config{WatchdogDeadline: -1}, "WatchdogDeadline"},
		{"negative max retries", Config{MaxRetries: -2}, "MaxRetries"},
		{"retries without interval", Config{MaxRetries: 3}, "retries are disabled"},
		{"rollback retry without interval", Config{RetryOnRollback: true}, "RetryOnRollback"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("New accepted an invalid config")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic = %v, want substring %q", r, tc.want)
				}
			}()
			New(vos.NewKernel(sim.New()), tc.cfg)
		})
	}
	// The zero config stays valid and picks up the documented defaults.
	c := New(vos.NewKernel(sim.New()), Config{})
	if c.cfg.BufferEntries != 256 || c.cfg.MaxRetries != 8 {
		t.Fatalf("defaults = %+v", c.cfg)
	}
}

// TestRollbackSafeFromEveryStage drives the lifecycle to each stage and
// checks Rollback is accepted exactly where Figure 2 allows it — and
// that a rejected Rollback (double rollback, rollback after commit)
// leaves the controller undisturbed.
func TestRollbackSafeFromEveryStage(t *testing.T) {
	cases := []struct {
		name    string
		hooks   func(t *testing.T, h *harness) map[int]func(*sim.Task)
		final   Stage
		version string // leader app version at the end
	}{
		{
			name: "single-leader",
			hooks: func(t *testing.T, h *harness) map[int]func(*sim.Task) {
				return map[int]func(*sim.Task){
					2: func(tk *sim.Task) {
						if h.c.Rollback("nothing to roll back") {
							t.Error("Rollback accepted with no update in flight")
						}
					},
				}
			},
			final: StageSingleLeader, version: "v1",
		},
		{
			name: "outdated-leader-and-double-rollback",
			hooks: func(t *testing.T, h *harness) map[int]func(*sim.Task) {
				return map[int]func(*sim.Task){
					1: func(tk *sim.Task) { h.c.Update(upgrade(nil, nil)) },
					3: func(tk *sim.Task) {
						if !h.c.Rollback("first") {
							t.Error("Rollback rejected in outdated-leader stage")
						}
						if h.c.Rollback("second") {
							t.Error("double Rollback accepted")
						}
					},
				}
			},
			final: StageSingleLeader, version: "v1",
		},
		{
			name: "promoting",
			hooks: func(t *testing.T, h *harness) map[int]func(*sim.Task) {
				return map[int]func(*sim.Task){
					1: func(tk *sim.Task) { h.c.Update(upgrade(nil, nil)) },
					3: func(tk *sim.Task) {
						if !h.c.Promote() {
							t.Error("Promote rejected")
						}
						if h.c.Stage() != StagePromoting {
							t.Errorf("stage after Promote = %v", h.c.Stage())
						}
						// The demotion barrier has not run yet: rollback
						// must still win the race cleanly.
						if !h.c.Rollback("changed my mind mid-promotion") {
							t.Error("Rollback rejected in promoting stage")
						}
					},
				}
			},
			final: StageSingleLeader, version: "v1",
		},
		{
			name: "updated-leader-rejects-rollback",
			hooks: func(t *testing.T, h *harness) map[int]func(*sim.Task) {
				return map[int]func(*sim.Task){
					1: func(tk *sim.Task) { h.c.Update(upgrade(nil, nil)) },
					3: func(tk *sim.Task) { h.c.Promote() },
					6: func(tk *sim.Task) {
						if h.c.Stage() != StageUpdatedLeader {
							t.Errorf("stage = %v, want updated-leader", h.c.Stage())
						}
						if h.c.Rollback("too late, new version leads") {
							t.Error("Rollback accepted after promotion; use crash-revert instead")
						}
					},
				}
			},
			final: StageUpdatedLeader, version: "v2",
		},
		{
			name: "after-commit-rejects-rollback",
			hooks: func(t *testing.T, h *harness) map[int]func(*sim.Task) {
				return map[int]func(*sim.Task){
					1: func(tk *sim.Task) { h.c.Update(upgrade(nil, nil)) },
					3: func(tk *sim.Task) { h.c.Promote() },
					6: func(tk *sim.Task) {
						if !h.c.Commit() {
							t.Error("Commit rejected")
						}
						if h.c.Rollback("after commit") {
							t.Error("Rollback accepted after Commit")
						}
					},
				}
			},
			final: StageSingleLeader, version: "v2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(Config{})
			h.c.Start(&srv{version: "v1"})
			h.client(8, tc.hooks(t, h))
			h.run(t)
			if h.c.Stage() != tc.final {
				t.Fatalf("final stage = %v, want %v\ntimeline: %+v", h.c.Stage(), tc.final, h.c.Timeline())
			}
			if got := h.c.LeaderRuntime().App().Version(); got != tc.version {
				t.Fatalf("leader version = %s, want %s", got, tc.version)
			}
			// Every request got a reply regardless of where the rollback
			// landed: no client-visible failures.
			if len(h.replies) != 8 {
				t.Fatalf("replies = %v", h.replies)
			}
			for _, r := range h.replies {
				if r == "" {
					t.Fatalf("empty reply in %v", h.replies)
				}
			}
		})
	}
}

func TestRetryDelaySequence(t *testing.T) {
	c := New(vos.NewKernel(sim.New()), Config{
		RetryInterval:    100 * time.Millisecond,
		RetryMaxInterval: 400 * time.Millisecond,
	})
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond,
	}
	for i, w := range want {
		if got := c.retryDelay(i + 1); got != w {
			t.Errorf("retryDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Default cap is 8x the base interval.
	c2 := New(vos.NewKernel(sim.New()), Config{RetryInterval: 100 * time.Millisecond})
	if got := c2.retryDelay(10); got != 800*time.Millisecond {
		t.Errorf("default-cap retryDelay(10) = %v, want 800ms", got)
	}
}

// TestRetryDelayOverflow pins the overflow clamp: repeated doubling of a
// time.Duration (int64 nanoseconds) wraps negative after ~2^63ns, and a
// negative delay handed to the scheduler would fire the retry
// immediately — turning the gentlest backoff into the most aggressive.
// With a cap too large to ever be reached by doubling, every retry
// count, however high, must still yield a positive delay clamped to the
// cap.
func TestRetryDelayOverflow(t *testing.T) {
	huge := time.Duration(1<<63 - 1) // max int64: unreachable by doubling
	c := New(vos.NewKernel(sim.New()), Config{
		RetryInterval:    time.Second,
		RetryMaxInterval: huge,
	})
	for _, n := range []int{1, 2, 32, 62, 63, 64, 65, 100, 1000} {
		got := c.retryDelay(n)
		if got <= 0 {
			t.Fatalf("retryDelay(%d) = %v; overflowed negative", n, got)
		}
		if got > huge {
			t.Fatalf("retryDelay(%d) = %v exceeds cap", n, got)
		}
	}
	// Before doubling wraps (2^62ns ~ 146 years), growth is still exact.
	if got := c.retryDelay(10); got != 512*time.Second {
		t.Errorf("retryDelay(10) = %v, want 512s", got)
	}
	// At and past the wrap point the clamp pins the cap.
	for _, n := range []int{64, 100, 1000} {
		if got := c.retryDelay(n); got != huge {
			t.Errorf("retryDelay(%d) = %v, want cap %v", n, got, huge)
		}
	}
}

// TestBackoffRetrySchedule holds quiescence hostage long enough for four
// retries and asserts both the advertised backoff delays (timeline
// notes) and the actual virtual-clock spacing between attempts:
// consecutive failures are separated by exactly backoff + quiesce
// timeout. Fully deterministic — this is the acceptance check for the
// capped exponential backoff.
func TestBackoffRetrySchedule(t *testing.T) {
	quiesce := 50 * time.Millisecond
	h := newHarness(Config{
		RetryInterval:    100 * time.Millisecond,
		RetryMaxInterval: 400 * time.Millisecond,
		DSU:              dsu.Config{QuiesceTimeout: quiesce},
	})
	var lock sim.WaitQueue
	h.c.Start(&srv{version: "v1", blockedWorker: &lock})
	h.s.Go("lock-releaser", func(tk *sim.Task) {
		tk.Sleep(1600 * time.Millisecond)
		for i := 0; i < 800; i++ {
			lock.WakeAll(h.s)
			tk.Sleep(5 * time.Millisecond)
			if h.done {
				return
			}
		}
	})
	v2 := upgrade(nil, nil)
	h.client(220, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	if h.c.Stage() != StageOutdatedLeader {
		t.Fatalf("stage = %v; update never installed (retries=%d)\ntimeline: %+v",
			h.c.Stage(), h.c.Retries(), h.c.Timeline())
	}
	var delays []string
	var failedAt []time.Duration
	for _, ev := range entries(h.c, KindRetry) {
		_, delay, _ := strings.Cut(ev.Note, " in ")
		delays = append(delays, delay)
		failedAt = append(failedAt, ev.At)
	}
	wantDelays := []string{"100ms", "200ms", "400ms", "400ms"}
	if len(delays) < len(wantDelays) {
		t.Fatalf("only %d retries recorded: %v", len(delays), delays)
	}
	for i, w := range wantDelays {
		if delays[i] != w {
			t.Fatalf("retry %d advertised delay %q, want %q (all: %v)", i+1, delays[i], w, delays)
		}
	}
	// Attempt n+1 fails exactly backoff(n) + quiesce-timeout after
	// attempt n failed.
	wantGaps := []time.Duration{100, 200, 400}
	for i, base := range wantGaps {
		want := base*time.Millisecond + quiesce
		if got := failedAt[i+1] - failedAt[i]; got != want {
			t.Fatalf("gap between retry %d and %d = %v, want %v", i+1, i+2, got, want)
		}
	}
}

// TestChaosStallRollsBackViaWatchdog wires the chaos layer through
// Config.WrapDispatcher: the follower freezes mid-validation, the
// liveness watchdog notices within its deadline, and the controller
// rolls the update back with zero client-visible effect.
func TestChaosStallRollsBackViaWatchdog(t *testing.T) {
	plan := chaos.NewPlan(&chaos.Injection{Role: "follower", AfterCalls: 3, Kind: chaos.KindStall})
	h := newHarness(Config{
		WatchdogDeadline: 40 * time.Millisecond,
		WrapDispatcher:   plan.Wrap,
	})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(10, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	if plan.Fired() != 1 {
		t.Fatalf("plan fired %d injections, want 1 (%+v)", plan.Fired(), plan.Firings)
	}
	want := "1,2,3,4,5,6,7,8,9,10"
	if strings.Join(h.replies, ",") != want {
		t.Fatalf("replies = %v (stall leaked to clients)", h.replies)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
	if h.c.Monitor().Stats.Stalls != 1 {
		t.Fatalf("Stalls = %d", h.c.Monitor().Stats.Stalls)
	}
	// The watchdog's decision, in order at one instant: the tripped
	// deadline, the stall verdict, the rollback it causes.
	if vs := entries(h.c, KindViolation); len(vs) != 1 {
		t.Fatalf("violations = %+v, want one", vs)
	}
	d := decision(t, h.c, KindViolation, 3)
	if d[0].Rule != "follower-liveness" ||
		!strings.HasPrefix(d[0].Note, "no progress for ") || !strings.HasSuffix(d[0].Note, "(deadline 40ms)") {
		t.Fatalf("violation = %+v, want follower-liveness", d[0])
	}
	if d[1].Kind != KindVerdict || d[1].Verdict.Cause != "stall" || d[1].Verdict.Action != mve.VerdictRollbackCandidate {
		t.Fatalf("after the violation %+v, want the stall verdict", d[1])
	}
	if d[2].Kind != KindRollback || !strings.HasPrefix(d[2].Note, "rolled back: stall: ") || !strings.Contains(d[2].Note, "no progress") {
		t.Fatalf("after the verdict %+v, want the stall rollback", d[2])
	}
}

// TestChaosStallWithDiscardPolicy covers the other full-buffer policy:
// no watchdog, a tiny ring, and a frozen follower. The leader's failed
// TryAppend raises the buffer-full stall, the follower is sacrificed,
// and the leader never blocks.
func TestChaosStallWithDiscardPolicy(t *testing.T) {
	plan := chaos.NewPlan(&chaos.Injection{Role: "follower", AfterCalls: 1, Kind: chaos.KindStall})
	h := newHarness(Config{
		BufferEntries:    4,
		BufferFullPolicy: mve.FullDiscard,
		WrapDispatcher:   plan.Wrap,
	})
	h.c.Start(&srv{version: "v1"})
	v2 := upgrade(nil, nil)
	h.client(10, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(v2) },
	})
	h.run(t)
	want := "1,2,3,4,5,6,7,8,9,10"
	if strings.Join(h.replies, ",") != want {
		t.Fatalf("replies = %v", h.replies)
	}
	if h.c.Stage() != StageSingleLeader {
		t.Fatalf("stage = %v", h.c.Stage())
	}
	if h.c.Monitor().Buffer().ProducerBlocked != 0 {
		t.Fatalf("ProducerBlocked = %d, want 0 under FullDiscard", h.c.Monitor().Buffer().ProducerBlocked)
	}
	if rb := entries(h.c, KindRollback); len(rb) != 1 ||
		!strings.HasPrefix(rb[0].Note, "rolled back: stall: ") || !strings.Contains(rb[0].Note, "ring buffer full") {
		t.Fatalf("timeline missing buffer-full rollback: %+v", h.c.Timeline())
	}
	if vs := entries(h.c, KindViolation); len(vs) != 0 {
		t.Fatalf("violations = %+v; a buffer-full stall trips no threshold", vs)
	}
}

// The outdated follower is a whole process. When one of its threads
// crashes after promotion, the implicit commit must reap the sibling
// threads too; a survivor parked off any syscall is never scheduled
// again and Run ends in a deadlock error.
func TestOutdatedFollowerCrashReapsSiblingThreads(t *testing.T) {
	h := newHarness(Config{})
	var lock sim.WaitQueue
	// v1 has a latent bug at count 7, which it reaches as the outdated
	// follower; its worker thread is parked on the lock at that moment.
	h.c.Start(&srv{version: "v1", crashOn: 7, blockedWorker: &lock})
	h.s.Go("lock-releaser", func(tk *sim.Task) {
		// The worker must reach update points for the update and the
		// promotion barrier to quiesce; after that it stays parked.
		for h.c.Stage() != StageUpdatedLeader {
			lock.WakeAll(h.s)
			tk.Sleep(time.Millisecond)
		}
	})
	h.client(9, map[int]func(*sim.Task){
		1: func(tk *sim.Task) { h.c.Update(upgrade(nil, nil)) },
		3: func(tk *sim.Task) { h.c.Promote() },
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "v2:5", "v2:6", "v2:7", "v2:8", "v2:9"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v\nwant %v\ntimeline: %+v", h.replies, want, h.c.Timeline())
	}
	if h.c.Stage() != StageSingleLeader || h.c.LeaderRuntime().App().Version() != "v2" {
		t.Fatalf("stage=%v version=%s", h.c.Stage(), h.c.LeaderRuntime().App().Version())
	}
	if last := h.c.Timeline()[len(h.c.Timeline())-1]; last.Note != "outdated follower crashed; committed" {
		t.Fatalf("last timeline note = %q", last.Note)
	}
}

// An implicit commit is a commit: when the outdated follower crashes
// with a train hop queued, the promoted leader must fork a follower for
// the next hop like any single leader would — not apply it in place,
// unvalidated — and the controller must accept updates afterwards.
func TestImplicitCommitForksNextTrainHop(t *testing.T) {
	rec := obs.New(nil, obs.Options{})
	h := newHarness(Config{Recorder: rec})
	h.c.Start(&srv{version: "v1", crashOn: 7})
	v3 := upgradeFromV2("v3")
	h.client(12, map[int]func(*sim.Task){
		1: func(tk *sim.Task) {
			h.c.QueueUpdate(upgrade(nil, nil))
			h.c.QueueUpdate(v3)
		},
		3: func(tk *sim.Task) { h.c.Promote() },
		// v1 crashes as outdated follower replaying request 7; v3 is
		// armed by that implicit commit and forks at the next quiescence.
		9:  func(tk *sim.Task) { h.c.Promote() },
		10: func(tk *sim.Task) { h.c.Commit() },
		11: func(tk *sim.Task) {
			if !h.c.Update(upgradeFromV2("v4")) {
				t.Error("Update refused after the train finished: pending never cleared")
			}
		},
	})
	h.run(t)
	want := []string{"1", "2", "3", "4", "v2:5", "v2:6", "v2:7", "v2:8", "v2:9", "v2:10", "v3:11", "v3:12"}
	if strings.Join(h.replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v\nwant %v\ntimeline: %+v", h.replies, want, h.c.Timeline())
	}
	var notes []string
	for _, ev := range h.c.Timeline() {
		notes = append(notes, ev.Note)
	}
	all := strings.Join(notes, "\n")
	for _, note := range []string{"outdated follower crashed; committed", "train: requesting v3 (0 more queued)", "forked follower for v3"} {
		if !strings.Contains(all, note) {
			t.Errorf("timeline missing %q:\n%s", note, all)
		}
	}
	if got := rec.Counter(obs.CCoreCommits); got != 2 {
		t.Errorf("core.commits = %d, want 2 (the implicit commit of v2 and the operator's of v3)", got)
	}
}
