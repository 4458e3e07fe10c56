package dsu

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// counterApp is a minimal updatable server: it accepts one connection and
// echoes an incrementing counter formatted per version. v1 prints "n",
// v2 prints "v2:n".
type counterApp struct {
	version  string
	listenFD int
	connFD   int
	count    int
	// spawnWorkers, if > 0, makes Main spawn that many auxiliary threads
	// that just reach update points in a loop (multi-thread quiescence).
	spawnWorkers int
	workerDelay  time.Duration // simulated work between update points
	started      bool
}

func (a *counterApp) Version() string { return a.version }

func (a *counterApp) Fork() App {
	cp := *a
	return &cp
}

func (a *counterApp) Main(env *Env) {
	if !env.Updating() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{9000, 0}})
		a.listenFD = int(r.Ret)
		r = env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: a.listenFD})
		a.connFD = int(r.Ret)
	}
	for i := 0; i < a.spawnWorkers; i++ {
		i := i
		env.Go(fmt.Sprintf("worker%d", i), func(we *Env) {
			for !we.Exiting() {
				if a.workerDelay > 0 {
					we.Task().Advance(a.workerDelay)
				}
				if we.UpdatePoint("worker") == Exit {
					return
				}
				we.Task().Yield()
			}
		})
	}
	a.spawnWorkers = 0 // workers persist across this generation only
	for !env.Exiting() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: a.connFD, Args: [2]int64{64, 0}})
		if !r.OK() || r.Ret == 0 {
			return
		}
		a.count++
		var reply string
		if a.version == "v1" {
			reply = fmt.Sprintf("%d", a.count)
		} else {
			reply = fmt.Sprintf("%s:%d", a.version, a.count)
		}
		env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: a.connFD, Buf: []byte(reply)})
		if env.UpdatePoint("main_loop") == Exit {
			return
		}
	}
}

// v2From builds the v1 -> v2 update descriptor.
func v2From(xformErr error, cost time.Duration) *Version {
	return &Version{
		Name: "v2",
		Xform: func(old App) (App, error) {
			if xformErr != nil {
				return nil, xformErr
			}
			o := old.(*counterApp)
			return &counterApp{
				version:  "v2",
				listenFD: o.listenFD,
				connFD:   o.connFD,
				count:    o.count,
			}, nil
		},
		XformCost: func(old App) time.Duration { return cost },
	}
}

// driveClient sends n pings and collects replies.
func driveClient(k *vos.Kernel, n int, replies *[]string, pause time.Duration) func(*sim.Task) {
	return func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		for i := 0; i < n; i++ {
			if pause > 0 {
				tk.Sleep(pause)
			}
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			*replies = append(*replies, string(r.Data))
		}
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	}
}

func TestColdStartServesRequests(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k})
	rt.Start()
	var replies []string
	s.Go("client", driveClient(k, 3, &replies, 0))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if strings.Join(replies, ",") != "1,2,3" {
		t.Fatalf("replies = %v", replies)
	}
	if rt.Generation() != 0 {
		t.Fatalf("generation = %d", rt.Generation())
	}
}

func TestInPlaceUpdatePreservesState(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	var recs []UpdateRecord
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{
		Name: "ctr", Dispatcher: k,
		OnOutcome: func(r UpdateRecord) { recs = append(recs, r) },
	})
	rt.Start()
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			replies = append(replies, string(r.Data))
		}
		ping()
		ping()
		rt.RequestUpdate(v2From(nil, 0))
		ping() // triggers the update point after serving; next reply is v2
		ping()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The counter survives the update: 1, 2, 3 then v2:4.
	want := []string{"1", "2", "3", "v2:4"}
	if strings.Join(replies, ",") != strings.Join(want, ",") {
		t.Fatalf("replies = %v, want %v", replies, want)
	}
	if rt.Generation() != 1 || rt.App().Version() != "v2" {
		t.Fatalf("gen=%d version=%s", rt.Generation(), rt.App().Version())
	}
	if len(recs) != 1 || recs[0].Outcome != OutcomeApplied || recs[0].Version != "v2" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestUpdatePauseReflectsXformCost(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k})
	rt.Start()
	var before, after time.Duration
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
		}
		ping()
		rt.RequestUpdate(v2From(nil, 5*time.Second))
		before = tk.Now()
		ping() // serving this request triggers the 5s in-place transformation
		ping() // answered by v2
		after = tk.Now()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after-before < 5*time.Second {
		t.Fatalf("update pause = %v, want >= 5s (in-place xform stalls service)", after-before)
	}
}

func TestParallelXformDoesNotStallClock(t *testing.T) {
	// With ParallelXform (follower mode) the transformation sleeps
	// instead of advancing the clock, so a concurrent ticker sees time
	// pass normally rather than jumping.
	s := sim.New()
	k := vos.NewKernel(s)
	old := &counterApp{version: "v1", listenFD: 3, connFD: 4}
	rt := NewRuntime(s, old, Config{Name: "f", Dispatcher: k, ParallelXform: true})
	done := false
	v := v2From(nil, time.Second)
	v.Xform = func(o App) (App, error) {
		done = true
		oo := o.(*counterApp)
		return &counterApp{version: "v2", count: oo.count, started: true}, nil
	}
	// Replace Main: v2 app with started=true exits immediately on a
	// closed fd read; simpler: override by making connFD invalid.
	rt.StartUpdatedFromAt(old, v, 0)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Fatal("xform never ran")
	}
	if s.Now() < time.Second {
		t.Fatalf("Now = %v, want >= 1s (xform slept)", s.Now())
	}
	if rt.App().Version() != "v2" || rt.Generation() != 1 {
		t.Fatalf("app=%s gen=%d", rt.App().Version(), rt.Generation())
	}
}

func TestXformErrorCrashesProcess(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	var crash *sim.CrashInfo
	s.OnCrash = func(c sim.CrashInfo) { crash = &c }
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k})
	rt.Start()
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
		r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
		replies = append(replies, string(r.Data))
		rt.RequestUpdate(v2From(fmt.Errorf("uninitialized field t"), 0))
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if crash == nil {
		t.Fatal("broken state transformation did not crash the process")
	}
	if !strings.Contains(fmt.Sprint(crash.Value), "state transformation") {
		t.Fatalf("crash = %v", crash.Value)
	}
}

func TestTakeAbortRunsOnAbortAndContinuesOldVersion(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	aborted := 0
	var recs []UpdateRecord
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{
		Name:       "ctr",
		Dispatcher: k,
		TakeUpdate: func(tk *sim.Task, rt *Runtime, v *Version) TakeAction {
			return TakeAbort
		},
		OnAbort:   func(app App) { aborted++ },
		OnOutcome: func(r UpdateRecord) { recs = append(recs, r) },
	})
	rt.Start()
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			replies = append(replies, string(r.Data))
		}
		ping()
		rt.RequestUpdate(v2From(nil, 0))
		ping()
		ping()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// All replies stay v1-format: the update was aborted here.
	if strings.Join(replies, ",") != "1,2,3" {
		t.Fatalf("replies = %v", replies)
	}
	if aborted != 1 {
		t.Fatalf("OnAbort ran %d times", aborted)
	}
	if len(recs) != 1 || recs[0].Outcome != OutcomeForked {
		t.Fatalf("records = %+v", recs)
	}
	if rt.App().Version() != "v1" || rt.Generation() != 0 {
		t.Fatalf("version=%s gen=%d", rt.App().Version(), rt.Generation())
	}
}

func TestMultiThreadQuiescence(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	app := &counterApp{version: "v1", spawnWorkers: 2}
	rt := NewRuntime(s, app, Config{Name: "ctr", Dispatcher: k})
	rt.Start()
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			replies = append(replies, string(r.Data))
		}
		ping()
		rt.RequestUpdate(v2From(nil, 0))
		ping()
		ping()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if replies[len(replies)-1] != "v2:3" {
		t.Fatalf("replies = %v, want final v2:3", replies)
	}
}

func TestQuiescenceTimeoutIsTimingError(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	// One worker never reaches an update point: it blocks forever on a
	// lock-like queue, reproducing the paper's timing-error shape.
	app := &counterApp{version: "v1"}
	var recs []UpdateRecord
	rt := NewRuntime(s, app, Config{
		Name:           "ctr",
		Dispatcher:     k,
		QuiesceTimeout: 100 * time.Millisecond,
		OnOutcome:      func(r UpdateRecord) { recs = append(recs, r) },
	})
	rt.Start()
	var stuck sim.WaitQueue
	var stuckTask *sim.Task
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			replies = append(replies, string(r.Data))
		}
		ping()
		// Spawn the stuck thread through the runtime: it counts for
		// quiescence but never quiesces.
		for _, env := range rt.threads {
			if env.tid == 0 {
				stuckTask = env.Go("stuck", func(we *Env) {
					we.Task().Block(&stuck)
				})
				break
			}
		}
		tk.Yield()
		rt.RequestUpdate(v2From(nil, 0))
		ping() // main quiesces; stuck thread never arrives; timeout fires
		ping()
		if stuckTask != nil {
			stuckTask.Kill()
		}
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Update failed; replies stay v1.
	if strings.Join(replies, ",") != "1,2,3" {
		t.Fatalf("replies = %v", replies)
	}
	if len(recs) != 1 || recs[0].Outcome != OutcomeTimedOut {
		t.Fatalf("records = %+v", recs)
	}
	// The runtime can retry afterwards.
	if _, pending := rt.PendingSince(); pending {
		t.Fatal("attempt not cleared after timeout")
	}
}

func TestUpdateCheckCostCharged(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{
		Name: "ctr", Dispatcher: k, UpdateCheckCost: time.Microsecond,
	})
	rt.Start()
	var replies []string
	s.Go("client", driveClient(k, 4, &replies, 0))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 4 update points crossed, 1µs each.
	if s.Now() != 4*time.Microsecond {
		t.Fatalf("Now = %v, want 4µs", s.Now())
	}
}

// Collision semantics: while an update is pending a second update and a
// barrier are both rejected, and so is an update behind a barrier.
func TestRequestUpdateRejectsConcurrent(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k})
	if !rt.RequestUpdate(v2From(nil, 0)) {
		t.Fatal("first RequestUpdate failed")
	}
	if rt.RequestUpdate(v2From(nil, 0)) {
		t.Fatal("second RequestUpdate should fail while pending")
	}
	if rt.RequestBarrier(func(*sim.Task) {}) {
		t.Fatal("RequestBarrier should be rejected while an update is pending")
	}
	if _, ok := rt.PendingSince(); !ok {
		t.Fatal("PendingSince should report the armed attempt")
	}
	behind := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k})
	if !behind.RequestBarrier(func(*sim.Task) {}) || behind.RequestUpdate(v2From(nil, 0)) {
		t.Fatal("RequestUpdate should be rejected while a barrier is pending")
	}
}

// A process is shut down (rollback, teardown) with KillAll: every thread
// unwinds and deregisters, wherever it was parked.
func TestShutdownUnwindsThreads(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rt := NewRuntime(s, &counterApp{version: "v1", spawnWorkers: 2}, Config{Name: "ctr", Dispatcher: k})
	rt.Start()
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		driveClient(k, 1, &replies, 0)(tk)
		if rt.LiveThreads() != 3 {
			t.Errorf("LiveThreads = %d before KillAll, want 3", rt.LiveThreads())
		}
		rt.KillAll()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(replies) != 1 || rt.LiveThreads() != 0 {
		t.Fatalf("replies = %v, LiveThreads = %d after KillAll", replies, rt.LiveThreads())
	}
}

func TestStartUpdatedFromRecordsOutcome(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	old := &counterApp{version: "v1", count: 7}
	var recs []UpdateRecord
	rt := NewRuntime(s, old, Config{
		Name: "f", Dispatcher: k, ParallelXform: true,
		OnOutcome: func(r UpdateRecord) { recs = append(recs, r) },
	})
	rt.StartUpdatedFromAt(old, v2From(nil, 0), 0)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 1 || recs[0].Outcome != OutcomeApplied {
		t.Fatalf("records = %+v", recs)
	}
	if got := rt.App().(*counterApp).count; got != 7 {
		t.Fatalf("state lost: count = %d", got)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeApplied.String() != "applied" || OutcomeForked.String() != "forked" ||
		OutcomeTimedOut.String() != "timed-out" || OutcomeFailed.String() != "failed" ||
		Outcome(9).String() != "outcome(9)" {
		t.Fatal("Outcome.String mismatch")
	}
}

// The state-transfer histogram is plain metrics, not tracing: it must
// record with a recorder attached even when spans are off, while the
// span-only instruments (update-point counter, quiescence histogram)
// stay silent.
func TestXformHistogramRecordedWithoutSpans(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rec := obs.New(s.Now, obs.Options{}) // spans NOT enabled
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k, Rec: rec})
	rt.Start()
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			replies = append(replies, string(r.Data))
		}
		ping()
		rt.RequestUpdate(v2From(nil, 3*time.Millisecond))
		ping()
		ping()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if replies[len(replies)-1] != "v2:3" {
		t.Fatalf("replies = %v, want final v2:3", replies)
	}
	h := rec.Hist(obs.HDSUXform)
	if h == nil || h.Count != 1 || h.Sum < 3*time.Millisecond {
		t.Fatalf("xform histogram = %+v, want 1 observation >= 3ms", h)
	}
	// Span-gated instruments stay quiet without span tracing.
	if got := rec.Counter(obs.CDSUUpdatePoints); got != 0 {
		t.Fatalf("update-point counter = %d without spans, want 0", got)
	}
	if q := rec.Hist(obs.HDSUQuiesce); q != nil && q.Count != 0 {
		t.Fatalf("quiesce histogram = %+v without spans, want empty", q)
	}
}

// A follower started via StartUpdatedFromAt carries the leader-side
// request time, so RequestedAt→DecidedAt reflects the real quiescence
// wait instead of collapsing to zero.
func TestForkedUpdateRecordsRealRequestTime(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	var fRT *Runtime
	var recs []UpdateRecord
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{
		Name:       "ldr",
		Dispatcher: k,
		TakeUpdate: func(tk *sim.Task, r *Runtime, v *Version) TakeAction {
			reqAt, ok := r.PendingSince()
			if !ok {
				t.Error("PendingSince reported nothing pending inside TakeUpdate")
			}
			// Bogus fds: the forked follower's main exits at once, leaving
			// only its update record behind.
			old := &counterApp{version: "v1", listenFD: 98, connFD: 99}
			fRT = NewRuntime(s, old, Config{
				Name: "flw", Dispatcher: k, ParallelXform: true,
				OnOutcome: func(r UpdateRecord) { recs = append(recs, r) },
			})
			fRT.StartUpdatedFromAt(old, v, reqAt)
			return TakeAbort
		},
	})
	rt.Start()
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
		}
		ping()
		rt.RequestUpdate(v2From(nil, 0))
		// The server idles in read: the update waits for the next update
		// point, 25ms away.
		tk.Sleep(25 * time.Millisecond)
		ping()
		ping()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fRT == nil {
		t.Fatal("TakeUpdate never ran")
	}
	if len(recs) != 1 || recs[0].Outcome != OutcomeApplied {
		t.Fatalf("follower records = %+v", recs)
	}
	if recs[0].RequestedAt == recs[0].DecidedAt {
		t.Fatal("RequestedAt == DecidedAt: real request time was not threaded through")
	}
	if gap := recs[0].DecidedAt - recs[0].RequestedAt; gap < 25*time.Millisecond {
		t.Fatalf("request->decide gap = %v, want >= 25ms of quiescence wait", gap)
	}
}

// A state transformation failing on a forked follower must not crash the
// simulation: the attempt is recorded as OutcomeFailed with the error,
// and the old version keeps the state.
func TestForkedXformFailureRecordsOutcome(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	crashed := false
	s.OnCrash = func(c sim.CrashInfo) { crashed = true }
	old := &counterApp{version: "v1", listenFD: 3, connFD: 4, count: 7}
	var seen []UpdateRecord
	rt := NewRuntime(s, old, Config{
		Name: "flw", Dispatcher: k, ParallelXform: true,
		OnOutcome: func(r UpdateRecord) { seen = append(seen, r) },
	})
	rt.StartUpdatedFromAt(old, v2From(fmt.Errorf("uninitialized field t"), time.Millisecond), 0)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if crashed {
		t.Fatal("failed xform crashed the follower instead of recording OutcomeFailed")
	}
	if len(seen) != 1 || seen[0].Outcome != OutcomeFailed {
		t.Fatalf("OnOutcome saw %+v", seen)
	}
	if seen[0].Err == nil || !strings.Contains(seen[0].Err.Error(), "uninitialized field") {
		t.Fatalf("record error = %v", seen[0].Err)
	}
	// The failed follower never took over: old app, old generation, no
	// live threads.
	if rt.App().Version() != "v1" || rt.Generation() != 0 {
		t.Fatalf("app=%s gen=%d after failed xform", rt.App().Version(), rt.Generation())
	}
	if rt.LiveThreads() != 0 {
		t.Fatalf("LiveThreads = %d, want 0", rt.LiveThreads())
	}
}

// lazyCounterApp owes per-entry migration work after a lazy update; the
// runtime's background sweep drains it in batches.
type lazyCounterApp struct {
	counterApp
	pendingN int
	perEntry time.Duration
	bursts   []int
}

func (a *lazyCounterApp) Fork() App {
	cp := *a
	return &cp
}

func (a *lazyCounterApp) PendingLazy() int { return a.pendingN }

func (a *lazyCounterApp) SweepLazy(max int) (int, time.Duration) {
	n := max
	if n > a.pendingN {
		n = a.pendingN
	}
	a.pendingN -= n
	if n > 0 {
		a.bursts = append(a.bursts, n)
	}
	return n, time.Duration(n) * a.perEntry
}

// lazyV2 is a LazyXform update to a lazyCounterApp owing pending entries.
func lazyV2(pending int) *Version {
	return &Version{
		Name: "v2",
		Xform: func(old App) (App, error) {
			o := old.(*counterApp)
			return &lazyCounterApp{
				counterApp: counterApp{
					version:  "v2",
					listenFD: o.listenFD,
					connFD:   o.connFD,
					count:    o.count,
				},
				pendingN: pending,
				perEntry: time.Microsecond,
			}, nil
		},
		XformCost: func(old App) time.Duration { return 50 * time.Microsecond },
		LazyXform: true,
	}
}

// After an in-place LazyXform update, the background sweep drains the
// cold tail in bounded batches and the sweep counters add up.
func TestLazySweepDrainsColdTail(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rec := obs.New(s.Now, obs.Options{})
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k, Rec: rec})
	rt.Start()
	const pending = 2*lazySweepBatch + 5
	var replies []string
	s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{9000, 0}}).Ret)
		ping := func() {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte("ping")})
			r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{64, 0}})
			replies = append(replies, string(r.Data))
		}
		ping()
		rt.RequestUpdate(lazyV2(pending))
		ping() // update applies; the sweep task starts
		tk.Sleep(5 * time.Millisecond)
		ping()
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if replies[len(replies)-1] != "v2:3" {
		t.Fatalf("replies = %v", replies)
	}
	app := rt.App().(*lazyCounterApp)
	if app.pendingN != 0 {
		t.Fatalf("pending = %d after sweep window, want 0", app.pendingN)
	}
	// Two full batches, then the remainder.
	if want := fmt.Sprint([]int{lazySweepBatch, lazySweepBatch, 5}); fmt.Sprint(app.bursts) != want {
		t.Fatalf("sweep bursts = %v, want %s", app.bursts, want)
	}
	if got := rec.Counter(obs.CDSUXformSwept); got != pending {
		t.Fatalf("swept counter = %d, want %d", got, pending)
	}
	if got := rec.Gauge(obs.GDSUXformPending); got != 0 {
		t.Fatalf("pending gauge = %d, want 0", got)
	}
}

// ChargeLazyXform bills first-touch migration to the requesting thread:
// counters, histogram and the service-time charge all land.
func TestChargeLazyXformBillsRequest(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	rec := obs.New(s.Now, obs.Options{})
	rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "ctr", Dispatcher: k, Rec: rec})
	var charged time.Duration
	s.Go("driver", func(tk *sim.Task) {
		env := rt.register(tk, false)
		before := tk.Now()
		env.ChargeLazyXform(2, 40*time.Microsecond)
		charged = tk.Now() - before
		env.ChargeLazyXform(0, time.Second) // no-op: nothing touched
		rt.deregister(env)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if charged != 40*time.Microsecond {
		t.Fatalf("charged service time = %v, want 40µs", charged)
	}
	if got := rec.Counter(obs.CDSUXformTouched); got != 2 {
		t.Fatalf("touched counter = %d, want 2", got)
	}
	h := rec.Hist(obs.HDSUXformTouch)
	if h == nil || h.Count != 1 || h.Sum != 40*time.Microsecond {
		t.Fatalf("touch histogram = %+v, want 1 observation of 40µs", h)
	}
}

func TestEnvTIDsSequential(t *testing.T) {
	s := sim.New()
	k := vos.NewKernel(s)
	app := &counterApp{version: "v1", spawnWorkers: 3}
	rt := NewRuntime(s, app, Config{Name: "ctr", Dispatcher: k})
	rt.Start()
	var replies []string
	s.Go("client", driveClient(k, 1, &replies, 0))
	s.Go("checker", func(tk *sim.Task) {
		tk.Yield()
		tk.Yield()
		tids := map[int]bool{}
		for _, env := range rt.threads {
			tids[env.tid] = true
		}
		for want := 0; want < 4; want++ {
			if !tids[want] {
				t.Errorf("missing tid %d in %v", want, tids)
			}
		}
		rt.KillAll()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// profCharge is one charge a chargeLog received: a cpu segment
// (ProfileSlice, wait empty) or an off-CPU wait (ProfileWait).
type profCharge struct {
	kind   string // "cpu" or "off"
	task   string
	labels string // the label stack, ';'-joined
	wait   string
	d      time.Duration
}

// chargeLog is a sim.SliceProfiler that keeps every call it receives.
type chargeLog struct{ charges []profCharge }

func (l *chargeLog) ProfileSlice(task string, labels []string, start, end time.Duration) {
	l.charges = append(l.charges, profCharge{"cpu", task, strings.Join(labels, ";"), "", end - start})
}

func (l *chargeLog) ProfileWait(task string, labels []string, wait string, start, end time.Duration) {
	l.charges = append(l.charges, profCharge{"off", task, strings.Join(labels, ";"), wait, end - start})
}

// xform returns the charges of the given kind made under the xform
// label by task.
func (l *chargeLog) xform(kind, task string) []profCharge {
	var out []profCharge
	for _, c := range l.charges {
		if c.kind == kind && c.task == task && c.labels == obs.LblXform {
			out = append(out, c)
		}
	}
	return out
}

// Every transformation charge — an eager update's Xform cost and a lazy
// on-access touch — goes through one helper: in follower mode it is one
// off-CPU wait with an xform leaf, in place one cpu segment under xform,
// each exactly as wide as the charged cost, and attaching the profiler
// moves the clock not at all.
func TestXformChargedByOneHelper(t *testing.T) {
	const cost = 3 * time.Millisecond
	eager := func(parallel bool, prof sim.SliceProfiler) (string, time.Duration) {
		s := sim.New()
		if prof != nil {
			s.SetProfiler(prof)
		}
		old := &counterApp{version: "v1", listenFD: 3, connFD: 4}
		rt := NewRuntime(s, old, Config{Name: "f", Dispatcher: vos.NewKernel(s), ParallelXform: parallel})
		task := rt.StartUpdatedFromAt(old, v2From(nil, cost), 0)
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return task.Name(), s.Now()
	}
	touch := func(parallel bool, prof sim.SliceProfiler) (string, time.Duration) {
		s := sim.New()
		if prof != nil {
			s.SetProfiler(prof)
		}
		rt := NewRuntime(s, &counterApp{version: "v1"}, Config{Name: "f", Dispatcher: vos.NewKernel(s), ParallelXform: parallel})
		var charged time.Duration
		s.Go("driver", func(tk *sim.Task) {
			env := rt.register(tk, false)
			before := tk.Now()
			env.ChargeLazyXform(1, cost)
			charged = tk.Now() - before
			rt.deregister(env)
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return "driver", charged
	}
	for _, tc := range []struct {
		name string
		run  func(parallel bool, prof sim.SliceProfiler) (string, time.Duration)
	}{{"eager", eager}, {"lazy-touch", touch}} {
		for _, parallel := range []bool{true, false} {
			name := fmt.Sprintf("%s/parallel=%v", tc.name, parallel)
			log := &chargeLog{}
			task, profiled := tc.run(parallel, log)
			_, bare := tc.run(parallel, nil)
			if profiled != bare {
				t.Errorf("%s: clock moved %v profiled, %v bare", name, profiled, bare)
			}
			dim, other, leaf := "cpu", "off", ""
			if parallel {
				dim, other, leaf = "off", "cpu", obs.LblXform
			}
			got := log.xform(dim, task)
			if len(got) != 1 || got[0].d != cost || got[0].wait != leaf || len(log.xform(other, task)) != 0 {
				t.Errorf("%s: xform charges %+v, want one %s charge of %v with leaf %q and no %s charge",
					name, log.charges, dim, cost, leaf, other)
			}
		}
	}
}

// A follower runtime's lazy sweep runs on its own core; once promotion
// switches the runtime back to in-place (SetUpdateHooks), the bursts
// still owed hold the CPU, stalling service like any leader
// transformation.
func TestPromotedLeaderSweepsInPlace(t *testing.T) {
	s := sim.New()
	const sweep = "f/lazy-sweep@v2"
	var onCPU time.Duration
	s.OnSlice = func(task string, start, end time.Duration) {
		if task == sweep {
			onCPU += end - start
		}
	}
	old := &counterApp{version: "v1", listenFD: 3, connFD: 4}
	rt := NewRuntime(s, old, Config{Name: "f", Dispatcher: vos.NewKernel(s), ParallelXform: true})
	// Four bursts of lazySweepBatch µs each, lazySweepInterval apart from
	// t=50µs; promotion lands between the second and the third.
	rt.StartUpdatedFromAt(old, lazyV2(4*lazySweepBatch), 0)
	s.Go("controller", func(tk *sim.Task) {
		tk.Sleep(lazySweepInterval + lazySweepInterval/2)
		rt.SetUpdateHooks(nil, nil, false)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pending := rt.App().(*lazyCounterApp).pendingN; pending != 0 {
		t.Fatalf("pending = %d after the sweep, want 0", pending)
	}
	if want := 2 * lazySweepBatch * time.Microsecond; onCPU != want {
		t.Fatalf("sweep held the CPU for %v, want %v (the two bursts after promotion, in place)", onCPU, want)
	}
}
