package obs

import (
	"strings"
	"time"
)

// SLO accounting: the availability ledger the paper's headline claim
// needs measured directly. An SLOTracker observes client-visible
// request completions (success/failure + latency) on the recorder's
// virtual clock and derives the availability story at the end of a
// run: a per-window success-rate timeline, downtime windows (gaps
// between successful completions above a stall threshold), MTTR,
// recovery time after injected faults, p99 latency-budget burn, and
// attribution of each degraded window to the update lifecycle (stage
// milestones, dsu xform spans) or to an injected fault.
//
// Nothing here runs unless a scenario constructs a tracker, so the
// default pipelines and the committed golden artifacts are untouched.

// SLOOptions configures an SLOTracker.
type SLOOptions struct {
	// Window is the success-rate timeline bucket width: completion at
	// virtual time t lands in window t / Window (default 10ms).
	Window time.Duration
	// StallThreshold is the largest tolerated gap between successful
	// completions; longer gaps are downtime windows (default 5ms).
	StallThreshold time.Duration
	// LatencyBudgetP99 is the per-window p99 latency budget; windows
	// whose observed p99 exceeds it burn budget. Zero disables burn
	// accounting.
	LatencyBudgetP99 time.Duration
	// AttributionSlack widens the fault check when attributing a
	// downtime window: a fault that fired up to this long before the
	// window began still explains it. A faulted follower does not stop
	// the leader instantly — the leader keeps serving until ring
	// backpressure parks it — so the fault instant lands shortly before
	// the client-visible gap opens (default 5ms).
	AttributionSlack time.Duration
}

type sloCompletion struct {
	at      time.Duration
	ok      bool
	latency time.Duration
}

// SLOTracker accumulates request completions for one run.
type SLOTracker struct {
	rec         *Recorder
	opts        SLOOptions
	started     time.Duration
	completions []sloCompletion
}

// NewSLOTracker attaches SLO accounting to a recorder. The tracker
// records into the slo.* metric names and keeps its own completion log;
// construct it before load starts so the observation span covers the
// whole run.
func NewSLOTracker(rec *Recorder, opts SLOOptions) *SLOTracker {
	if opts.Window <= 0 {
		opts.Window = 10 * time.Millisecond
	}
	if opts.StallThreshold <= 0 {
		opts.StallThreshold = 5 * time.Millisecond
	}
	if opts.AttributionSlack <= 0 {
		opts.AttributionSlack = 5 * time.Millisecond
	}
	return &SLOTracker{rec: rec, opts: opts, started: rec.Now()}
}

// Request records one client-observed completion at the current
// virtual time. Safe on a nil tracker.
func (t *SLOTracker) Request(ok bool, latency time.Duration) {
	if t == nil {
		return
	}
	if ok {
		t.rec.Inc(CSLORequestsOK)
	} else {
		t.rec.Inc(CSLORequestsFail)
	}
	t.rec.Observe(HSLOLatency, latency)
	t.completions = append(t.completions, sloCompletion{at: t.rec.Now(), ok: ok, latency: latency})
}

// Options returns the tracker's effective configuration.
func (t *SLOTracker) Options() SLOOptions {
	if t == nil {
		return SLOOptions{}
	}
	return t.opts
}

// DowntimeWindow is one detected outage: a gap between successful
// completions longer than the stall threshold.
type DowntimeWindow struct {
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	DurationNS int64  `json:"duration_ns"`
	Cause      string `json:"cause"` // "fault", "update", or "unattributed"
}

// SLOWindowPoint is one bucket of the success-rate timeline.
type SLOWindowPoint struct {
	Window      int64   `json:"window"`
	OK          int64   `json:"ok"`
	Fail        int64   `json:"fail"`
	SuccessRate float64 `json:"success_rate"`
	P99NS       int64   `json:"p99_ns"`
	OverBudget  bool    `json:"over_budget,omitempty"`
}

// SLOReport is the availability ledger for one run.
type SLOReport struct {
	SpanNS          int64   `json:"span_ns"` // tracker start -> report time
	Requests        int64   `json:"requests"`
	Failed          int64   `json:"failed"`
	AvailabilityPct float64 `json:"availability_pct"` // 100 * (1 - downtime/span)
	DowntimeNS      int64   `json:"downtime_ns"`
	LongestPauseNS  int64   `json:"longest_pause_ns"`
	MTTRNS          int64   `json:"mttr_ns"` // mean downtime-window duration
	// FaultRecoveryNS is the mean time from an injected fault milestone
	// to the next successful completion (0 when no faults fired).
	FaultRecoveryNS int64            `json:"fault_recovery_ns"`
	BudgetBurnPct   float64          `json:"budget_burn_pct"` // % of windows over the p99 budget
	WindowsOver     int              `json:"windows_over_budget"`
	WindowsTotal    int              `json:"windows_total"`
	Downtime        []DowntimeWindow `json:"downtime_windows"`
	Timeline        []SLOWindowPoint `json:"timeline"`
}

// Report computes the ledger at the current virtual time. Downtime is
// the union of gaps between successful completions (including the lead
// from tracker start to the first success and the tail to report time)
// that exceed the stall threshold; each window is attributed to an
// injected fault if one fired inside it, else to update activity
// (controller stage milestones away from steady state, dsu xform
// spans), else left unattributed.
func (t *SLOTracker) Report() SLOReport {
	var rep SLOReport
	if t == nil {
		return rep
	}
	end := t.rec.Now()
	rep.SpanNS = int64(end - t.started)
	rep.Requests = t.rec.Counter(CSLORequestsOK) + t.rec.Counter(CSLORequestsFail)
	rep.Failed = t.rec.Counter(CSLORequestsFail)

	// Downtime windows: walk successful completions in time order.
	faults := t.faultTimes()
	updates := t.updateIntervals(end)
	prev := t.started
	var totalDown, longest time.Duration
	flushGap := func(from, to time.Duration) {
		gap := to - from
		if gap <= t.opts.StallThreshold {
			return
		}
		w := DowntimeWindow{
			StartNS:    int64(from),
			EndNS:      int64(to),
			DurationNS: int64(gap),
			Cause:      attributeWindow(from, to, t.opts.AttributionSlack, faults, updates),
		}
		rep.Downtime = append(rep.Downtime, w)
		totalDown += gap
		if gap > longest {
			longest = gap
		}
	}
	for _, c := range t.completions {
		if !c.ok {
			continue
		}
		flushGap(prev, c.at)
		prev = c.at
	}
	flushGap(prev, end)
	rep.DowntimeNS = int64(totalDown)
	rep.LongestPauseNS = int64(longest)
	if n := len(rep.Downtime); n > 0 {
		rep.MTTRNS = int64(totalDown) / int64(n)
	}
	if rep.SpanNS > 0 {
		rep.AvailabilityPct = 100 * (1 - float64(totalDown)/float64(rep.SpanNS))
	}

	// Fault recovery: fault milestone -> next successful completion.
	var recSum time.Duration
	var recN int64
	for _, f := range faults {
		for _, c := range t.completions {
			if c.ok && c.at >= f {
				recSum += c.at - f
				recN++
				break
			}
		}
	}
	if recN > 0 {
		rep.FaultRecoveryNS = int64(recSum) / recN
	}

	rep.Timeline, rep.WindowsOver, rep.WindowsTotal = t.timeline()
	if rep.WindowsTotal > 0 && t.opts.LatencyBudgetP99 > 0 {
		rep.BudgetBurnPct = 100 * float64(rep.WindowsOver) / float64(rep.WindowsTotal)
	}
	return rep
}

// timeline buckets the completion log by virtual time into windows of
// opts.Window, in window order; a window no request completed in has
// no point.
func (t *SLOTracker) timeline() (pts []SLOWindowPoint, over, total int) {
	var lat []Histogram // lat[i] holds pts[i]'s latencies
	for _, c := range t.completions {
		w := int64(c.at / t.opts.Window)
		if n := len(pts); n == 0 || pts[n-1].Window != w {
			pts = append(pts, SLOWindowPoint{Window: w})
			lat = append(lat, Histogram{})
		}
		p := &pts[len(pts)-1]
		if c.ok {
			p.OK++
		} else {
			p.Fail++
		}
		lat[len(lat)-1].observe(c.latency)
	}
	for i := range pts {
		p := &pts[i]
		p.SuccessRate = float64(p.OK) / float64(p.OK+p.Fail)
		p.P99NS = int64(lat[i].Quantile(0.99))
		if t.opts.LatencyBudgetP99 > 0 && time.Duration(p.P99NS) > t.opts.LatencyBudgetP99 {
			p.OverBudget = true
			over++
		}
	}
	return pts, over, len(pts)
}

// faultTimes returns the virtual times of injected-fault milestones.
func (t *SLOTracker) faultTimes() []time.Duration {
	var out []time.Duration
	for _, e := range t.rec.Milestones() {
		if e.Kind == KindFault {
			out = append(out, e.At)
		}
	}
	return out
}

type interval struct{ start, end time.Duration }

// updateIntervals derives "update activity" intervals from controller
// stage milestones: a controller is mid-update whenever its stage is
// neither single-leader nor aborted (an aborted canary also ends the
// update). Xform spans on the dsu track (recorded when spans are
// enabled) are folded in as well, so state-transfer pauses attribute
// even without a stage change.
func (t *SLOTracker) updateIntervals(end time.Duration) []interval {
	var out []interval
	var openAt time.Duration
	open := false
	for _, e := range t.rec.Milestones() {
		if e.Kind != KindStage {
			continue
		}
		steady := e.Actor == "single-leader" || e.Actor == "aborted"
		switch {
		case !steady && !open:
			open, openAt = true, e.At
		case steady && open:
			out = append(out, interval{openAt, e.At})
			open = false
		}
	}
	if open {
		out = append(out, interval{openAt, end})
	}
	for _, s := range t.rec.Spans() {
		if s.Phase == PhaseBegin && strings.HasPrefix(s.Track, "dsu:") && strings.HasPrefix(s.Name, "xform:") {
			// Pair with the next matching end on the same track.
			for _, e := range t.rec.Spans() {
				if e.Phase == PhaseEnd && e.Track == s.Track && e.At >= s.At {
					out = append(out, interval{s.At, e.At})
					break
				}
			}
		}
	}
	return out
}

func attributeWindow(from, to, slack time.Duration, faults []time.Duration, updates []interval) string {
	for _, f := range faults {
		if f >= from-slack && f <= to {
			return "fault"
		}
	}
	for _, u := range updates {
		if u.start <= to && u.end >= from {
			return "update"
		}
	}
	return "unattributed"
}
