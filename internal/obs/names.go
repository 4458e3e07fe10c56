package obs

// Canonical metric names. Instrumentation sites use these constants and
// the lists below name each one once, so this file is the whole
// vocabulary: the metrics artifact's validator
// (bench.ValidateMetricsReport) rejects any exported name missing here.
const (
	// sysabi dispatch (mve.Proc chokepoint).
	CSyscallsSingle   = "sysabi.calls.single"   // single-leader-mode syscalls
	CSyscallsLeader   = "sysabi.calls.leader"   // leader syscalls while a follower is attached
	CSyscallsFollower = "sysabi.calls.follower" // follower syscalls validated against the stream
	HSyscallSingle    = "sysabi.latency.single" // kernel latency, single-leader mode
	HSyscallLeader    = "sysabi.latency.leader" // kernel latency, leader mode (incl. record cost)

	// Ring buffer.
	CRingPut       = "ringbuf.put"
	CRingGet       = "ringbuf.get"
	CRingBlocked   = "ringbuf.producer_blocked"
	CRingDropped   = "ringbuf.dropped"
	CRingResets    = "ringbuf.resets"
	GRingOccupancy = "ringbuf.occupancy" // last observed occupancy
	GRingHighWater = "ringbuf.highwater" // max occupancy ever reached
	HRingBlockWait = "ringbuf.block_wait"

	// MVE monitor.
	CMVERecorded    = "mve.recorded"
	CMVEReplayed    = "mve.replayed"
	CMVEPromotions  = "mve.promotions"
	CMVEStalls      = "mve.stalls"
	CMVEDivergences = "mve.divergences"

	// MVE fleet mode (N-variant execution). Touched only when fleet
	// variants are attached, so duo runs never export them and the
	// golden duo artifacts stay byte-identical.
	CFleetEjects        = "mve.fleet.ejects"                // replicas quarantined by a minority (eject) verdict
	CFleetAborts        = "mve.fleet.quorum_aborts"         // majority-failure fleet teardowns
	CFleetDivsTolerated = "mve.fleet.divergences_tolerated" // canary divergences absorbed by the budget
	GFleetVariants      = "mve.fleet.variants"              // currently attached variants

	// DSL rewrite engine (per-rule attribution lives in the trace).
	CRuleHits = "dsl.rule_hits"

	// Controller lifecycle.
	CCoreTransitions = "core.transitions"
	CCoreUpdates     = "core.updates"
	CCoreCommits     = "core.commits"
	CCoreRollbacks   = "core.rollbacks"
	CCoreRetries     = "core.retries"

	// Fleet controller lifecycle (fleet mode only, like the mve.fleet
	// family above).
	CFleetRespawns    = "core.fleet.respawns"    // ejected variants replaced at a leader barrier
	CCanaryPromotions = "core.canary.promotions" // canary gates passed -> fleet promoted

	// Chaos layer.
	CChaosFired = "chaos.fired"

	// Per-request latency attribution (span mode only: these are emitted
	// behind Recorder.SpansEnabled, so default benchmark runs never
	// record them and the golden artifacts stay byte-identical).
	CReqTracked     = "request.tracked"      // tagged client requests attributed end-to-end
	HReqService     = "request.service"      // leader service time: tagged read -> response write
	HReqRingWait    = "request.ring_wait"    // response event's wait in the ring buffer
	HReqValidateLag = "request.validate_lag" // drain -> follower validation of the response

	// DSU runtime. The xform histogram and the lazy-migration group
	// record whenever a recorder is attached (the golden duo runs attach
	// none to the dsu config, so the artifacts are unchanged); the
	// update-point counter and quiescence histogram are span mode only.
	CDSUUpdatePoints = "dsu.update_points" // update-point hits while an update is live
	HDSUQuiesce      = "dsu.quiesce_wait"  // update requested -> quiescence decided
	HDSUXform        = "dsu.xform"         // state-transfer (Xform) duration per version step

	// Lazy state transformation (LazyXform versions only). Touched work
	// is charged to the request that first accesses a lagging entry;
	// swept work is the background cold-tail sweep.
	CDSUXformTouched = "dsu.xform.touched" // generation steps applied on first access
	CDSUXformSwept   = "dsu.xform.swept"   // entries migrated by the background sweep
	GDSUXformPending = "dsu.xform.pending" // entries still awaiting lazy migration
	HDSUXformTouch   = "dsu.xform.touch"   // per-request on-access migration charge

	// Virtual OS (only where a kernel has a recorder: span-traced runs).
	CVOSNetBytes = "vos.net.bytes" // bytes moved through stream sockets
	CVOSFSBytes  = "vos.fs.bytes"  // bytes moved through the in-memory fs
	GVOSOpenFDs  = "vos.open_fds"  // open descriptors after the last syscall

	// SLO accounting (recorded only through SLOTracker, which the slo
	// benchmark scenarios attach; default runs never touch them, so the
	// golden artifacts are unchanged).
	CSLORequestsOK   = "slo.requests.ok"     // client requests completed successfully
	CSLORequestsFail = "slo.requests.fail"   // client requests that errored
	HSLOLatency      = "slo.request.latency" // client-observed request latency
)

// CounterNames is the complete counter vocabulary.
var CounterNames = []string{
	CSyscallsSingle, CSyscallsLeader, CSyscallsFollower,
	CRingPut, CRingGet, CRingBlocked, CRingDropped, CRingResets,
	CMVERecorded, CMVEReplayed, CMVEPromotions, CMVEStalls, CMVEDivergences,
	CFleetEjects, CFleetAborts, CFleetDivsTolerated,
	CRuleHits,
	CCoreTransitions, CCoreUpdates, CCoreCommits, CCoreRollbacks, CCoreRetries,
	CFleetRespawns, CCanaryPromotions,
	CChaosFired,
	CReqTracked, CDSUUpdatePoints, CDSUXformTouched, CDSUXformSwept,
	CVOSNetBytes, CVOSFSBytes,
	CSLORequestsOK, CSLORequestsFail,
}

// GaugeNames is the complete gauge vocabulary.
var GaugeNames = []string{GRingOccupancy, GRingHighWater, GFleetVariants, GDSUXformPending, GVOSOpenFDs}

// HistogramNames is the complete histogram vocabulary.
var HistogramNames = []string{
	HSyscallSingle, HSyscallLeader, HRingBlockWait,
	HReqService, HReqRingWait, HReqValidateLag,
	HDSUQuiesce, HDSUXform, HDSUXformTouch,
	HSLOLatency,
}
