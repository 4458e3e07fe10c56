package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Merged cross-shard Perfetto export. PR 9's sharded runtime gave each
// shard its own Recorder, which fractured the span timeline into
// per-shard silos: one export per shard, no way to see a cross-shard
// Send land. ExportMergedChromeTrace reassembles the run — each shard
// becomes its own process (pid) in one trace_event JSON, and every
// cross-shard delivery becomes a flow arc ('s'/'f' pair) from the
// sender's timeline to the receiver's. Flow ids come from the barrier
// merge order (sim.ShardedScheduler delivers messages in (virtual send
// time, source shard, seq) total order), so the export is byte-stable
// run-to-run.

// ShardTrace pairs one shard's recorder with its display identity.
type ShardTrace struct {
	Shard int       // shard id; determines the pid
	Label string    // process name shown in the viewer, e.g. "shard0"
	Rec   *Recorder // that shard's recorder; nil contributes nothing
}

// Flow is one cross-shard delivery rendered as a flow arc.
type Flow struct {
	ID        int64 // unique; the barrier merge order
	From      int   // source shard id
	To        int
	Name      string
	Sent      time.Duration // virtual time the message was sent
	Delivered time.Duration // virtual time the target epoch began
}

// Merged-trace pid layout: shard i is pid i+2 — positive, stable however
// many shards participate, and clear of the single-scheduler export's
// pid 1.
const shardPidOff = 2

// flowTrack is the per-process track that anchors flow endpoints: flow
// events must bind to slices, so each send/recv gets a zero-width 'X'
// on this track.
const flowTrack = "xshard"

// ExportMergedChromeTrace renders several shards' spans, milestones,
// and the cross-shard flows into one Chrome trace_event JSON. Shards
// are processed in ascending shard id and flows in ascending ID, so
// equal-timestamp ordering — and therefore the output bytes — are
// deterministic. Safe with nil recorders and an empty shard list (the
// result is a valid metadata-only trace).
func ExportMergedChromeTrace(shards []ShardTrace, flows []Flow) ([]byte, error) {
	sorted := append([]ShardTrace(nil), shards...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	procs := make([]traceProcess, 0, len(sorted))
	for _, st := range sorted {
		label := st.Label
		if label == "" {
			label = fmt.Sprintf("shard%d", st.Shard)
		}
		procs = append(procs, traceProcess{pid: st.Shard + shardPidOff, name: label, rec: st.Rec})
	}
	return exportTrace(procs, flows)
}

// traceProcess is one trace_event process: its pid, display name, and
// the recorder whose spans and milestones fill its tracks (nil fills
// none).
type traceProcess struct {
	pid  int
	name string
	rec  *Recorder
}

// exportTrace is the one span/milestone -> trace_event conversion both
// exporters share. Processes are emitted in the given order, flows in
// ascending ID; events sort stably by virtual time, so ties keep that
// emission order.
func exportTrace(procs []traceProcess, flows []Flow) ([]byte, error) {
	trace := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}

	type rawEvent struct {
		at time.Duration
		ev chromeEvent
	}
	var raw []rawEvent
	push := func(at time.Duration, ev chromeEvent) {
		raw = append(raw, rawEvent{at: at, ev: ev})
	}

	// Per-pid track tables, assigned in order of first appearance.
	type pidTracks struct {
		tids  map[string]int
		order []string
	}
	tracks := map[int]*pidTracks{}
	pidNames := map[int]string{}
	tidFor := func(pid int, track string) int {
		pt, ok := tracks[pid]
		if !ok {
			pt = &pidTracks{tids: map[string]int{}}
			tracks[pid] = pt
		}
		if id, ok := pt.tids[track]; ok {
			return id
		}
		id := len(pt.tids) + 1
		pt.tids[track] = id
		pt.order = append(pt.order, track)
		return id
	}

	for _, p := range procs {
		pidNames[p.pid] = p.name
		for _, s := range p.rec.Spans() {
			ev := chromeEvent{
				Name: s.Name,
				Ph:   string(rune(s.Phase)),
				Ts:   float64(s.At) / float64(time.Microsecond),
				Pid:  p.pid,
				Tid:  tidFor(p.pid, s.Track),
			}
			switch s.Phase {
			case PhaseSlice:
				d := float64(s.Dur) / float64(time.Microsecond)
				ev.Dur = &d
			case PhaseAsyncBegin, PhaseAsyncEnd:
				ev.Cat = s.Track
				ev.ID = fmt.Sprintf("0x%x", s.ID)
			case PhaseInstant:
				ev.S = "t"
			}
			if s.Detail != "" {
				ev.Args = map[string]string{"detail": s.Detail}
			}
			push(s.At, ev)
		}
		// Milestones become instant events on a track per actor, so the
		// lifecycle story (divergence, stall, fault, stage, role, ...)
		// lines up against the spans it explains.
		for _, m := range p.rec.Milestones() {
			ev := chromeEvent{
				Name: m.Kind.String(),
				Ph:   "i",
				Ts:   float64(m.At) / float64(time.Microsecond),
				Pid:  p.pid,
				Tid:  tidFor(p.pid, m.Actor),
				S:    "t",
			}
			if m.Detail != "" {
				ev.Args = map[string]string{"detail": m.Detail}
			}
			push(m.At, ev)
		}
	}

	// Flow arcs. Each endpoint is a zero-width slice on the pid's
	// flowTrack plus the flow event itself bound to it ('s' at the send,
	// 'f' with bp:"e" at the delivery).
	sortedFlows := append([]Flow(nil), flows...)
	sort.SliceStable(sortedFlows, func(i, j int) bool { return sortedFlows[i].ID < sortedFlows[j].ID })
	zero := 0.0
	for _, f := range sortedFlows {
		srcPid := f.From + shardPidOff
		dstPid := f.To + shardPidOff
		if _, ok := pidNames[dstPid]; !ok {
			pidNames[dstPid] = fmt.Sprintf("shard%d", f.To)
		}
		id := fmt.Sprintf("0x%x", f.ID)
		sendTs := float64(f.Sent) / float64(time.Microsecond)
		recvTs := float64(f.Delivered) / float64(time.Microsecond)
		srcTid := tidFor(srcPid, flowTrack)
		dstTid := tidFor(dstPid, flowTrack)
		push(f.Sent, chromeEvent{
			Name: "send:" + f.Name, Ph: "X", Ts: sendTs, Dur: &zero,
			Pid: srcPid, Tid: srcTid,
		})
		push(f.Sent, chromeEvent{
			Name: f.Name, Ph: "s", Ts: sendTs, Cat: flowTrack, ID: id,
			Pid: srcPid, Tid: srcTid,
		})
		push(f.Delivered, chromeEvent{
			Name: "recv:" + f.Name, Ph: "X", Ts: recvTs, Dur: &zero,
			Pid: dstPid, Tid: dstTid,
		})
		push(f.Delivered, chromeEvent{
			Name: f.Name, Ph: "f", Ts: recvTs, Cat: flowTrack, ID: id, BP: "e",
			Pid: dstPid, Tid: dstTid,
		})
	}

	sort.SliceStable(raw, func(i, j int) bool { return raw[i].at < raw[j].at })

	// Metadata first: process names in pid order, then thread names in
	// first-appearance order within each pid.
	metaPids := make([]int, 0, len(pidNames))
	for pid := range pidNames { // maporder: ok — pids are sorted below
		metaPids = append(metaPids, pid)
	}
	sort.Ints(metaPids)
	for _, pid := range metaPids {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": pidNames[pid]},
		})
		if pt, ok := tracks[pid]; ok {
			for _, track := range pt.order {
				trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: pt.tids[track],
					Args: map[string]string{"name": track},
				})
			}
		}
	}
	for _, re := range raw {
		trace.TraceEvents = append(trace.TraceEvents, re.ev)
	}
	return json.MarshalIndent(trace, "", "  ")
}
