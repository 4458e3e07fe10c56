package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Virtual-clock profiler: the exact (not sampled) "where did the time
// go" counterpart to the span layer. A sim.Scheduler with a profiler
// attached delivers every CPU slice — split into segments at label
// boundaries — so each virtual nanosecond of a run is charged to
// exactly one stack of the form
//
//	shard / process (task name) / role / activity
//
// Two accounting dimensions keep the books honest:
//
//   - cpu: scheduler slices. Per shard they tile the timeline, so
//     cpu + idle = makespan exactly (no sampling error, no rounding).
//   - off: off-CPU intervals charged by chokepoints — ring waits,
//     lockstep drains, and sleep-modeled parallel work (follower
//     replay, parallel state transformation). These overlap other
//     tasks' cpu time and are excluded from the makespan identity.
//
// Profiling has one switch: the sink attached with
// sim.Scheduler.SetProfiler. Chokepoints push labels and charge waits
// through sim.Task, which does nothing while no sink is attached, so
// golden runs (which attach none) keep the committed artifacts
// byte-identical.

// Profiling label vocabulary. Roles name who held the CPU; activities
// name what for. Chokepoints across sysabi/ringbuf/mve/dsu push these
// so the folded stacks read the same in every scenario.
const (
	LblLeader   = "leader"
	LblFollower = "follower"
	LblCanary   = "canary"
	LblRetired  = "retired"

	LblService      = "service"
	LblValidate     = "validate"
	LblRingWait     = "ring_wait"
	LblLockstepWait = "lockstep_wait"
	LblXform        = "xform"
	LblIdle         = "idle"
)

// EnableProfiling does nothing: the scheduler's sink is the profiler's
// only switch (sim.Scheduler.SetProfiler). It stays for the benchmark
// adapter, which calls it.
func (r *Recorder) EnableProfiling() {}

// ProfilerShard accumulates attribution for one scheduler (one shard).
// During a sharded run's parallel epochs each shard's OS thread writes
// only its own ProfilerShard, so the profiler needs no locking; the
// merge happens at export, under sorted keys, which is what makes the
// folded output byte-stable across 1/2/4-shard placements.
type ProfilerShard struct {
	now func() time.Duration

	cpu  map[string]time.Duration // stack key -> on-CPU time
	off  map[string]time.Duration // stack key -> off-CPU time
	busy time.Duration            // Σ cpu segment widths
}

// ProfileSlice implements sim.SliceProfiler.
func (ps *ProfilerShard) ProfileSlice(task string, labels []string, start, end time.Duration) {
	d := end - start
	if d <= 0 {
		return
	}
	ps.busy += d
	ps.cpu[stackKey(task, labels, "")] += d
}

// ProfileWait implements sim.SliceProfiler. The wait label becomes the
// leaf frame unless the stack already ends with it (a replay sleep
// inside a validate scope charges to ...;validate, not
// ...;validate;validate).
func (ps *ProfilerShard) ProfileWait(task string, labels []string, wait string, start, end time.Duration) {
	d := end - start
	if d <= 0 {
		return
	}
	if n := len(labels); n > 0 && labels[n-1] == wait {
		wait = ""
	}
	ps.off[stackKey(task, labels, wait)] += d
}

// stackKey folds task, labels, and an optional leaf into the canonical
// semicolon-joined frame string (the folded flamegraph line sans count).
func stackKey(task string, labels []string, leaf string) string {
	var b strings.Builder
	b.Grow(len(task) + 16*len(labels) + len(leaf))
	b.WriteString(task)
	for _, l := range labels {
		b.WriteByte(';')
		b.WriteString(l)
	}
	if leaf != "" {
		b.WriteByte(';')
		b.WriteString(leaf)
	}
	return b.String()
}

// Profiler owns the per-shard accumulators and the deterministic
// exports. Construct with NewProfiler, attach one sink per scheduler
// via ShardSink + sim.Scheduler.SetProfiler.
type Profiler struct {
	shards map[int]*ProfilerShard
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{shards: map[int]*ProfilerShard{}}
}

// ShardSink returns the accumulator for the given shard id, creating it
// on first use (idempotent). now must be that shard's scheduler clock;
// it supplies the shard makespan at export time, from which idle is
// derived. Call before the run starts — slot creation is not
// thread-safe against a sharded run's parallel epochs.
func (p *Profiler) ShardSink(shard int, now func() time.Duration) *ProfilerShard {
	if ps, ok := p.shards[shard]; ok {
		return ps
	}
	ps := &ProfilerShard{
		now: now,
		cpu: map[string]time.Duration{},
		off: map[string]time.Duration{},
	}
	p.shards[shard] = ps
	return ps
}

// shardIDs returns the attached shard ids, sorted.
func (p *Profiler) shardIDs() []int {
	ids := make([]int, 0, len(p.shards))
	for id := range p.shards { // maporder: ok — ids are sorted below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ProfileRow is one aggregated attribution line.
type ProfileRow struct {
	Shard int           // shard id
	Kind  string        // "cpu", "off", or "idle"
	Stack string        // semicolon-joined frames: task;role;activity
	Dur   time.Duration // total virtual time charged
}

// Rows returns every attribution line, sorted by (shard, kind, stack)
// so the export is deterministic regardless of accumulation order. The
// per-shard idle row is synthesized here: makespan (the shard clock at
// export) minus the shard's cpu total.
func (p *Profiler) Rows() []ProfileRow {
	var rows []ProfileRow
	for _, id := range p.shardIDs() {
		ps := p.shards[id]
		for _, k := range sortedKeys(ps.cpu) {
			rows = append(rows, ProfileRow{Shard: id, Kind: "cpu", Stack: k, Dur: ps.cpu[k]})
		}
		for _, k := range sortedKeys(ps.off) {
			rows = append(rows, ProfileRow{Shard: id, Kind: "off", Stack: k, Dur: ps.off[k]})
		}
		if idle := ps.now() - ps.busy; idle > 0 {
			rows = append(rows, ProfileRow{Shard: id, Kind: "idle", Stack: LblIdle, Dur: idle})
		}
	}
	return rows
}

// ShardTotal summarizes one shard's makespan identity.
type ShardTotal struct {
	Shard    int
	Busy     time.Duration // Σ cpu segments — tiles the shard timeline
	Idle     time.Duration // Makespan - Busy
	Makespan time.Duration // the shard clock at export
}

// ShardTotals returns per-shard busy/idle/makespan, sorted by shard.
// Busy + Idle == Makespan holds exactly on every shard: that is the
// profiler's sums-to-makespan invariant.
func (p *Profiler) ShardTotals() []ShardTotal {
	var out []ShardTotal
	for _, id := range p.shardIDs() {
		ps := p.shards[id]
		mk := ps.now()
		out = append(out, ShardTotal{Shard: id, Busy: ps.busy, Idle: mk - ps.busy, Makespan: mk})
	}
	return out
}

// Folded renders the full attribution as folded-stack flamegraph text
// (`frame;frame;... <nanoseconds>`), one line per stack, sorted
// lexicographically — feed it to any flamegraph tool. The shard is the
// root frame; cpu and off stacks are merged per stack key (off leaves
// like ring_wait are distinct frames, so nothing collides), and each
// shard gets a synthetic `shardN;idle` line. Byte-identical run-to-run.
func (p *Profiler) Folded() string {
	merged := map[string]time.Duration{}
	for _, r := range p.Rows() {
		merged[fmt.Sprintf("shard%d;%s", r.Shard, r.Stack)] += r.Dur
	}
	return foldMap(merged)
}

// FoldedCPU renders only the cpu dimension with the shard frame
// collapsed. CPU time is charged by each task's own Advance calls, so
// this view is invariant across shard placements: running the same
// groups on 1, 2, or 4 shards yields byte-identical FoldedCPU output
// (idle and waits — which depend on interleaving — are excluded).
func (p *Profiler) FoldedCPU() string {
	merged := map[string]time.Duration{}
	for _, r := range p.Rows() {
		if r.Kind == "cpu" {
			merged[r.Stack] += r.Dur
		}
	}
	return foldMap(merged)
}

// foldMap renders a stack->duration map as sorted folded lines.
func foldMap(m map[string]time.Duration) string {
	var b strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "%s %d\n", k, int64(m[k]))
	}
	return b.String()
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // maporder: ok — keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Pprof encodes the attribution as an uncompressed pprof profile
// (google.golang.org/protobuf not required — the writer below emits the
// handful of profile.proto fields by hand). One sample per folded
// stack, leaf-first location order as pprof expects, value in
// nanoseconds of virtual time. `go tool pprof` reads the output
// directly. Deterministic: stacks, string table, and ids all derive
// from the sorted fold.
func (p *Profiler) Pprof() []byte {
	merged := map[string]time.Duration{}
	for _, r := range p.Rows() {
		merged[fmt.Sprintf("shard%d;%s", r.Shard, r.Stack)] += r.Dur
	}
	stacks := sortedKeys(merged)

	// String and function tables. String 0 must be "".
	strIdx := map[string]int64{"": 0}
	strTab := []string{""}
	intern := func(s string) int64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := int64(len(strTab))
		strIdx[s] = i
		strTab = append(strTab, s)
		return i
	}
	typeVirtual := intern("virtual")
	unitNS := intern("nanoseconds")

	funcIdx := map[string]uint64{}
	var funcNames []string
	funcFor := func(frame string) uint64 {
		if id, ok := funcIdx[frame]; ok {
			return id
		}
		id := uint64(len(funcNames) + 1)
		funcIdx[frame] = id
		funcNames = append(funcNames, frame)
		return id
	}

	var w protoWriter
	// sample_type (field 1): ValueType{type, unit}
	var vt protoWriter
	vt.varintField(1, uint64(typeVirtual))
	vt.varintField(2, uint64(unitNS))
	w.bytesField(1, vt.buf)

	// samples (field 2), locations resolved leaf-first.
	for _, stack := range stacks {
		frames := strings.Split(stack, ";")
		var sm protoWriter
		for i := len(frames) - 1; i >= 0; i-- {
			// Locations and functions are 1:1 here, sharing ids.
			sm.varintField(1, funcFor(frames[i]))
		}
		sm.varintField(2, uint64(int64(merged[stack])))
		w.bytesField(2, sm.buf)
	}

	// locations (field 4): id + one Line{function_id, line}.
	for i := range funcNames {
		id := uint64(i + 1)
		var ln protoWriter
		ln.varintField(1, id)
		ln.varintField(2, 1)
		var loc protoWriter
		loc.varintField(1, id)
		loc.bytesField(4, ln.buf)
		w.bytesField(4, loc.buf)
	}
	// functions (field 5): id + name.
	for i, name := range funcNames {
		var fn protoWriter
		fn.varintField(1, uint64(i+1))
		fn.varintField(2, uint64(intern(name)))
		w.bytesField(5, fn.buf)
	}
	// string_table (field 6) — after interning is complete.
	for _, s := range strTab {
		w.stringField(6, s)
	}
	// period_type (field 11) + period (field 12).
	var pt protoWriter
	pt.varintField(1, uint64(typeVirtual))
	pt.varintField(2, uint64(unitNS))
	w.bytesField(11, pt.buf)
	w.varintField(12, 1)
	return w.buf
}

// protoWriter is a minimal protobuf wire-format encoder: enough of
// proto3 (varint + length-delimited) to emit profile.proto messages.
type protoWriter struct{ buf []byte }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

func (w *protoWriter) varintField(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0) // wire type 0: varint
	w.varint(v)
}

func (w *protoWriter) bytesField(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2) // wire type 2: length-delimited
	w.varint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *protoWriter) stringField(field int, s string) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}
