package obs

import (
	"strings"
	"testing"
	"time"
)

// TestProfilerSliceAccounting charges a few slices and checks the cpu
// books: stack keys, busy total, and the synthesized idle row closing
// the makespan identity.
func TestProfilerSliceAccounting(t *testing.T) {
	clk := &manualClock{}
	p := NewProfiler()
	ps := p.ShardSink(0, clk.now)

	ps.ProfileSlice("srv", []string{LblLeader, LblService}, 0, 4*time.Millisecond)
	ps.ProfileSlice("srv", []string{LblLeader, LblService}, 4*time.Millisecond, 6*time.Millisecond)
	ps.ProfileSlice("cli", nil, 6*time.Millisecond, 7*time.Millisecond)
	ps.ProfileSlice("cli", nil, 7*time.Millisecond, 7*time.Millisecond) // zero width: ignored
	clk.t = 10 * time.Millisecond                                       // makespan 10ms -> 3ms idle

	rows := p.Rows()
	want := []ProfileRow{
		{Shard: 0, Kind: "cpu", Stack: "cli", Dur: time.Millisecond},
		{Shard: 0, Kind: "cpu", Stack: "srv;leader;service", Dur: 6 * time.Millisecond},
		{Shard: 0, Kind: "idle", Stack: LblIdle, Dur: 3 * time.Millisecond},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v, want %d rows", rows, len(want))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}

	totals := p.ShardTotals()
	if len(totals) != 1 {
		t.Fatalf("totals = %+v", totals)
	}
	tot := totals[0]
	if tot.Busy != 7*time.Millisecond || tot.Idle != 3*time.Millisecond || tot.Makespan != 10*time.Millisecond {
		t.Fatalf("totals = %+v, want busy 7ms idle 3ms makespan 10ms", tot)
	}
	if tot.Busy+tot.Idle != tot.Makespan {
		t.Fatal("busy+idle != makespan")
	}
}

// TestProfileWaitDedup pins the wait-leaf rule: a wait charged inside a
// scope that already ends with the same label folds into that scope
// instead of stuttering (...;validate;validate).
func TestProfileWaitDedup(t *testing.T) {
	p := NewProfiler()
	ps := p.ShardSink(0, func() time.Duration { return 0 })

	ps.ProfileWait("f", []string{LblFollower, LblValidate}, LblValidate, 0, time.Millisecond)
	ps.ProfileWait("f", []string{LblFollower, LblValidate}, LblRingWait, time.Millisecond, 3*time.Millisecond)
	ps.ProfileWait("f", nil, LblRingWait, 3*time.Millisecond, 3*time.Millisecond) // zero width: ignored

	rows := p.Rows()
	want := []ProfileRow{
		{Shard: 0, Kind: "off", Stack: "f;follower;validate", Dur: time.Millisecond},
		{Shard: 0, Kind: "off", Stack: "f;follower;validate;ring_wait", Dur: 2 * time.Millisecond},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v, want %d rows", rows, len(want))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

// TestFoldedOutputs checks both folds: the full fold roots stacks at
// the shard and includes idle and waits; the cpu-only fold collapses
// the shard frame and drops everything placement-dependent.
func TestFoldedOutputs(t *testing.T) {
	clk0 := &manualClock{t: 3 * time.Millisecond}
	clk1 := &manualClock{t: 2 * time.Millisecond}
	p := NewProfiler()
	ps0 := p.ShardSink(0, clk0.now)
	ps1 := p.ShardSink(1, clk1.now)

	ps0.ProfileSlice("srv", []string{LblLeader, LblService}, 0, 2*time.Millisecond)
	ps0.ProfileWait("f", []string{LblFollower}, LblRingWait, 0, time.Millisecond)
	ps1.ProfileSlice("srv", []string{LblLeader, LblService}, 0, 2*time.Millisecond)

	folded := p.Folded()
	wantFolded := strings.Join([]string{
		"shard0;f;follower;ring_wait 1000000",
		"shard0;idle 1000000",
		"shard0;srv;leader;service 2000000",
		"shard1;srv;leader;service 2000000",
	}, "\n") + "\n"
	if folded != wantFolded {
		t.Errorf("Folded:\n%s\nwant:\n%s", folded, wantFolded)
	}

	cpu := p.FoldedCPU()
	wantCPU := "srv;leader;service 4000000\n"
	if cpu != wantCPU {
		t.Errorf("FoldedCPU:\n%s\nwant:\n%s", cpu, wantCPU)
	}
}

// TestShardSinkIdempotent: asking twice for the same shard returns the
// same accumulator, so wiring code can be naive.
func TestShardSinkIdempotent(t *testing.T) {
	p := NewProfiler()
	a := p.ShardSink(2, func() time.Duration { return 0 })
	b := p.ShardSink(2, func() time.Duration { return time.Second })
	if a != b {
		t.Fatal("ShardSink minted a second accumulator for shard 2")
	}
}

// TestPprofEncoding decodes the hand-rolled protobuf just enough to
// verify structure: one sample per folded stack, every sample value
// matching the fold, and a well-formed string table.
func TestPprofEncoding(t *testing.T) {
	clk := &manualClock{t: 5 * time.Millisecond}
	p := NewProfiler()
	ps := p.ShardSink(0, clk.now)
	ps.ProfileSlice("srv", []string{LblLeader, LblService}, 0, 2*time.Millisecond)
	ps.ProfileWait("f", []string{LblFollower}, LblRingWait, 0, time.Millisecond)

	data := p.Pprof()
	if len(data) == 0 {
		t.Fatal("empty pprof payload")
	}

	// Minimal wire-format walk of the top-level Profile message.
	var samples, locations, functions, strCount int
	var sampleVals []int64
	for i := 0; i < len(data); {
		tag, n := decodeVarint(t, data, i)
		i += n
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			_, n := decodeVarint(t, data, i)
			i += n
		case 2:
			ln, n := decodeVarint(t, data, i)
			i += n
			body := data[i : i+int(ln)]
			i += int(ln)
			switch field {
			case 2:
				samples++
				sampleVals = append(sampleVals, sampleValue(t, body))
			case 4:
				locations++
			case 5:
				functions++
			case 6:
				strCount++
			}
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
	// 3 stacks: two charged + the synthesized idle.
	if samples != 3 {
		t.Fatalf("samples = %d, want 3", samples)
	}
	if locations != functions || locations == 0 {
		t.Fatalf("locations = %d, functions = %d, want equal and nonzero", locations, functions)
	}
	if strCount < 3 {
		t.Fatalf("string table has %d entries, want >= 3", strCount)
	}
	// Sorted stacks: shard0;f;follower;ring_wait (1ms), shard0;idle
	// (3ms), shard0;srv;leader;service (2ms).
	wantVals := []int64{int64(time.Millisecond), int64(3 * time.Millisecond), int64(2 * time.Millisecond)}
	for i, want := range wantVals {
		if sampleVals[i] != want {
			t.Errorf("sample %d value = %d, want %d", i, sampleVals[i], want)
		}
	}
}

// decodeVarint reads one varint at data[i:].
func decodeVarint(t *testing.T, data []byte, i int) (uint64, int) {
	t.Helper()
	var v uint64
	for n := 0; ; n++ {
		if i+n >= len(data) || n > 9 {
			t.Fatal("truncated varint")
		}
		b := data[i+n]
		v |= uint64(b&0x7f) << (7 * n)
		if b < 0x80 {
			return v, n + 1
		}
	}
}

// sampleValue extracts the value (field 2) from an encoded Sample.
func sampleValue(t *testing.T, body []byte) int64 {
	t.Helper()
	for i := 0; i < len(body); {
		tag, n := decodeVarint(t, body, i)
		i += n
		if tag&7 != 0 {
			t.Fatalf("unexpected wire type in sample: tag %d", tag)
		}
		v, n := decodeVarint(t, body, i)
		i += n
		if tag>>3 == 2 {
			return int64(v)
		}
	}
	t.Fatal("sample has no value field")
	return 0
}

// TestFormatMetricsDroppedLines is the drops-visibility regression
// test: spans.dropped must surface in FormatMetrics when (and only
// when) span events were actually lost.
func TestFormatMetricsDroppedLines(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{SpanCapacity: 2})
	r.EnableSpans()

	if out := r.FormatMetrics(); strings.Contains(out, "spans.dropped") {
		t.Fatalf("drop lines present before any drop:\n%s", out)
	}

	for i := 0; i < 5; i++ {
		clk.t = time.Duration(i) * time.Millisecond
		r.InstantSpan("tr", "mark", "")
	}

	out := r.FormatMetrics()
	if !strings.Contains(out, "spans.dropped: 3 span events evicted") {
		t.Errorf("missing spans.dropped line:\n%s", out)
	}
}
