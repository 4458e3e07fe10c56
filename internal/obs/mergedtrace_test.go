package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// tracePayload is the subset of trace_event JSON the tests inspect.
type tracePayload struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Cat  string            `json:"cat"`
		ID   string            `json:"id"`
		BP   string            `json:"bp"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func parseTrace(t *testing.T, data []byte) tracePayload {
	t.Helper()
	var tr tracePayload
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	return tr
}

// TestExportChromeTraceEmptyStore: a recorder that recorded nothing
// (and a nil recorder) must still export a valid metadata-only trace,
// not a bare empty event list — Perfetto refuses files with no events.
func TestExportChromeTraceEmptyStore(t *testing.T) {
	for name, rec := range map[string]*Recorder{
		"nil":     nil,
		"enabled": func() *Recorder { r := New(nil, Options{}); r.EnableSpans(); return r }(),
	} { // maporder: ok — independent subtests, order irrelevant
		data, err := rec.ExportChromeTrace()
		if err != nil {
			t.Fatalf("%s: export: %v", name, err)
		}
		tr := parseTrace(t, data)
		if len(tr.TraceEvents) == 0 {
			t.Fatalf("%s: no events — Perfetto rejects an empty trace", name)
		}
		for _, ev := range tr.TraceEvents {
			if ev.Ph != "M" {
				t.Fatalf("%s: unexpected non-metadata event %+v in empty export", name, ev)
			}
		}
	}
}

// TestExportChromeTraceIdempotentAfterDrops: exporting is a read-only
// view — after the circular span store has evicted events, two
// consecutive exports must produce identical bytes.
func TestExportChromeTraceIdempotentAfterDrops(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{SpanCapacity: 4})
	r.EnableSpans()
	for i := 0; i < 12; i++ {
		clk.t = time.Duration(i) * time.Millisecond
		r.InstantSpan("tr", "mark", "")
	}
	if r.SpansDropped() == 0 {
		t.Fatal("test needs evictions to be meaningful")
	}
	a, err := r.ExportChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ExportChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-export after drops is not byte-identical")
	}
}

// buildMergedFixture assembles two shard recorders with spans plus a
// cross-shard and an external flow.
func buildMergedFixture(t *testing.T) ([]ShardTrace, []Flow) {
	t.Helper()
	clk0 := &manualClock{}
	r0 := New(clk0.now, Options{})
	r0.EnableSpans()
	r0.Slice("g0-driver", "run", 0, 2*time.Millisecond)
	clk0.t = 3 * time.Millisecond
	r0.InstantSpan("g0-driver", "sent", "")

	clk1 := &manualClock{}
	r1 := New(clk1.now, Options{})
	r1.EnableSpans()
	r1.Slice("g1-driver", "run", time.Millisecond, 4*time.Millisecond)

	shards := []ShardTrace{
		{Shard: 1, Label: "shard1", Rec: r1}, // intentionally out of order
		{Shard: 0, Label: "shard0", Rec: r0},
	}
	flows := []Flow{
		{ID: 1, From: 0, To: 1, Name: "g0-trigger", Sent: 3 * time.Millisecond, Delivered: 4 * time.Millisecond},
		{ID: 2, From: 1, To: 0, Name: "g1-reply", Sent: 5 * time.Millisecond, Delivered: 6 * time.Millisecond},
	}
	return shards, flows
}

// TestMergedTraceStructure checks the merged export end to end: pid
// layout, flow pairing and per-track timestamp monotonicity.
func TestMergedTraceStructure(t *testing.T) {
	shards, flows := buildMergedFixture(t)
	data, err := ExportMergedChromeTrace(shards, flows)
	if err != nil {
		t.Fatal(err)
	}
	tr := parseTrace(t, data)

	procNames := map[int]string{}
	starts := map[string]int{}
	finishes := map[string]int{}
	last := map[[2]int]float64{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procNames[ev.Pid] = ev.Args["name"]
			}
			continue
		case "s":
			starts[ev.Cat+"/"+ev.ID]++
		case "f":
			finishes[ev.Cat+"/"+ev.ID]++
			if ev.BP != "e" {
				t.Errorf("flow finish %s lacks bp=e: %+v", ev.ID, ev)
			}
		}
		key := [2]int{ev.Pid, ev.Tid}
		if prev, ok := last[key]; ok && ev.Ts < prev {
			t.Errorf("event %q out of order on pid %d tid %d: %f after %f", ev.Name, ev.Pid, ev.Tid, ev.Ts, prev)
		}
		last[key] = ev.Ts
	}

	want := map[int]string{shardPidOff: "shard0", shardPidOff + 1: "shard1"}
	for pid, name := range want { // maporder: ok — presence checks, order irrelevant
		if procNames[pid] != name {
			t.Errorf("pid %d named %q, want %q", pid, procNames[pid], name)
		}
	}
	if len(starts) != 2 {
		t.Fatalf("flow starts = %v, want 2 distinct ids", starts)
	}
	for id, n := range starts { // maporder: ok — pairing check, order irrelevant
		if finishes[id] != n {
			t.Errorf("flow %s: %d starts but %d finishes", id, n, finishes[id])
		}
	}
}

// TestMergedTraceDeterministic: two exports of the same run — with the
// shard list handed over in different orders — are byte-identical.
func TestMergedTraceDeterministic(t *testing.T) {
	shards, flows := buildMergedFixture(t)
	a, err := ExportMergedChromeTrace(shards, flows)
	if err != nil {
		t.Fatal(err)
	}
	reversed := []ShardTrace{shards[1], shards[0]}
	b, err := ExportMergedChromeTrace(reversed, flows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("merged export depends on shard list order")
	}
}

// TestMergedTraceEmpty: no spans anywhere still yields a valid
// metadata-only trace (one process per shard), never an empty list.
func TestMergedTraceEmpty(t *testing.T) {
	r := New(nil, Options{})
	data, err := ExportMergedChromeTrace([]ShardTrace{{Shard: 0, Rec: r}, {Shard: 1, Rec: nil}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := parseTrace(t, data)
	if len(tr.TraceEvents) != 2 {
		t.Fatalf("events = %+v, want exactly the two process_name records", tr.TraceEvents)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "M" || ev.Name != "process_name" {
			t.Errorf("unexpected event in empty merge: %+v", ev)
		}
	}
}
