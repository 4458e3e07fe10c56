package bench

import (
	"strings"
	"testing"
	"time"
)

// Short windows keep the unit-test suite fast; the benchtool runs the
// full-scale versions.
var smokeCfg = Table2Config{Warmup: 50 * time.Millisecond, Window: 300 * time.Millisecond}

// redisCells caches the Redis steady-state cells at smokeCfg: the runs
// are deterministic, so the two tests below read one measurement each.
var redisCells = map[Mode]float64{}

func redisCell(t *testing.T, mode Mode) float64 {
	t.Helper()
	if ops, ok := redisCells[mode]; ok {
		return ops
	}
	opsPerSec, err := RunSteadyState(RedisTarget(), mode, smokeCfg.Warmup, smokeCfg.Window)
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	redisCells[mode] = opsPerSec
	return opsPerSec
}

func TestSteadyStateAllModesRedis(t *testing.T) {
	var native float64
	for _, mode := range Modes {
		ops := redisCell(t, mode)
		if ops <= 0 {
			t.Fatalf("%v: zero throughput", mode)
		}
		if mode == ModeNative {
			native = ops
		} else if ops > native*1.001 {
			t.Errorf("%v faster than native: %.0f vs %.0f", mode, ops, native)
		}
		t.Logf("%-10v %10.0f ops/s", mode, ops)
	}
}

func TestSteadyStateOverheadOrdering(t *testing.T) {
	// The structural ordering the paper's Table 2 shows: duo modes cost
	// more than single-leader modes, which cost more than native.
	native := redisCell(t, ModeNative)
	m1 := redisCell(t, ModeMvedsua1)
	m2 := redisCell(t, ModeMvedsua2)
	if !(native > m1 && m1 > m2) {
		t.Fatalf("ordering broken: native %.0f, mvedsua-1 %.0f, mvedsua-2 %.0f", native, m1, m2)
	}
	ov1 := 1 - m1/native
	ov2 := 1 - m2/native
	if ov1 < 0.01 || ov1 > 0.15 {
		t.Errorf("Mvedsua-1 overhead %.1f%%, want in the paper's 3-9%% band (loosely)", ov1*100)
	}
	if ov2 < 0.15 || ov2 > 0.60 {
		t.Errorf("Mvedsua-2 overhead %.1f%%, want in the paper's 25-52%% band (loosely)", ov2*100)
	}
}

func TestSteadyStateMemcachedDuo(t *testing.T) {
	target := MemcachedTarget()
	opsPerSec, err := RunSteadyState(target, ModeMvedsua2, smokeCfg.Warmup, smokeCfg.Window)
	if err != nil {
		t.Fatalf("Mvedsua-2: %v", err)
	}
	if opsPerSec <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestSteadyStateVsftpdSmall(t *testing.T) {
	target := VsftpdTarget("small", 5)
	for _, mode := range []Mode{ModeNative, ModeVaran2} {
		opsPerSec, err := RunSteadyState(target, mode, smokeCfg.Warmup, smokeCfg.Window)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if opsPerSec <= 0 {
			t.Fatalf("%v: zero throughput", mode)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := []int{0, 2, 0, 2, 0, 0, 3, 0, 1, 1, 1, 1, 0}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Rules != want[i] {
			t.Errorf("%s->%s = %d, want %d", r.From, r.To, r.Rules, want[i])
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Average         0.85") {
		t.Errorf("FormatTable1 = %s", out)
	}
}

func TestFig6Small(t *testing.T) {
	cfg := Fig6Config{Total: 1200 * time.Millisecond, Buckets: 12}
	results, err := Fig6(cfg)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.OpsPerSec) < cfg.Buckets-1 {
			t.Errorf("%s: only %d buckets", r.Target, len(r.OpsPerSec))
		}
		// Service never stops: every bucket has throughput.
		for i, v := range r.OpsPerSec {
			if v <= 0 {
				t.Errorf("%s bucket %d: service stopped", r.Target, i)
			}
		}
		// The validation window is slower than the steady-state edges.
		first, mid := r.OpsPerSec[0], r.OpsPerSec[len(r.OpsPerSec)/2]
		if mid >= first {
			t.Errorf("%s: no visible dip during validation (%.0f -> %.0f)", r.Target, first, mid)
		}
		last := r.OpsPerSec[len(r.OpsPerSec)-1]
		if last < first*0.9 {
			t.Errorf("%s: throughput did not recover after commit (%.0f -> %.0f)", r.Target, first, last)
		}
	}
	_ = FormatFig6(results)
}

func TestFig7Small(t *testing.T) {
	// 20k entries -> ~124ms transformation; buffers scaled accordingly.
	// Every pause asserted on happens in the first 150ms after the update.
	cfg := Fig7Config{Entries: 20000, PostUpdate: 600 * time.Millisecond}
	kitsune, err := fig7One("kitsune", ModeKitsune, 0, true, false, cfg)
	if err != nil {
		t.Fatalf("kitsune: %v", err)
	}
	tiny, err := fig7One("tiny", ModeMvedsua2, 1<<10, true, false, cfg)
	if err != nil {
		t.Fatalf("tiny: %v", err)
	}
	big, err := fig7One("big", ModeMvedsua2, 1<<22, true, false, cfg)
	if err != nil {
		t.Fatalf("big: %v", err)
	}
	// Kitsune pauses for at least the transformation time.
	if kitsune.MaxLatency < 100*time.Millisecond {
		t.Errorf("kitsune pause = %v, want >= xform time (~124ms)", kitsune.MaxLatency)
	}
	// A tiny buffer cannot mask the pause; a big one masks it well.
	if tiny.MaxLatency < kitsune.MaxLatency/2 {
		t.Errorf("tiny buffer pause = %v, implausibly small vs kitsune %v", tiny.MaxLatency, kitsune.MaxLatency)
	}
	if big.MaxLatency >= tiny.MaxLatency/2 {
		t.Errorf("big buffer pause = %v, want well under tiny %v", big.MaxLatency, tiny.MaxLatency)
	}
	t.Logf("kitsune %v, 2^10 %v, 2^22 %v", kitsune.MaxLatency, tiny.MaxLatency, big.MaxLatency)
}

func TestModeStrings(t *testing.T) {
	if ModeNative.String() != "Native" || ModeMvedsua2.String() != "Mvedsua-2" ||
		Mode(99).String() != "mode(99)" {
		t.Fatal("Mode.String mismatch")
	}
}
