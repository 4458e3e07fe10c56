# Convenience targets; everything is plain go-tool underneath.

GO ?= go

.PHONY: all build test vet fmt-check check lint-maps metrics-smoke perf-smoke timeline-smoke nvariant-smoke slo-smoke train-smoke profile-smoke shard-determinism bench bench-metrics bench-perf bench-timeline bench-nvariant bench-slo bench-train bench-profile bench-all bench-ring bench-sched experiments examples clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Source-formatting gate: gofmt must have nothing to rewrite.
fmt-check:
	@out="$$(gofmt -l cmd internal examples)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Tier-1 verification: vet plus the full suite under the race detector
# — which exercises the watchdog/monitor task interplay AND the sharded
# runtime's parallel epoch paths (shards run on real OS threads; the
# run-twice property tests execute under -race here) — then the
# benchtool smoke runs.
check: vet fmt-check lint-maps
	$(GO) test -race ./...
	$(GO) test -bench . -benchtime=1x ./internal/ringbuf/...
	$(MAKE) metrics-smoke
	$(MAKE) perf-smoke
	$(MAKE) timeline-smoke
	$(MAKE) nvariant-smoke
	$(MAKE) slo-smoke
	$(MAKE) train-smoke
	$(MAKE) profile-smoke
	$(MAKE) shard-determinism

# Map-iteration determinism sweep: flag `for range` over maps in the
# determinism-critical packages unless the site carries a `maporder:`
# comment explaining why its order cannot leak into execution.
lint-maps:
	$(GO) test -run TestMapRangeDeterminism ./internal/detlint/

# Smoke-run the flight recorder: emit a metrics report, validate it
# against the golden schema, and require it to be bit-identical to the
# committed BENCH_metrics.json artifact (the runs are virtual-time
# deterministic; regenerate with `make bench-metrics` after intentional
# instrumentation changes).
metrics-smoke:
	$(GO) run ./cmd/benchtool -experiment metrics -json .bench_metrics_smoke.json >/dev/null
	$(GO) run ./cmd/benchtool -validate .bench_metrics_smoke.json
	diff -u BENCH_metrics.json .bench_metrics_smoke.json || \
		{ echo "BENCH_metrics.json is stale; run 'make bench-metrics' to regenerate"; rm -f .bench_metrics_smoke.json; exit 1; }
	rm -f .bench_metrics_smoke.json

# Same contract for the perf baseline, with one twist: the speedup
# section mixes deterministic virtual-time columns with measured
# wall-clock columns, so the comparison is semantic (`benchtool
# -perfdiff`: deterministic fields must match exactly, wall-clock fields
# are ignored) instead of a byte diff. Regenerate with `make bench-perf`
# after intentional pipeline-cost changes; see docs/PERFORMANCE.md.
perf-smoke:
	$(GO) run ./cmd/benchtool -experiment perf -json .bench_perf_smoke.json >/dev/null
	$(GO) run ./cmd/benchtool -perfdiff BENCH_perf.json .bench_perf_smoke.json || \
		{ echo "BENCH_perf.json is stale; run 'make bench-perf' to regenerate"; rm -f .bench_perf_smoke.json; exit 1; }
	rm -f .bench_perf_smoke.json

# Same contract for the span-tracing artifact: the traced runs must
# reproduce BENCH_timeline.json byte-for-byte, and the Chrome
# trace_event export must parse and be time-ordered per track (the
# benchtool validates it before writing; see docs/OBSERVABILITY.md).
timeline-smoke:
	$(GO) run ./cmd/benchtool -experiment timeline -json .bench_timeline_smoke.json -perfetto .bench_perfetto_smoke.json >/dev/null
	diff -u BENCH_timeline.json .bench_timeline_smoke.json || \
		{ echo "BENCH_timeline.json is stale; run 'make bench-timeline' to regenerate"; rm -f .bench_timeline_smoke.json .bench_perfetto_smoke.json; exit 1; }
	rm -f .bench_timeline_smoke.json .bench_perfetto_smoke.json

# Same contract for the N-variant fleet artifact. The duo experiments
# above double as the K=1 byte-identity gate: the fleet refactor must
# leave BENCH_metrics.json, BENCH_perf.json and BENCH_timeline.json
# (all produced by the duo controller/monitor path) byte-for-byte
# unchanged, and this target pins the fleet scenarios themselves.
nvariant-smoke:
	$(GO) run ./cmd/benchtool -experiment nvariant -json .bench_nvariant_smoke.json >/dev/null
	diff -u BENCH_nvariant.json .bench_nvariant_smoke.json || \
		{ echo "BENCH_nvariant.json is stale; run 'make bench-nvariant' to regenerate"; rm -f .bench_nvariant_smoke.json; exit 1; }
	rm -f .bench_nvariant_smoke.json

# Same contract for the availability ledger: the three SLO scenarios
# (update-under-load, fault-and-recover, canary-rollback) run in
# deterministic virtual time and must reproduce BENCH_slo.json
# byte-for-byte (regenerate with `make bench-slo`; see
# docs/OBSERVABILITY.md for how to read the ledger).
slo-smoke:
	$(GO) run ./cmd/benchtool -experiment slo -json .bench_slo_smoke.json >/dev/null
	diff -u BENCH_slo.json .bench_slo_smoke.json || \
		{ echo "BENCH_slo.json is stale; run 'make bench-slo' to regenerate"; rm -f .bench_slo_smoke.json; exit 1; }
	rm -f .bench_slo_smoke.json

# Same contract for the update-train artifact: the eager-vs-lazy
# transformation sweep and the train scenarios (chain, mid-chain
# rollback, update-during-update) run in deterministic virtual time and
# must reproduce BENCH_train.json byte-for-byte (regenerate with
# `make bench-train`; see docs/OBSERVABILITY.md for the lazy-transform
# counter vocabulary).
train-smoke:
	$(GO) run ./cmd/benchtool -experiment train -json .bench_train_smoke.json >/dev/null
	diff -u BENCH_train.json .bench_train_smoke.json || \
		{ echo "BENCH_train.json is stale; run 'make bench-train' to regenerate"; rm -f .bench_train_smoke.json; exit 1; }
	rm -f .bench_train_smoke.json

# Same contract for the virtual-clock profiler artifact: the duo /
# fleet / sweep attribution scenarios charge every scheduler slice to a
# label stack in virtual time, so BENCH_profile.json must reproduce
# byte-for-byte (regenerate with `make bench-profile`; see
# docs/OBSERVABILITY.md for the profiler vocabulary and
# docs/PERFORMANCE.md for how to read the tables).
profile-smoke:
	$(GO) run ./cmd/benchtool -experiment profile -json .bench_profile_smoke.json >/dev/null
	diff -u BENCH_profile.json .bench_profile_smoke.json || \
		{ echo "BENCH_profile.json is stale; run 'make bench-profile' to regenerate"; rm -f .bench_profile_smoke.json; exit 1; }
	rm -f .bench_profile_smoke.json

# Sharded-runtime determinism smoke: the sharddet experiment runs two
# duo-update lifecycles on two parallel shards with a cross-shard
# trigger; two full runs must serialize byte-identically. This is the
# OS-interleaving-independence gate for the parallel runtime (the same
# property the sim run-twice tests pin under -race above).
shard-determinism:
	$(GO) run ./cmd/benchtool -experiment sharddet -json .bench_sharddet_a.json >/dev/null
	$(GO) run ./cmd/benchtool -experiment sharddet -json .bench_sharddet_b.json >/dev/null
	diff -u .bench_sharddet_a.json .bench_sharddet_b.json || \
		{ echo "sharded runtime is nondeterministic across runs"; rm -f .bench_sharddet_a.json .bench_sharddet_b.json; exit 1; }
	rm -f .bench_sharddet_a.json .bench_sharddet_b.json

# Regenerate the committed flight-recorder artifact.
bench-metrics:
	$(GO) run ./cmd/benchtool -experiment metrics -json BENCH_metrics.json >/dev/null

# Regenerate the committed perf-trajectory baseline.
bench-perf:
	$(GO) run ./cmd/benchtool -experiment perf -json BENCH_perf.json >/dev/null

# Regenerate the committed span-tracing baseline.
bench-timeline:
	$(GO) run ./cmd/benchtool -experiment timeline -json BENCH_timeline.json >/dev/null

# Regenerate the committed N-variant fleet baseline.
bench-nvariant:
	$(GO) run ./cmd/benchtool -experiment nvariant -json BENCH_nvariant.json >/dev/null

# Regenerate the committed availability-ledger baseline.
bench-slo:
	$(GO) run ./cmd/benchtool -experiment slo -json BENCH_slo.json >/dev/null

# Regenerate the committed update-train baseline.
bench-train:
	$(GO) run ./cmd/benchtool -experiment train -json BENCH_train.json >/dev/null

# Regenerate the committed virtual-clock profiler baseline.
bench-profile:
	$(GO) run ./cmd/benchtool -experiment profile -json BENCH_profile.json >/dev/null

# Regenerate every committed BENCH_*.json artifact in one sweep.
bench-all: bench-metrics bench-perf bench-timeline bench-nvariant bench-slo bench-train bench-profile

# Ring microbenchmarks with allocation accounting (docs/PERFORMANCE.md).
bench-ring:
	$(GO) test -bench . -benchmem ./internal/ringbuf/

# Scheduler hot-path microbenchmarks: dispatch, enqueue, task
# spawn/exit, timer fire,
# plus the sharded epoch barrier and cross-shard send
# (docs/PERFORMANCE.md "Sharded runtime").
bench-sched:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/

# One testing.B bench per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem .

# Regenerate the paper's evaluation artifacts (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/benchtool -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/kvupdate
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/ftprules

clean:
	$(GO) clean -testcache
