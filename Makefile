# Convenience targets; everything is plain go-tool underneath.

GO ?= go

# The committed BENCH_<name>.json artifacts, one benchtool experiment
# each, and the subset whose smoke check is a plain byte diff.
ARTIFACTS := metrics perf timeline nvariant slo train profile
BYTE_DIFF_ARTIFACTS := nvariant slo train profile

.PHONY: all build test vet fmt-check check lint-maps adapter-compat $(ARTIFACTS:%=%-smoke) shard-determinism bench $(ARTIFACTS:%=bench-%) bench-all bench-ring bench-replay bench-sched bench-floor bench-fork experiments examples clean

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
check: vet fmt-check lint-maps adapter-compat
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/ringbuf/ ./internal/mve/ ./internal/vos/ ./internal/apps/kvstore/
	$(MAKE) $(ARTIFACTS:%=%-smoke) shard-determinism

# Map-iteration determinism sweep: flag `for range` over maps in the
# determinism-critical packages unless the site carries a `maporder:`
# comment explaining why its order cannot leak into execution.
lint-maps:
	$(GO) test -run TestMapRangeDeterminism ./internal/detlint/

# The frozen benchmark adapter (benchmark/adapter.go) is a nested module
# `go build ./...` never sees: vet and test it here, so a rename that
# breaks it fails tier-1 locally instead of in the pipeline's benchmark
# step. Reads benchmark/, changes nothing there.
adapter-compat:
	cd benchmark && $(GO) vet . && $(GO) test .

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

# Same contract for the artifacts that are deterministic end to end, one
# static pattern rule over BYTE_DIFF_ARTIFACTS: the experiment must
# reproduce BENCH_<name>.json byte-for-byte (regenerate with
# `make bench-<name>`; `benchtool -list` says what each experiment pins,
# docs/OBSERVABILITY.md and docs/PERFORMANCE.md how to read it). The duo
# experiments above double as the K=1 byte-identity gate: fleet and ring
# refactors must leave BENCH_metrics.json, BENCH_perf.json and
# BENCH_timeline.json byte-for-byte unchanged.
$(BYTE_DIFF_ARTIFACTS:%=%-smoke): %-smoke:
	$(GO) run ./cmd/benchtool -experiment $* -json .bench_$*_smoke.json >/dev/null
	diff -u BENCH_$*.json .bench_$*_smoke.json || \
		{ echo "BENCH_$*.json is stale; run 'make bench-$*' to regenerate"; rm -f .bench_$*_smoke.json; exit 1; }
	rm -f .bench_$*_smoke.json

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

# Regenerate one committed BENCH_<name>.json artifact (bench-metrics,
# bench-perf, ...), or every one in a single sweep.
$(ARTIFACTS:%=bench-%): bench-%:
	$(GO) run ./cmd/benchtool -experiment $* -json BENCH_$*.json >/dev/null

bench-all: $(ARTIFACTS:%=bench-%)

# Ring microbenchmarks with allocation accounting (docs/PERFORMANCE.md).
bench-ring:
	$(GO) test -bench . -benchmem ./internal/ringbuf/

# Record/replay microbenchmarks: one leader syscall recorded and
# validated by every follower, plus the per-thread event queue under a
# backlog; the B/op and allocs/op columns are the point
# (docs/PERFORMANCE.md "Record/replay path").
bench-replay:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/mve/

# Syscall-floor microbenchmarks: one intercepted call (echo, file chunk,
# epoll_wait) and one kvstore request under a single-leader monitor over
# a real kernel; the B/op and allocs/op columns are the point
# (docs/PERFORMANCE.md "Syscall floor").
bench-floor:
	$(GO) test -bench SyscallFloor -benchmem -run '^$$' ./internal/vos/ ./internal/apps/kvstore/

# kvstore's store at 5 k, 50 k and 500 k keys: Fork must read flat down
# the column in time and bytes; Get, PutNew and Preload are what the
# request path and set-up pay for that (docs/PERFORMANCE.md "Fork: shared
# until written").
bench-fork:
	$(GO) test -bench 'Fork|Preload|Store' -benchmem -run '^$$' ./internal/apps/kvstore/

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
