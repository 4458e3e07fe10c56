# Convenience targets; everything is plain go-tool underneath.

GO ?= go

# The committed BENCH_<name>.json artifacts, one benchtool experiment
# each (`benchtool -list` says which, bench.Catalogue how each is
# validated).
ARTIFACTS := metrics perf timeline nvariant slo train profile

.PHONY: all build test vet fmt-check check lint-maps lint-exports lint-verdicts lines fuzz coverage-census adapter-compat $(ARTIFACTS:%=%-smoke) shard-determinism $(ARTIFACTS:%=bench-%) bench-all bench-ring bench-replay bench-rules bench-sched bench-floor bench-fork experiments examples clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Source-formatting gate: gofmt must have nothing to rewrite.
fmt-check:
	@out="$$(gofmt -l *.go cmd internal examples)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Tier-1 verification: vet plus the full suite under the race detector
# — which exercises the watchdog/monitor task interplay AND the sharded
# runtime's parallel epoch paths (shards run on real OS threads; the
# run-twice property tests execute under -race here) — then the
# artifact gate.
check: vet fmt-check lint-maps lint-exports lint-verdicts adapter-compat
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	$(GO) run ./cmd/benchtool -check .

# Map-iteration determinism sweep: flag `for range` over maps in the
# determinism-critical packages unless the site carries a `maporder:`
# comment explaining why its order cannot leak into execution.
lint-maps:
	$(GO) test -run TestMapRangeDeterminism ./internal/detlint/

# Test-only code sweep: a function, method or exported identifier of any
# package under internal/ (detlint and integration aside) that
# no non-test file of the repo references — the nested benchmark module
# included — and that implements no interface method production calls,
# fails unless the allowlist in the test names it with a reason. So does
# a struct field there that no non-test file reads: one only assigned,
# stepped or set in a literal.
lint-exports:
	$(GO) test -run 'TestNoTestOnlyExports|TestNoUnreadFields' ./internal/detlint/

# One judge for every fault run: a row of the faults, chaos or nvariant
# experiment declares its outcome and apptest.World.Judge decides it, so
# reading the controller's timeline or matching text in these files
# could only be a second verdict check. And one typed lifecycle record:
# non-test code tells timeline entries apart by core.Event.Kind, never by
# matching their note text (printing a note is fine), and reads no stage
# or verdict out of a flight-recorder milestone's Actor or Detail text:
# no comparison with a non-empty literal on either side, no strings.*
# call on the field, no switch on it. A field first copied into a local
# variable, or matched with regexp, is not caught. And spans are output:
# non-test code reads Recorder.Spans() only in the exporter
# (obs/mergedtrace.go) and for the timeline report's span count, so no
# figure can depend on whether span tracing was on. Milestones are output
# too: non-test code reads Recorder.Milestones() only where it prints
# them (the exporter, the metrics and sharddet reports, the CLI), since
# the bounded list drops entries past its cap; a fault's time comes from
# chaos.Plan's firings. And identity travels by reference: non-test code
# never compares or prefix-matches a task name (CrashInfo.Task, or any
# Name() result; detlint's go/types names aside), so a crash finds its
# process by CrashInfo.Owner and a stall or verdict carries its *mve.Proc.
lint-verdicts:
	@if grep -nE 'Timeline\(\)|strings\.(Contains|HasPrefix)' internal/bench/chaos.go internal/bench/faults.go internal/bench/nvariantreport.go; then \
		echo "a verdict check outside the judge (apptest.World.Judge)"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' 'strings\.(Contains|HasPrefix|HasSuffix|Index)\([^)]*\.Note\b' internal cmd examples; then \
		echo "timeline entries classified by note text: read core.Event.Kind"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.(Actor|Detail) *(==|!=) *"[^"]|[^"]" *(==|!=) *[][A-Za-z0-9_.()]*\.(Actor|Detail)\b|strings\.[A-Za-z]+\([^)]*\.(Actor|Detail)\b|switch [^{]*\.(Actor|Detail)\b[^{]*\{' internal cmd examples; then \
		echo "a milestone's text compared with a literal: the lifecycle is core.Controller.Timeline"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.Spans\(\)' internal cmd examples | grep -vE '^internal/(obs/mergedtrace|bench/timelinereport)\.go:'; then \
		echo "spans read back as input: only the exporter and the timeline's span count read Recorder.Spans"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.Milestones\(\)' internal cmd examples | grep -vE '^(internal/(obs/mergedtrace|bench/obsreport|bench/shardreport)\.go|cmd/[a-z]+/[a-z_]+\.go):'; then \
		echo "milestones read back as input: only the exporter, the metrics and sharddet reports and the CLI read Recorder.Milestones"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.(Task|Name\(\)) *(==|!=)|(==|!=) *[][A-Za-z0-9_.()]*\.(Task\b|Name\(\))|strings\.[A-Za-z]+\([^)]*\.(Task\b|Name\(\))|switch [^{]*\.(Task\b|Name\(\))' internal cmd examples | grep -v '^internal/detlint/'; then \
		echo "a task name compared: names are display-only; a crash's process is CrashInfo.Owner"; exit 1; fi

# Non-test and test lines of Go per package directory: the table a
# simplicity PR quotes before and after. Reads benchmark/, changes
# nothing there.
lines:
	@printf '%-24s %8s %8s\n' package non-test test; \
	for d in . cmd/* internal/* internal/apps/* benchmark; do \
		ls $$d/*.go >/dev/null 2>&1 || continue; \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs -r cat | wc -l); \
		t=$$(ls $$d/*_test.go 2>/dev/null | xargs -r cat | wc -l); \
		printf '%-24s %8d %8d\n' $$d $$n $$t; \
	done | awk '{ print; n += $$2; t += $$3 } END { printf "%-24s %8d %8d\n", "total", n, t }'

# Fuzzing, which `check` does not run (plain `go test` only replays each
# target's seed corpus): every Fuzz* target in the tree, found per package
# with `go test -list`, fuzzed for FUZZTIME each. A failing input lands in
# the package's testdata/fuzz/<target>, where plain `go test` replays it;
# the sweep goes on through the other targets and then fails.
FUZZTIME ?= 30s
fuzz:
	@fail=0; for p in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			echo "== $$p $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$p || fail=1; \
		done; \
	done; exit $$fail

# Production-coverage census, a report that `check` does not run (a few
# minutes): per package of internal/, the statements `go test` executes
# and how many of them no production entry point does. Every command,
# example and the benchmark is built with -cover; each main package must
# be in -coverpkg, or the binary silently writes no counter files. They
# run the README's demos, `benchtool -experiment all` at its smallest
# window, the artifact gate `check` runs (`benchtool -check .`) and each
# benchmark workload for one traced second. The merged
# counters are then compared block by block with the test profile.
# .census/testonly.txt is the worklist: every test-only block as
# `file:start-end statements`, then each file's total, largest first.
CENSUS := $(CURDIR)/.census
coverage-census:
	@rm -rf $(CENSUS) && mkdir -p $(CENSUS)/bin $(CENSUS)/cov
	@for m in cmd/* examples/*; do \
		$(GO) build -cover -coverpkg=mvedsua/internal/...,mvedsua/$$m -o $(CENSUS)/bin/ ./$$m || exit 1; \
	done
	@cd benchmark && $(GO) build -cover -coverpkg=mvedsua/internal/...,mvedsua/benchmark -o $(CENSUS)/bin/ .
	@(set -e; export GOCOVERDIR=$(CENSUS)/cov; b=$(CENSUS)/bin; \
	for e in quickstart; do $$b/$$e; done; \
	for a in tkv redis memcached vsftpd; do $$b/mvedsua -app $$a; done; \
	for f in newcode xform stall; do $$b/mvedsua -app redis -fault $$f; done; \
	for f in xform timing; do $$b/mvedsua -app memcached -fault $$f; done; \
	$$b/mvedsua -app redis -report $(CENSUS)/report; \
	$$b/benchtool -experiment all -window 1ms; \
	$$b/benchtool -check .; \
	$$b/benchtool -experiment timeline -perfetto $(CENSUS)/timeline.json; \
	for w in $$($$b/benchmark -list | awk '{ print $$1 }'); do \
		$$b/benchmark --workload $$w --seconds 1 --trace $(CENSUS)/trace/$$w; \
	done) >$(CENSUS)/runs.log 2>&1 || { echo "a production run failed: see $(CENSUS)/runs.log"; exit 1; }
	@$(GO) tool covdata textfmt -i=$(CENSUS)/cov -o $(CENSUS)/prod.out
	@$(GO) test -coverpkg=mvedsua/internal/... -coverprofile=$(CENSUS)/test.out ./... >$(CENSUS)/test.log
	@awk -v list=$(CENSUS)/testonly.txt 'FNR == 1 { next } \
	FILENAME ~ /prod.out$$/ { if ($$3 > 0) prod[$$1] = 1; next } \
	{ n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
	END { \
		blocks = "sort -t: -k1,1 -k2,2n >" list; files = "sort -k2,2nr -k1,1 >>" list; \
		for (b in n) { p = b; sub(/\/[^\/]*$$/, "", p); sub(/^mvedsua\//, "", p); \
			s[p] += n[b]; if (b in hit) t[p] += n[b]; if (!(b in hit) || (b in prod)) continue; \
			o[p] += n[b]; f = b; sub(/:.*/, "", f); sub(/^mvedsua\//, "", f); \
			r = b; sub(/^[^:]*:/, "", r); split(r, q, /[.,]/); \
			printf "%s:%d-%d %d\n", f, q[1], q[3], n[b] | blocks; ft[f] += n[b] } \
		close(blocks); printf "\nper-file totals\n" >>list; close(list); \
		for (f in ft) printf "%s %d\n", f, ft[f] | files; close(files); \
		printf "%-24s %10s %10s %10s\n", "package", "statements", "tested", "test-only"; \
		for (p in s) { printf "%-24s %10d %10d %10d\n", p, s[p], t[p], o[p] | "sort"; S += s[p]; T += t[p]; O += o[p] } \
		close("sort"); printf "%-24s %10d %10d %10d\n", "total", S, T, O; \
		print "test-only blocks, per file: " list }' $(CENSUS)/prod.out $(CENSUS)/test.out

# The frozen benchmark adapter (benchmark/adapter.go) is a nested module
# `go build ./...` never sees: vet and test it here, so a rename that
# breaks it fails tier-1 locally instead of in the pipeline's benchmark
# step. Reads benchmark/, changes nothing there.
adapter-compat:
	cd benchmark && $(GO) vet . && $(GO) test .

# The artifact gate (bench.Experiment.Check, also tier-1's
# TestCommittedArtifacts): every experiment with a report is run in
# deterministic virtual time and must reproduce its committed
# BENCH_<name>.json byte for byte; metrics is also validated against
# obs's metric vocabulary and timeline's Chrome trace export must parse and be
# time-ordered per track. The duo experiments double as the K=1
# byte-identity gate for fleet and ring refactors. sharddet commits
# nothing: its two parallel-shard lifecycles with a cross-shard trigger
# are run twice and must serialize identically, the
# OS-interleaving-independence gate for the parallel runtime. `check`
# runs the whole gate once; these are its per-experiment aliases.
$(ARTIFACTS:%=%-smoke): %-smoke:
	$(GO) run ./cmd/benchtool -check . -experiment $*
shard-determinism:
	$(GO) run ./cmd/benchtool -check . -experiment sharddet

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
# backlog and one round trip with a flight recorder attached (the
# recorder's tax); the B/op and allocs/op columns are the point
# (docs/PERFORMANCE.md "Record/replay path").
bench-replay:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/mve/

# Rule-path microbenchmarks: one Transform of a kvstore command's window
# — a hit that forwards, a bind-then-where miss, a hit that emits
# literals, a miss at the first op — and one recorded-and-rewritten round
# trip through the monitor; the B/op and allocs/op columns are the point
# (docs/PERFORMANCE.md "Rule hits: views, a frame, moves").
bench-rules:
	$(GO) test -bench Transform -benchmem -run '^$$' ./internal/dsl/
	$(GO) test -bench RecordReplayRewritten -benchmem -run '^$$' ./internal/mve/

# Syscall-floor microbenchmarks: one intercepted call (echo, file chunk,
# epoll_wait), one kvstore request and one memcache request on a worker
# thread under a single-leader monitor over a real kernel; the B/op and
# allocs/op columns are the point (docs/PERFORMANCE.md "Syscall floor",
# "Request path").
bench-floor:
	$(GO) test -bench SyscallFloor -benchmem -run '^$$' ./internal/vos/ ./internal/apps/kvstore/ ./internal/apps/memcache/

# kvstore's store at 5 k, 50 k and 500 k keys: Fork must read flat down
# the column in time and bytes; Get, PutNew and Preload are what the
# request path and set-up pay for that (docs/PERFORMANCE.md "Fork: shared
# until written").
bench-fork:
	$(GO) test -bench 'Fork|Preload|Store' -benchmem -run '^$$' ./internal/apps/kvstore/

# Scheduler hot-path microbenchmarks: dispatch, enqueue, task
# spawn/exit, timer fire, a timed wait woken early (Memcached's bounded
# epoll_wait), plus the sharded epoch barrier, cross-shard
# send and the perf experiment's shard sweep on the wall clock
# (docs/PERFORMANCE.md "Sharded runtime"; pass -count 3 or more to
# compare shard counts).
bench-sched:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/ ./internal/bench/

# Regenerate the paper's evaluation artifacts (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/benchtool -experiment all

examples:
	$(GO) run ./examples/quickstart

clean:
	$(GO) clean -testcache
