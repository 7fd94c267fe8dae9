GO ?= go

.PHONY: check surface reach vet build test race test-race soak serve-soak bench bench-kernel bench-vector bench-serve bench-smoke bench-adaptive bench-shard adaptive-race serve-race shard-race fuzz tidy staticcheck trace-demo trace-e2e

# Tier-1 gate: everything a PR must keep green. staticcheck rides along but
# skips itself when the binary is absent. Nothing here rewrites a tracked
# file (bench-serve does, so it stays a manual target): CI checks the tree
# is clean afterwards.
check: vet staticcheck build test race serve-race trace-e2e bench-smoke adaptive-race shard-race

# The size numbers ROADMAP's "quality of design" aim is measured by, printed
# rather than recounted by hand: exported methods on DB and Session, exported
# fields on the five structs a query's knobs are set on, all No* switch
# fields, the enrichment write path (exported enrich.Manager methods, and
# calls of the storage write-back outside storage and shard), the methods
# of storage.Relation (the read surface queries execute against), and
# non-test Go lines outside benchmark/.
CONFIG_STRUCTS := enrichdb.go:DB progressive.go:ProgressiveOptions internal/progressive/run.go:Config \
	internal/loose/driver.go:Driver internal/tight/driver.go:Driver
surface:
	@echo "exported DB+Session methods: $$(grep -hE '^func \([a-z]+ \*(DB|Session)\) [A-Z]' $$(ls *.go | grep -v _test.go) | wc -l)"
	@echo "config struct fields:        $$(for fs in $(CONFIG_STRUCTS); do \
		awk -v t="$${fs#*:}" '$$0 ~ "^type " t " struct" {f = 1; next} f && /^}/ {f = 0} f && /^\t[A-Z][A-Za-z0-9]* /' $${fs%%:*}; \
	done | wc -l)"
	@echo "No* bool fields:             $$(grep -rhE '^[[:space:]]+No[A-Z][A-Za-z]*[[:space:]]+bool' --include='*.go' --exclude-dir=benchmark . | wc -l)"
	@echo "exported enrich.Manager methods: $$(grep -hE '^func \(m \*Manager\) [A-Z]' $$(ls internal/enrich/*.go | grep -v _test.go) | wc -l)"
	@echo "derived write-back call sites: $$(grep -rhF '.WriteDerived(' --include='*.go' --exclude='*_test.go' --exclude-dir=storage --exclude-dir=shard --exclude-dir=benchmark . | wc -l)"
	@echo "storage.Relation methods:    $$(awk '/^type Relation interface/ {f = 1; next} f && /^}/ {f = 0} f && /^\t[A-Z]/' internal/storage/db.go | wc -l)"
	@echo "non-test Go lines:           $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"

# Reachability report: the non-test statements no owner runs, per package,
# every wholly unreached function and one total. The owners are the eight
# benchmark workloads (traced, 2 s each), `benchrunner -exp all`,
# the examples, the harness test binary and the REPL session in
# cmd/enrichdb/testdata/reach.txt; a path no owner reaches is a candidate
# to delete. Everything it builds and writes stays in a temp dir.
reach:
	@GO="$(GO)" sh scripts/reach.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short race pass over the concurrency-heavy packages: the enrichment
# worker pool, the RPC transport, shared enrichment state, the telemetry
# registry/tracer they all publish into, the chaos tests that hammer them,
# the serving layer (sessions, admission control), the concurrent workload
# harness that verifies it, the tight and progressive executors, which read
# tuple enrichment marks while write-backs set them, the IVM view, and the ml
# models, which enrichment workers call concurrently.
race:
	$(GO) test -race . ./internal/loose/... ./internal/enrich/... ./internal/faultinject/... ./internal/telemetry/... ./internal/storage/... ./internal/harness/... ./internal/engine/... ./internal/expr/... ./internal/tight/... ./internal/ivm/... ./internal/progressive/... ./internal/ml/...

# Full concurrency gate: vet, then the concurrency/chaos/equivalence suites
# under the race detector, twice (-count=2 defeats the test cache and shakes
# out order-dependent races). Covers the worker pool and singleflight
# (enrich), the batch transport and chaos tests (loose, faultinject), the
# micro-batching runtime (tight), the view lock (ivm), and the Workers
# equivalence battery (progressive).
test-race: vet
	$(GO) test -race -count=2 \
		. \
		./internal/enrich/... \
		./internal/loose/... \
		./internal/faultinject/... \
		./internal/tight/... \
		./internal/ivm/... \
		./internal/storage/... \
		./internal/progressive/... \
		./internal/telemetry/... \
		./internal/harness/... \
		./internal/engine/... \
		./internal/expr/...

# Pinned-seed soak of the serving workload: N seconds of harness iterations
# under the race detector, every iteration checked by both oracles.
# Override: make soak SOAK_SECONDS=60
SOAK_SECONDS ?= 10
soak:
	HARNESS_SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -race -count=1 -run TestSoak -timeout $$(( $(SOAK_SECONDS) + 120 ))s ./internal/harness

# Race pass over the serving tier: the wire codec, the TCP server and its
# chaos matrix (half-open peers, slowloris handshakes, abrupt disconnects,
# kill-during-stream, drain under load), the wire client, and the tenant
# admission tests in the root package.
serve-race:
	$(GO) test -race -count=1 ./internal/wire/... ./internal/server/... ./internal/testutil/... \
		&& $(GO) test -race -count=1 -run 'TestTenant|TestPriority|TestAdmission|TestSessionTenant|TestQuotaRelease' . \
		&& $(GO) test -race -count=1 -run TestRemoteDrainUnderLoad ./internal/loose/remote

# Pinned-seed network soak: the serving chaos matrix and drain battery loop
# under the race detector for N seconds. Override: make serve-soak SOAK_SECONDS=60
serve-soak:
	$(GO) test -race -count=$$(( $(SOAK_SECONDS) / 5 + 1 )) -timeout $$(( $(SOAK_SECONDS) + 300 ))s \
		-run 'TestChaos|TestDrainUnderLoad' ./internal/server

# Sharded equivalence battery and the shard package's partition/store/merge
# suites under the race detector: byte-identical sharded≡unsharded output,
# routing and the Seq-ascending merge invariant.
shard-race:
	$(GO) test -race -count=1 -run 'TestShardEquivalence' . \
		&& $(GO) test -race -count=1 ./internal/shard/...

# Short fuzz pass over the SQL parser (no panics; print/parse round-trip),
# the wire-protocol frame codec (decode/encode round-trip, truncation and
# mutation safety, seeded from the checked-in corpus), and the shard router
# (hash totality and determinism, ±0.0 and NaN parity with the engine
# hasher).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/sqlparser
	$(GO) test -fuzz FuzzFrame -fuzztime 30s ./internal/wire
	$(GO) test -fuzz FuzzPartition -fuzztime 30s ./internal/shard

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# One-iteration pass over the kernel, vector and adaptive benchmarks: proves
# the bench harness still compiles and runs without paying full measurement
# time.
bench-smoke:
	$(GO) test -bench '^Benchmark(Kernel|Vector|Adaptive)' -benchtime 1x -run '^$$' ./internal/bench

# Re-measure the execution-kernel microbenchmarks and fold the numbers into
# BENCH_kernel.json under the "current" label (the committed "baseline" label
# captures the pre-slab, string-keyed implementation).
# Each benchmark runs in its own process with a fixed iteration count, so
# the benchmark function executes exactly once. Anything else contaminates
# the large benches: in a shared process (or across `-benchtime 1s` N
# escalations, which re-invoke the function and rebuild the table) the
# 1M-row benches inherit heap history and GC pacing from earlier tables and
# measure several times slower than their true isolated cost.
KERNEL_BENCHES := \
	'^BenchmarkKernelScan$$/^10k$$=1000x' \
	'^BenchmarkKernelScan$$/^100k$$=50x' \
	'^BenchmarkKernelScan$$/^1M$$=5x' \
	'^BenchmarkKernelFilter$$/^10k$$=1000x' \
	'^BenchmarkKernelFilter$$/^100k$$=50x' \
	'^BenchmarkKernelFilter$$/^1M$$=5x' \
	'^BenchmarkKernelHashJoin$$/^10k$$=300x' \
	'^BenchmarkKernelHashJoin$$/^100k$$=20x' \
	'^BenchmarkKernelSemiJoin$$/^10k$$=1000x' \
	'^BenchmarkKernelSemiJoin$$/^100k$$=100x' \
	'^BenchmarkKernelIVMApply$$=500x'

bench-kernel:
	@$(GO) test -c -o .bench-kernel.test ./internal/bench
	@{ for p in $(KERNEL_BENCHES); do \
		./.bench-kernel.test -test.run '^$$' -test.bench "$${p%=*}" \
			-test.benchtime "$${p##*=}" -test.benchmem || exit 1; \
	done; } | $(GO) run ./cmd/benchjson -label current -out BENCH_kernel.json
	@rm -f .bench-kernel.test

# Re-measure the vectorized-execution benchmarks and record both code paths
# into BENCH_vector.json: the "rowpath" label runs every benchmark with
# BENCH_NOVECTOR=1 (row-at-a-time execution), the "vector" label runs the
# columnar batch path — same tasks, same machine, back to back. Same
# process-isolation discipline as bench-kernel.
VECTOR_BENCHES := \
	'^BenchmarkVectorScan$$/col/^10k$$=500x' \
	'^BenchmarkVectorScan$$/col/^100k$$=50x' \
	'^BenchmarkVectorScan$$/col/^1M$$=5x' \
	'^BenchmarkVectorScan$$/wide/^10k$$=500x' \
	'^BenchmarkVectorScan$$/wide/^100k$$=50x' \
	'^BenchmarkVectorScan$$/wide/^1M$$=5x' \
	'^BenchmarkVectorFilter$$/^10k$$=500x' \
	'^BenchmarkVectorFilter$$/^100k$$=50x' \
	'^BenchmarkVectorFilter$$/^1M$$=5x' \
	'^BenchmarkVectorFilterExec$$/^10k$$=500x' \
	'^BenchmarkVectorFilterExec$$/^100k$$=50x' \
	'^BenchmarkVectorFilterExec$$/^1M$$=5x'

bench-vector:
	@$(GO) test -c -o .bench-vector.test ./internal/bench
	@{ for p in $(VECTOR_BENCHES); do \
		BENCH_NOVECTOR=1 ./.bench-vector.test -test.run '^$$' -test.bench "$${p%=*}" \
			-test.benchtime "$${p##*=}" -test.benchmem || exit 1; \
	done; } | $(GO) run ./cmd/benchjson -label rowpath -out BENCH_vector.json \
		-note "Vectorized scan/filter vs the row path, same tasks back to back; regenerate with \`make bench-vector\`."
	@{ for p in $(VECTOR_BENCHES); do \
		./.bench-vector.test -test.run '^$$' -test.bench "$${p%=*}" \
			-test.benchtime "$${p##*=}" -test.benchmem || exit 1; \
	done; } | $(GO) run ./cmd/benchjson -label vector -out BENCH_vector.json
	@rm -f .bench-vector.test

# Serving-tier load benchmark: the load generator drives an in-process wire
# server with SERVE_CONNS concurrent connections across mixed tenants and
# folds p50/p95/p99/mean/throughput into BENCH_serve.json. The committed
# numbers were recorded with SERVE_CONNS=1000 SERVE_SECONDS=5s; the default
# here is scaled down so `make check` stays fast.
SERVE_CONNS ?= 200
SERVE_SECONDS ?= 2s
bench-serve:
	$(GO) run ./cmd/loadgen -conns $(SERVE_CONNS) -duration $(SERVE_SECONDS) -rows 256 \
		| $(GO) run ./cmd/benchjson -label current -out BENCH_serve.json \
		-note "Wire-protocol serving-tier load test (loadgen): query latency percentiles and mean inter-completion gap; regenerate with \`make bench-serve\` (headline label: SERVE_CONNS=1000 SERVE_SECONDS=5s)."

# Re-measure the adaptive-optimization benchmarks into BENCH_adaptive.json:
# the TTQ sub-benchmarks run the same skewed-cost progressive workload under
# the static SB(RO)/SB(FO) orders and the Adaptive strategy, so the recorded
# ns/op values are the headline comparison. Fixed iteration counts for stable
# numbers; ns/op is the measured time-to-F1-target, excluding env
# construction.
ADAPTIVE_BENCHES := \
	'^BenchmarkAdaptiveTTQ$$/SBRO=5x' \
	'^BenchmarkAdaptiveTTQ$$/SBFO=5x' \
	'^BenchmarkAdaptiveTTQ$$/adaptive=5x'

bench-adaptive:
	@$(GO) test -c -o .bench-adaptive.test ./internal/bench
	@{ for p in $(ADAPTIVE_BENCHES); do \
		./.bench-adaptive.test -test.run '^$$' -test.bench "$${p%=*}" \
			-test.benchtime "$${p##*=}" -test.benchmem || exit 1; \
	done; } | $(GO) run ./cmd/benchjson -label current -out BENCH_adaptive.json \
		-note "Adaptive optimization (DESIGN §14): progressive time-to-F1 target under SB(RO)/SB(FO)/Adaptive strategies; regenerate with \`make bench-adaptive\`."
	@rm -f .bench-adaptive.test

# Re-measure the sharding benchmark into BENCH_shard.json: scatter-gather
# scan over 1/2/4/8 shard replicas (same rows, same filter, byte-identical
# merged output). Same process-isolation discipline as bench-kernel.
SHARD_BENCHES := \
	'^BenchmarkShardScan$$/^shards=1$$=30x' \
	'^BenchmarkShardScan$$/^shards=2$$=30x' \
	'^BenchmarkShardScan$$/^shards=4$$=30x' \
	'^BenchmarkShardScan$$/^shards=8$$=30x'

bench-shard:
	@$(GO) test -c -o .bench-shard.test ./internal/bench
	@{ for p in $(SHARD_BENCHES); do \
		./.bench-shard.test -test.run '^$$' -test.bench "$${p%=*}" \
			-test.benchtime "$${p##*=}" -test.benchmem || exit 1; \
	done; } | $(GO) run ./cmd/benchjson -label current -out BENCH_shard.json \
		-note "Sharding (DESIGN §15): scatter-gather scan scaling across shard counts; regenerate with \`make bench-shard\`."
	@rm -f .bench-shard.test

# Adaptive equivalence battery under the race detector: the byte-identical
# contract (adaptive on/off, build-side swaps, one filter observation per
# execution) and the progressive adaptive-strategy determinism grid.
adaptive-race:
	$(GO) test -race -count=1 -run 'TestAdaptive|TestProgressiveAdaptiveStrategy' ./internal/engine ./internal/progressive

tidy:
	gofmt -l -w .

# Static analysis beyond vet. Skips gracefully when the staticcheck binary
# is not installed (it is not vendored and must not be fetched by CI).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Observability demo: run the quickstart with span tracing and pretty-print
# the resulting trace, grouped by epoch.
trace-demo:
	$(GO) run ./examples/quickstart -trace /tmp/enrichdb-trace.jsonl
	$(GO) run ./cmd/tracefmt /tmp/enrichdb-trace.jsonl

# End-to-end trace gate: one sampled served query must produce a single
# JSONL trace whose span chain covers handshake → admission → plan →
# per-epoch enrich/determinize/refresh → result-stream, all under one trace
# ID, with the span summaries echoed back to the client in a Profile frame.
trace-e2e:
	$(GO) test -count=1 -run 'TestTraceE2E|TestExplainAnalyzeOverWire' ./internal/server
