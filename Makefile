GO ?= go

.PHONY: all build fmt vet test bench-test race race-engine race-cache race-obs race-ops race-load race-columnar race-cluster bench bench-insights bench-load bench-columnar smoke-load smoke-cluster fuzz-cache lint-handlers ci

all: ci

build:
	$(GO) build ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The service benchmark (perfbench/) is a Go module of its own, so the
# root `go test ./...` neither builds nor tests it; this target does, so
# a change to a type it compiles against fails here rather than only at
# benchmark time.
bench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The engine suite under the race detector: the parallel operators
# (morsel scans, partitioned joins, parallel sorts/aggregates) must be
# provably data-race free at every degree of parallelism.
race-engine:
	$(GO) test -race ./internal/engine/...

# The cache suites under the race detector: query goroutines racing
# mutation goroutines must never observe a stale cached result (see
# README "Result caching"), readers of a dataset must not race its appends,
# and rows forwarded from the tables' clustered slices through append
# chains must never be written.
race-cache:
	$(GO) test -race -run 'Cache|Version|Preview|Subplan|Subquery|AppendChain|DatasetSnapshotRace' ./internal/catalog/... ./internal/qcache/... ./internal/engine/... .

# The observability suites under the race detector: concurrent metric
# registration, span creation from job goroutines racing finalization,
# trace-store retention, per-user usage meters.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/server/...

# The live-operations suites under the race detector: kill racing a DOP>1
# execution (registry, engine cancellation, worker-pool drain) and the
# memory-accounting counters published from parallel workers.
race-ops:
	$(GO) test -race -run 'Kill|MemLimit|MaxQueryBytes|Progress|Cancel|Registry|Health|Overload' ./internal/ops/... ./internal/engine/... ./internal/server/...

# The load-harness suites under the race detector: the open-loop
# dispatcher, worker pool, latency recorder, and metrics sampler all
# share state across goroutines.
race-load:
	$(GO) test -race ./internal/loadgen/...

# The columnar suites under the race detector: vectorized scans at DOP>1
# share segment snapshots across workers, mutations invalidate segments
# lazily against concurrent columnar reads, and the corpus differential
# replays the synthetic workload vectorized at parallelism 8.
race-columnar:
	$(GO) test -race -run 'Columnar|Vectorized|Segment|ZoneMap|InsertMerge|ScanTaskLayout|Dictionary|RowSize' ./internal/engine/... ./internal/storage/... .

# The cluster suites under the race detector: the failover crash matrix
# (primary killed at every replication-record boundary and mid-record),
# the router's concurrent map refresh/watermark/scatter-gather paths, and
# the WAL-shipping follower applying records against concurrent reads.
race-cluster:
	$(GO) test -race ./internal/cluster/... ./internal/repl/...

# Grep lint: every HTTP handler must be served through the middleware
# that records the request-duration histogram (see the script header).
lint-handlers:
	sh scripts/lint_http_metrics.sh

# A short fuzz pass over the cache-key codec: round-trips and
# injectivity across (user, sql, maxRows, version-vector) tuples.
fuzz-cache:
	$(GO) test -run '^$$' -fuzz FuzzCacheKey -fuzztime 30s ./internal/qcache/

# The benchmarks behind BENCH_obs.json (see README "Observability").
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQuerySeekVsScan|BenchmarkViewChainDepth|BenchmarkPreviewVsQuery|BenchmarkPlanExtraction' -benchtime 200ms -count 3 .

# The benchmark behind BENCH_insights.json: history-recording overhead on
# the point-query fast path.
bench-insights:
	$(GO) test -run '^$$' -bench BenchmarkHistoryRecordingOverhead -benchtime 300ms -count 5 .

# The benchmark behind BENCH_load.json: a ramp of offered-load levels
# replayed open-loop against a self-hosted server, per-template latency
# quantiles measured from scheduled start (see README "Load testing").
bench-load:
	$(GO) run ./cmd/loadgen -levels 1,2,4 -out BENCH_load.json
	@cat BENCH_load.json

# The columnar gate: row-at-a-time vs vectorized execution of scan- and
# aggregate-heavy queries at DOP 1, byte-identity verified per query;
# fails unless scan-heavy >= 3x, agg-heavy >= 2x and zone maps skipped a
# segment (see README "Columnar storage").
bench-columnar:
	$(GO) test -count=1 -run '^TestColumnarSpeedupFloor$$' -v .

# The CI load-smoke gate: a tiny join-heavy workload against an
# in-process server, ~10s wall clock; fails unless ops completed with
# zero 5xx and the sqlshare_overload_* gauges moved under load.
smoke-load:
	$(GO) run ./cmd/loadgen -smoke -out /tmp/BENCH_load_smoke.json

# The CI cluster-smoke gate: a 3-node in-process cluster behind the
# router serving a loadgen workload through two rolling primary kills
# (demote -> drain -> promote -> repoint); fails on any HTTP 5xx or any
# acknowledged write missing from the final dataset listing.
smoke-cluster:
	$(GO) run ./cmd/clustersmoke -ops 200 -rate 40 -kills 2

ci: fmt vet build lint-handlers race
