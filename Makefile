# gosrb build/check entry points. `make check` is the gate every PR
# must keep green: vet, full build, and the test suite under the race
# detector (the telemetry registry is exercised concurrently, so -race
# is load-bearing, not decorative).

GO ?= go

# Build stamp: surfaces on /healthz, `srb stat` and the srb_build_info
# Prometheus gauge. Override with `make VERSION=v1.2.3 build`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X gosrb/internal/obs.Version=$(VERSION)"

.PHONY: all check lint vet build test race e2ebench-check test-faults test-repair test-wire test-stream test-phases test-mcat test-heat bench bench-obs bench-obs-gate bench-repair bench-grid bench-grid-gate bench-flight bench-flight-gate bench-wire bench-wire-gate bench-phases bench-phases-gate bench-mcat bench-mcat-gate bench-heat bench-heat-gate clean

all: check

check: lint build race e2ebench-check test-faults test-repair test-wire test-stream test-phases test-mcat test-heat bench-obs-gate bench-grid-gate bench-flight-gate bench-wire-gate bench-phases-gate bench-mcat-gate bench-heat-gate

# Static analysis: go vet always, then a pinned staticcheck. The pin
# keeps every checkout on the same analyzer; when the binary is absent
# it is installed into the repo-local bin/. The install is best-effort:
# an offline build image prints a warning and check proceeds on go vet
# alone rather than failing on a network error.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK := $(CURDIR)/bin/staticcheck

lint: vet
	@if [ ! -x "$(STATICCHECK)" ] && command -v staticcheck >/dev/null 2>&1; then \
		cp "$$(command -v staticcheck)" "$(STATICCHECK)" 2>/dev/null || true; \
	fi; \
	if [ ! -x "$(STATICCHECK)" ]; then \
		echo "installing staticcheck@$(STATICCHECK_VERSION) into bin/"; \
		mkdir -p "$(CURDIR)/bin"; \
		GOBIN=$(CURDIR)/bin $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) \
			|| echo "staticcheck install failed (offline build image?); continuing on go vet"; \
	fi; \
	if [ -x "$(STATICCHECK)" ]; then \
		echo staticcheck ./...; "$(STATICCHECK)" ./...; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark is its own module built against this one
# (replace gosrb => ../): vet and self-test it so a root-module API
# change cannot break the benchmark unnoticed.
e2ebench-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Fault-injection sweep: the resilience and faultnet suites plus the
# chaos end-to-end, repeated under -race to prove the fixed-seed fault
# schedule replays deterministically.
test-faults:
	$(GO) test -race -count=1 ./internal/resilience/ ./internal/faultnet/
	$(GO) test -race -count=10 -run 'TestChaos' ./cmd/srbd/

# Repair-engine sweep: the engine unit suite, the journaled queue and
# replication-policy catalog tests, and the restart-recovery end-to-end
# (the async chaos e2e rides test-faults' 10x TestChaos loop).
test-repair:
	$(GO) test -race -count=1 ./internal/repair/ ./internal/mcat/
	$(GO) test -race -count=1 -run 'TestRepairQueueRestartRecovery|TestHealthzWedgedRepair' ./cmd/srbd/

# Wire-protocol sweep: the mux/pool race suite and the batch-semantics
# tests, repeated under -race — the checkout/checkin and out-of-order
# demux races only surface across many interleavings. (The pipelined
# chaos e2e rides test-faults' 10x TestChaos loop.)
test-wire:
	$(GO) test -race -count=10 -run 'TestMux|TestPool' ./internal/wire/
	$(GO) test -race -count=10 -run 'TestBatcher' ./internal/client/
	$(GO) test -race -count=1 -run 'TestBulk|TestMultiGet' ./internal/server/

# Streaming data-path sweep: the DataStream framing fences and the
# server's live-stream tests, repeated under -race — a live inbound
# stream passes from the conn's reader loop to the handler goroutine and
# back, and a missed hand-off only surfaces across many interleavings.
test-stream:
	$(GO) test -race -count=10 -run 'TestDataStream|TestSendData' ./internal/wire/
	$(GO) test -race -count=10 -run 'TestStream|TestIngestCut' ./internal/server/

# Exemplar-integrity sweep: the bucket→trace-ID retention race only
# surfaces across many interleavings; 10x under -race proves tail
# exemplars never tear (a trace ID paired with another observation's
# duration) and that threshold filtering stays exact. (The pool
# checkout-wait telemetry races ride test-wire's TestPool matcher; the
# phase-attribution chaos e2e rides test-faults' 10x TestChaos loop.)
test-phases:
	$(GO) test -race -count=10 -run 'TestExemplar' ./internal/obs/

# Sharded-catalog sweep: ring routing, scatter-gather, replication and
# reshard persistence, repeated under -race — the scatter fan-out, the
# journal-observer replication feed, and the deadline-partial path are
# all cross-goroutine. (The shard failover chaos e2e rides test-faults'
# 10x TestChaos loop.)
test-mcat:
	$(GO) test -race -count=10 ./internal/mcat/shard/

# Heat-observatory sweep: the top-K sketch (Zipf recall, decay,
# concurrent writers, rollup fold, persistence) and the replication-lag
# gauge/advisor suites, repeated under -race — the sketch is written
# from every request goroutine while snapshots, folds and decays run
# concurrently, so tears only surface across many interleavings. (The
# heat chaos e2e rides test-faults' 10x TestChaos loop.)
test-heat:
	$(GO) test -race -count=10 -run 'TestHeat|TestSLOReplag' ./internal/obs/
	$(GO) test -race -count=10 -run 'TestReplagGauges|TestReplogFallback|TestAdvisor' ./internal/mcat/shard/

# Full benchmark sweep (experiments E1–E10 plus the wire and broker
# concurrency benches).
bench:
	$(GO) test -bench . -benchtime 200ms -run '^$$' .

# Instrumentation-overhead report: measures broker Put/Get with
# telemetry on vs SetMetrics(nil) and writes BENCH_obs.json so the
# overhead is tracked from this PR onward.
bench-obs:
	BENCH_OBS=1 $(GO) test -run TestObsOverheadReport -v .

# Regression fence on the committed baseline: fails when the measured
# instrumentation overhead exceeds BENCH_obs.json's overhead_pct by
# more than 5 percentage points.
bench-obs-gate:
	BENCH_OBS_GATE=1 $(GO) test -run TestObsOverheadGate -v .

# Async-replication report: measures sync vs async:1 ingest onto a
# 3-member logical resource and writes BENCH_repair.json (the async
# write path must clear 1.5x over the synchronous fan-out).
bench-repair:
	BENCH_REPAIR=1 $(GO) test -run TestRepairBenchReport -v .

# Grid-console report: measures broker Get latency under an aggressive
# rollup-capture/window-query polling loop vs idle telemetry and writes
# BENCH_grid.json — the cost ceiling of windowed stats on the hot path.
bench-grid:
	BENCH_GRID=1 $(GO) test -run TestGridBenchReport -v .

# Regression fence on the committed baseline: fails when the measured
# console-polling overhead exceeds BENCH_grid.json's overhead_pct by
# more than 5 percentage points.
bench-grid-gate:
	BENCH_GRID_GATE=1 $(GO) test -run TestGridBenchGate -v .

# Flight-recorder report: measures broker Get latency under a 2ms
# rollup-capture/journal-flush loop vs idle telemetry and writes
# BENCH_flight.json — the cost ceiling of durable telemetry on the hot
# path.
bench-flight:
	BENCH_FLIGHT=1 $(GO) test -run TestFlightBenchReport -v .

# Regression fence on the committed baseline: fails when the measured
# journal-flush overhead exceeds BENCH_flight.json's overhead_pct by
# more than 5 percentage points.
bench-flight-gate:
	BENCH_FLIGHT_GATE=1 $(GO) test -run TestFlightBenchGate -v .

# Wire-throughput report: measures serial vs pipelined vs batched
# small-op throughput over a 5ms-RTT simnet link and writes
# BENCH_wire.json.
bench-wire:
	BENCH_WIRE=1 $(GO) test -run TestWireBenchReport -v .

# Throughput floor: pipelined and batched small-op throughput must both
# clear 3x serial at the 5ms RTT.
bench-wire-gate:
	BENCH_WIRE_GATE=1 $(GO) test -run TestWireBenchGate -v .

# Phase-decomposition report: measures a traced, phase-folded broker
# get against the plain instrumented get (both cells mint a span — that
# cost pre-dates the decomposition) and writes BENCH_phases.json.
bench-phases:
	BENCH_PHASES=1 $(GO) test -run TestPhasesBenchReport -v .

# Absolute instrumentation budget: the phase stamps plus the histogram
# fold may cost at most 5% per request. Unlike the drift fences this
# bound never ratchets — the decomposition is always on in production.
bench-phases-gate:
	BENCH_PHASES_GATE=1 $(GO) test -run TestPhasesBenchGate -v .

# Sharded-catalog report: mixed register / deep-scoped query
# throughput on a monolithic catalog vs the 4-shard router and writes
# BENCH_mcat.json — the partitioning payoff is a 1/N candidate scan,
# not parallelism, so it holds on one core.
bench-mcat:
	BENCH_MCAT=1 $(GO) test -run TestMcatBenchReport -v .

# Partitioning floor: the 4-shard catalog must clear 2x monolithic
# throughput on the mixed workload.
bench-mcat-gate:
	BENCH_MCAT_GATE=1 $(GO) test -run TestMcatBenchGate -v .

# Heat-tracking report: measures a heat-tracked broker get against the
# same instrumented get with the heat tables detached and writes
# BENCH_heat.json.
bench-heat:
	BENCH_HEAT=1 $(GO) test -run TestHeatBenchReport -v .

# Absolute instrumentation budget: the hot-key sketch update plus the
# hot-object record may cost at most 5% per request. Like the phase
# fence this bound never ratchets — heat tracking is always on in
# production.
bench-heat-gate:
	BENCH_HEAT_GATE=1 $(GO) test -run TestHeatBenchGate -v .

clean:
	rm -f BENCH_obs.json BENCH_repair.json BENCH_grid.json BENCH_flight.json BENCH_wire.json BENCH_phases.json BENCH_mcat.json BENCH_heat.json
	rm -rf bin
	$(GO) clean -testcache
