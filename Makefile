# Plug-and-Play architectural design and verification.

GO ?= go

.PHONY: all build test test-short race bench bench-json experiments matrix verify-examples loc no-deprecated clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/faults/... ./internal/pnprt/... ./internal/obs/tracing/
	$(GO) test -race ./internal/bridge/ -run Runtime
	$(GO) test -race ./internal/blocks/ ./internal/verifyd/ -run 'Concurrent|Cache'
	$(GO) test -race ./internal/artifact/ ./internal/adl/
	$(GO) test -race -short ./internal/checker/ ./internal/model/
	$(GO) test -race ./internal/verifyd/ -run 'Budget|ServiceJob|Trace'
	$(GO) test -race -short ./internal/sweep/ ./internal/verifyd/client/
	$(GO) test -race ./internal/cluster/

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark records (name, ns/op, states/s) for the
# experiment benchmarks E8-E17, the verification-service cache, the
# fault-injection middleware overhead, the PR4 parallel-search scaling
# rows (ParallelSafety worker sweep + the sharded visited set vs the
# sequential map), the PR5 sweep-engine rows (cold in-process sweep
# vs fully cache-served re-sweep, plus spec expansion), the PR6
# tracing rows (span overhead with the recorder enabled vs the nil
# recorder's disabled path), the PR7 cluster rows (hash-ring lookup and
# the coordinator's per-job routing overhead), the PR9 visited-set
# storage rows (bytes/state for exact vs collapse-compressed vs
# spill-forced storage, on the micro workload and on the E9 bridge),
# and the PR10 incremental-recompile rows (cold modular compile vs a
# one-connector edit against a warm artifact store vs full reuse, with
# modules_compiled/modules_reused reported per row).
bench-json:
	($(GO) test -run '^$$' -bench 'E8|E9|E10|E11|E12|E13|E15|POR|VerifydCache|FaultMiddleware|ParallelSafety|ShardedVisitedBridge' -benchtime 1x . && \
	 $(GO) test -run '^$$' -bench 'ShardedVisited' -benchtime 1x ./internal/checker/ && \
	 $(GO) test -run '^$$' -bench 'SweepInProcess|SweepCacheReuse|ExpandMatrix' -benchtime 1x ./internal/sweep/ && \
	 $(GO) test -run '^$$' -bench 'SpanOverhead' -benchtime 1000x ./internal/obs/tracing/ && \
	 $(GO) test -run '^$$' -bench 'HashRing|ClusterRouteOverhead' -benchtime 1000x ./internal/cluster/ && \
	 $(GO) test -run '^$$' -bench 'IncrementalRecompile' -benchtime 1x ./internal/adl/) \
		| $(GO) run ./internal/tools/benchjson > BENCH_PR10.json
	@echo wrote BENCH_PR10.json

# Regenerate every EXPERIMENTS.md table.
experiments:
	$(GO) run ./cmd/pnpbridge
	$(GO) run ./cmd/pnpmatrix

matrix:
	$(GO) run ./cmd/pnpmatrix

verify-examples:
	$(GO) run ./cmd/pnpverify examples/adl/pingpong.pnp
	$(GO) run ./cmd/pnpverify examples/adl/bridge.pnp
	-$(GO) run ./cmd/pnpverify -bfs examples/adl/bridge-broken.pnp
	-$(GO) run ./cmd/pnpverify examples/adl/lossy.pnp

# Non-test Go lines outside bench/ — the figure the "one of each"
# table in DESIGN.md tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1

# A deprecated alias is a second spelling of something: fail when one
# appears outside test files, so it cannot come back unnoticed.
no-deprecated:
	@if grep -rn 'Deprecated:' --include='*.go' . | grep -v '_test\.go:'; then \
		echo "deprecated aliases found: delete them or their callers' need for them"; exit 1; \
	fi

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
