# Plug-and-Play architectural design and verification.

GO ?= go

.PHONY: all build test test-short race bench experiments matrix verify-examples loc no-deprecated client-deps clean

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

# The typed client is safe to vendor: besides itself it may depend on
# no repo package but the wire documents and the tracing vocabulary.
client-deps:
	@deps=$$($(GO) list -deps ./internal/verifyd/client | grep '^pnp/' | \
		grep -vx -e pnp/internal/api -e pnp/internal/obs/tracing -e pnp/internal/verifyd/client); \
	if [ -n "$$deps" ]; then \
		echo "internal/verifyd/client depends on server packages:"; echo "$$deps"; exit 1; \
	fi

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
