# Development targets for the fpgarouter repository.

GO ?= go

.PHONY: all build test check chaos bench bench-json tables serve clean

all: build

build:
	$(GO) build ./...

# Tier-1 verification: what must stay green on every commit.
test:
	$(GO) build ./... && $(GO) test ./...

# Full check: build, vet, optional deep linters, and the test suite under
# the race detector (the candidate-scan workers, the pathfinder's net
# workers and the service's worker pool make -race load-bearing).
# staticcheck and fieldalignment run only when installed — the CI image
# may not ship them, and `make check` must work offline.
# perfbench/ is its own Go module, so ./... never reaches it; vetting it
# here compiles the benchmark against the packages it calls. The race run's
# -timeout replaces go test's 10-minute per-package default: on a 2-vCPU
# machine internal/service alone has taken ~9 minutes under -race, and that
# machine's speed has swung by 2.6x between runs.
check:
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet .
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v fieldalignment >/dev/null 2>&1; then \
		fieldalignment ./internal/graph/ || true; \
	else \
		echo "fieldalignment not installed; skipping (go install golang.org/x/tools/go/analysis/passes/fieldalignment/cmd/fieldalignment@latest)"; \
	fi
	$(GO) test -race -timeout 40m ./...

# Fault-injection suite (internal/faultpoint): worker panics, injected
# transient errors, deadline-interrupted searches — the daemon must
# survive and degrade gracefully, with no data races.
chaos:
	$(GO) test -race -run 'Chaos|Fault' ./...

# The benchmarks BENCH_router.json tracks, timed once (human-readable).
# scripts/bench-json.sh declares their pattern.
bench:
	$(GO) test -bench "$$(sed -n "s/^full='\(.*\)'$$/\1/p" scripts/bench-json.sh)" -benchmem -run '^$$' .

# Machine-readable benchmark results for cross-commit comparison: five
# round-robin runs of the root package's tracked benchmarks, folded into
# medians. Commit the code first, then run this and commit
# BENCH_router.json on its own, so that its git_commit names the commit
# whose code was timed.
bench-json:
	scripts/bench-json.sh BENCH_router.json

# Regenerate the paper's tables and figures (slow).
tables:
	$(GO) run ./cmd/tables -all

# Launch the routing service daemon locally (see README "Running the
# service" for the submit/status/result curl examples).
serve:
	$(GO) run ./cmd/routed -addr :8080

clean:
	$(GO) clean ./...
