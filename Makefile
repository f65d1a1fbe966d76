# Standard verify tiers. `make check` is the extended tier: vet (including
# the observability package on its own), formatting, a gate that keeps
# encoding/gob out of non-test code (the journal and database images use the
# wire codec), static analysis when
# the tools are installed (staticcheck, govulncheck — both skipped with a
# note otherwise, so the target needs no network), the full suite with
# shuffled test order, the transaction/kernel concurrency tier, the
# cross-model differential suites (in-memory and larger-than-RAM paged), the
# membership, change-capture and demand-paged-fleet chaos suites, the
# network serving tier (server + remote client), the controller's fault tier
# (deadlines, retries, breakers, shares that overlap on one backend) and the
# network fault tier (TCP backends: dropped replies, restarts, failed
# migration verbs) under the race detector, and
# per-package coverage floors on the transaction, controller, kernel,
# elastic-membership, pager, change-data-capture, serving, and client
# packages.
# `make rig-test` runs the benchmark rig's own tests (rig/ is a module of its
# own, outside `go test ./...`); `make check` includes it, so a kernel change
# that breaks the rig's oracles fails here, before the benchmark does.
# `make rig W=five_lang_mix SEED=1` runs one benchmark workload end to end.
# `make fuzz-smoke` runs each native fuzz target briefly — corpora and
# checked-in crashers also replay on every plain `go test`.

GO ?= go

# Coverage floors for the packages the verify tier guards most closely.
COVER_FLOOR := 70

.PHONY: build test check cover fuzz-smoke fmt rig rig-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check:
	$(GO) vet ./...
	$(GO) vet ./internal/obs
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	@gob=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' . | grep -v '^\./rig/'); \
	if [ -n "$$gob" ]; then \
		echo "encoding/gob imported outside tests (journal and images use the wire codec):"; \
		echo "$$gob"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi
	$(GO) test -shuffle=on ./...
	$(GO) test -race ./internal/txn ./internal/kc ./internal/core
	$(GO) test -race -run TestCrossModelDifferential ./internal/core
	$(GO) test -race -run TestCrossModelDifferentialPaged ./internal/core
	$(GO) test -race -count=2 -run TestMembershipChaos ./internal/kc
	$(GO) test -race -count=2 -run TestPagedFleetChaos ./internal/kc
	$(GO) test -race -count=2 -run TestCDCChaos ./internal/cdc
	$(GO) test -race ./internal/server ./client
	$(GO) test -race -count=3 ./internal/mbds
	$(GO) test -race -count=3 ./internal/mbdsnet
	$(GO) test -race ./...
	$(MAKE) rig-test
	$(MAKE) cover

# cover enforces the coverage floors: the transaction manager, kernel
# controller, kernel database, elastic multi-backend system, pager, wire
# codec, change-data-capture subsystem, serving tier, and remote client
# must each stay at or above COVER_FLOOR%.
cover:
	@for pkg in internal/txn internal/kc internal/kdb internal/mbds internal/pager internal/wire internal/cdc internal/server client; do \
		pct=$$($(GO) test -cover ./$$pkg | \
			sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then \
			echo "$$pkg: no coverage reported"; exit 1; \
		fi; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p>=f)?1:0}'); \
		if [ "$$ok" != 1 ]; then \
			echo "$$pkg: coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
		echo "$$pkg: coverage $$pct% (floor $(COVER_FLOOR)%)"; \
	done

# fuzz-smoke gives each native fuzz target a short live fuzzing budget. It
# finds the targets with `go test -list` per package, so a new one is never
# left out. New crashers it finds land in testdata/fuzz and then run on every plain
# `go test` as regression inputs.
FUZZ_TIME ?= 5s

fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) $$pkg; \
		done; \
	done

# rig runs one workload of the benchmark BENCHMARK.json declares (see
# rig/README.md): end-to-end metrics, every reply checked against its oracle.
W ?= five_lang_mix
SEED ?= 1

rig:
	bash rig/run.sh --workload $(W) --seed $(SEED)

rig-test:
	cd rig && $(GO) test ./...

fmt:
	gofmt -w .
