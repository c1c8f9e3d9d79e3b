GO ?= go

.PHONY: build test race race-shard race-rebuild race-tier race-coact race-file alloc-guard ftoa-exhaustive vet vet-tool lint staticcheck perfbench-check bench verify experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Builds the domain-specific analyzer suite (internal/analyzers) into a
# vettool binary and prints its path; `lint` and CI consume it via
# `go vet -vettool`.
vet-tool:
	@$(GO) build -o bin/maxembed-vet ./cmd/maxembed-vet
	@echo "$(CURDIR)/bin/maxembed-vet"

# maxembed's own invariants: injected clocks in the deterministic core,
# typed atomics, pool discipline, no blocking work under mutexes, no
# fresh root contexts on the request path (see DESIGN.md §14).
lint:
	$(GO) build -o bin/maxembed-vet ./cmd/maxembed-vet
	$(GO) vet -vettool=$(CURDIR)/bin/maxembed-vet ./...

# Runs staticcheck when it is on PATH (CI installs it; local toolchains
# may not have it) and is a no-op with a notice otherwise.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# The multi-device fault and hot-swap seams, explicitly and repeatedly under
# the race detector: shard fault isolation, the striped-array serving path,
# and the array hot-swap-under-load hammer. `race` covers these once as part
# of the full suite; this target reruns them with -count to shake out
# interleavings.
race-shard:
	$(GO) test -race -count=3 -run 'TestShardFaultIsolation|TestShardQueuePeaksAcrossRun|TestBackendOneShardMatchesDevice' ./internal/serving
	$(GO) test -race -count=3 -run 'TestMultiDeviceHotSwapUnderLoad|TestMultiDeviceOpenAndLookup' .

# The repair seams under the race detector: scrub + rebuild + admin
# endpoints, the DB-level fail/rebuild/auto-rebuild paths, and the chaos
# soak (coalesced HTTP load against concurrent shard failure, live
# rebuild, layout refreshes, and a scrub sweep).
race-rebuild:
	$(GO) test -race -count=3 -run 'Scrub|Rebuild' ./internal/serving ./internal/server
	$(GO) test -race -count=3 -run 'TestScrubFailRebuildDB|TestAutoRebuild|TestChaosSoak' .

# The tiered-hierarchy seams under the race detector: heterogeneous
# array construction and tier accounting, shadow-cache simulation, the
# tier-placement pass, and the DB-level re-tier-at-refresh path under
# concurrent lookups.
race-tier:
	$(GO) test -race -count=3 -run 'Tier|Shadow|Retier|Discount' ./internal/ssd ./internal/cache ./internal/placement ./internal/server
	$(GO) test -race -count=3 -run 'TestTiered|TestRefreshRetier' .

# The co-activation-placement seams under the race detector: shard-spread
# scoring, the despread pass and its composition with Retier, per-query
# max-shard-depth accounting (single and batched), and the DB-level
# refresh-during-rebuild hot-swap path.
race-coact:
	$(GO) test -race -count=3 -run 'Despread|Spread|TopForSet|MaxShardDepth|LookupBatch' ./internal/placement ./internal/hypergraph ./internal/serving
	$(GO) test -race -count=3 -run 'TestCoActivationPlacementOption|TestRefreshDuringFastShardRebuild' .

# The real-I/O seams under the race detector: the leased io_uring rings
# (32 concurrent queue pairs, full-ring pumps, short reads, Close), the
# pread pool and freelist paths, io_uring-vs-pread differential serving,
# zero-copy ref lifetimes across retained buffers, the server's
# lease/encode handoff, /metrics scraped under file-backend and coalescer
# load, and the public WithFileBackend surface.
race-file:
	$(GO) test -race -count=3 -run 'TestFile|TestPageBuf|TestPread|TestUring|TestLookupBinary|TestLookupJSONOverFileBackend|TestMetricsBackendLatencyHistogram|TestMetricsHistogramsUnderLoad' ./internal/ssd ./internal/serving ./internal/server
	$(GO) test -race -count=3 -run 'TestFileBackend' .

# The zero-copy hot path's hard allocation gate: once warm, a cacheless
# lookup (single and batched) over the real-I/O backend must allocate
# nothing at all, under each read executor (io_uring and pread subtests;
# io_uring skips where the kernel refuses it). CI runs this as the
# bench-smoke gate.
alloc-guard:
	$(GO) test -count=1 -run 'TestFileBackendLookupZeroAllocs|TestFileBackendBatchZeroAllocs' -v ./internal/serving

# Compares the JSON response path's float32 formatter with strconv on all
# 2^32 bit patterns (every core, about 5 minutes on two). Not part of
# `verify`; the default tier runs a boundary sweep and a fuzz seed corpus.
ftoa-exhaustive:
	$(GO) test -count=1 -tags exhaustive -run TestAppendFloat32Exhaustive -timeout 60m -v ./internal/server

# The benchmark harness is its own module (perfbench/go.mod), so the
# root `./...` never compiles it; it imports the server, serving and ssd
# APIs, so vet and test it here.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The full pre-merge gate: static checks (including the repo's own
# analyzer suite), build, the test suite under the race detector (the
# serving engine and HTTP layer are concurrent), and the benchmark module.
verify: vet lint staticcheck build race race-shard race-rebuild race-tier race-coact race-file alloc-guard perfbench-check

experiments:
	$(GO) run ./cmd/experiments
