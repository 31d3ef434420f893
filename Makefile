GO ?= go

.PHONY: build test race vet fmt chaos spillgate fuzzgate fusegate servegate durgate incgate check bench bench-json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Chaos equivalence under the race detector: streaming jobs with
# injected partition crashes (multiple seeds) must match the crash-free
# run bit-for-bit, and checkpoint roundtrips must be byte-identical.
chaos:
	$(GO) test -race -count=1 -run 'TestStreamingChaos|TestCheckpoint' ./internal/core/ ./internal/temporal/

# Out-of-core equivalence under the race detector: the BT pipeline with
# the memory budget squeezed to a few KB (and with spilling forced) must
# match the all-resident run bit-for-bit, as must a chained two-fragment
# TiMR plan across budgets. -cpu 1,4 runs each test at GOMAXPROCS 1 and
# 4, so parallel reducers race whatever the host's core count.
spillgate:
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestPipelineLowBudget|TestSpillBudgetEquivalence|TestMemoryBudgetOutputEquivalence' ./internal/bt/ ./internal/core/ ./internal/mapreduce/

# Short fuzz sweep over every decoder that parses untrusted bytes: the
# row codec, the columnar block format, and checkpoint images. Corrupt
# input must error — never panic, never over-allocate. 10s per target
# keeps the gate fast; longer runs reuse the same corpus.
fuzzgate:
	$(GO) test -run '^$$' -fuzz 'FuzzRowCodecRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzColBlockRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzCheckpointRoundtrip' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 10s ./internal/temporal/
	$(GO) test -run '^$$' -fuzz 'FuzzSummaryRoundtrip' -fuzztime 10s ./internal/bt/

# Fusion equivalence under the race detector: every fused/interpreted
# differential — engine-level (row, columnar, fallback shapes, snapshot
# interchange), TiMR columnar reducer feeds, streaming columnar chaos,
# and the end-to-end BT pipeline — must be bit-identical. -cpu 1,4 as in
# spillgate.
fusegate:
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestFused' ./internal/temporal/ ./internal/core/ ./internal/bt/

# Elastic-serving equivalence under the race detector: live partition
# migration (forced splits/merges, mid-interval, composed with crash
# chaos, and policy-driven) must be bit-identical to the static run,
# and the serving tier's delivered scores must not change under
# placement, pacing, or admission bounds.
servegate:
	$(GO) test -race -count=1 -run 'TestMigration|TestAutoRebalance|TestServe' ./internal/core/ ./internal/serve/

# Durability under the race detector: the durable checkpoint store's
# commit protocol and fault injection (torn writes, ENOSPC, bit flips —
# 30% fault rate across multiple seeds), plus the kill-and-restart
# drills — core and serving tier — which must recover bit-identically,
# including through generation fallback after corruption.
durgate:
	$(GO) test -race -count=1 -run 'TestDurable|TestFaultFS' ./internal/dur/ ./internal/core/ ./internal/serve/

# Incremental-refresh equivalence under the race detector: the 7-day
# sliding-window drill (delta ingest byte-identical to full recompute
# every day), the engine-pipeline pinning of the mergeable summaries,
# the kill-and-restart resume through a >=30%-fault-rate store with
# quarantine fallback, and the warm-start parity gate.
incgate:
	$(GO) test -race -count=1 -run 'TestRefresh' ./internal/bt/

# The full pre-merge gate. Perf changes should additionally refresh the
# tracked benchmark snapshot via `make bench-json` (not part of check:
# benchmark timings are host-dependent and would make the gate flaky).
check: vet fmt race chaos spillgate fuzzgate fusegate servegate durgate incgate

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Headline benchmarks (shuffle, Fig. 15/16, engine feed path, serving
# tier, refresh delta-vs-full) as machine-readable JSON — the perf
# trajectory file compared across PRs.
bench-json:
	$(GO) run ./cmd/timr bench-json -out BENCH_pr10.json
