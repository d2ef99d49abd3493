# bgpchurn — stdlib only, plus two 5-line prefetch stubs in assembly
# (internal/des). CI runs these targets and nothing else (plus
# `go vet ./...`), so each command lives here once. Performance is measured
# by `go run ./benchmark` (BENCHMARK.json); allocation and memory budgets
# are tests under `make test`.

GO ?= go

.PHONY: build test cross race bench fuzz-smoke smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# cross keeps the architecture-specific files honest (internal/des has the
# repository's only assembly: a one-instruction prefetch stub for amd64 and
# one for arm64, and an empty Go fallback elsewhere). arm64 is built and
# vetted — vet's asmdecl pass checks the stub's frame against its Go
# declaration — and riscv64 stands for every architecture without a stub,
# so the fallback cannot rot.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/...
	GOARCH=riscv64 $(GO) build ./...

# race runs the full suite under the race detector with -count=1, so the
# checker-enabled tiers (bgp.Config.Check re-verifies decision fixpoints,
# PathID validity, export closure and untouched-queue pristineness after
# every decision), the warm-start, journal, span and serve chaos tiers all
# run raced on every invocation. Then the windowed executor's own tests
# (worker crew, its sizing from the core budget, partition and deadline
# invariance) ten times over: they fix crews of up to four workers whatever
# the CPU count, so a lost wake-up or a claim that crosses windows gets
# many schedules to show itself, and the timeout turns a hung barrier into
# a failure instead of a stuck job. The same ten rounds run the
# admission-time-completion differential (bare against all-evented
# networks), whose windowed cases complete updates on the worker that
# admits them, and the
# change-proportional tiers (the one-row decision step against the scan,
# and the touched-queue marks windowed shards write concurrently), the
# session-reset drain (a failed link discards the updates parked on it in
# inboxes, delivery events and the windowed outbox), and the
# core-budget tests: helper origin workers joining and leaving concurrent
# grid cells, the budget's high-water bound with window crews taking
# units too, and its release on cancellation and panics. Last, the metrics
# hand-off: the engine publishes its per-run tallies to the hub after the
# window crew has joined, and that join is the only thing ordering the
# workers' tally writes before the
# coordinator's reads — so an instrumented sharded cell (root package) and a
# grid scraped while its networks publish run ten times too. So does the
# per-event counter window, because window workers write the shards' update
# kind counts and EndCause reads them only after the crew has joined.
# Last of all, a cell's origin workers: six to eight of them finish their
# origins out of order, each writing an origin's scalars to that origin's
# slot, and only the pool's join orders those writes before the fold in
# origin order. So the raced origin pool and the determinism-across-
# parallelism test run ten times too.
race:
	$(GO) test -race -count=1 ./...
	$(GO) test -race -count=10 -timeout 15m -run 'Crew|PartitionInvariance|Windowed|AdmissionCompletion|DecideAfter|Touched|SessionResetDropsInFlight|CoreBudget|RaceObsScrapeDuringGrid|RaceShardedCell|CauseIsCounterWindow|RaceOriginParallelism|DeterminismAcrossParallelism' . ./internal/des/ ./internal/bgp/ ./internal/core/

# bench runs every benchmark once so the suite cannot silently rot; it is a
# compile-and-run check, not a performance measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# fuzz-smoke gives each fuzz harness a short adversarial run on top of the
# checked-in corpora (which `make test` already replays as regular cases):
# the path intern table must never collide or leak slab bytes, and the
# journal loader must never panic or mis-resume on torn/corrupt files and
# must agree with the reopen repair on what is torn. The journal harness is
# fsync-bound: 10 s reaches a few hundred inputs. The generator's weighted
# sampler must draw what the linear scan draws, because its exclusions are
# subtracted during the draw rather than written into its trees. The CSR
# builder must pair slots by transposition exactly as a map over every
# listing would, and must not panic on one-sided, duplicate, self-looped or
# out-of-range lists.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzInternTable -fuzztime 15s ./internal/bgp/
	$(GO) test -run '^$$' -fuzz FuzzOpenJournal -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzWeightedSampler -fuzztime 10s ./internal/topology/
	$(GO) test -run '^$$' -fuzz FuzzCSRReverse -fuzztime 10s ./internal/topology/

# smoke drives both binaries as real processes:
#   - resume_smoke.sh SIGINTs a -fast grid partway, reruns it with -resume,
#     and requires that only the missing cells recompute and every CSV is
#     byte-identical to an uninterrupted reference;
#   - churnd_smoke.sh has two tenants submit overlapping grids over HTTP
#     (shared cells dedup on the scheduler cache), drains on SIGTERM,
#     SIGKILLs mid-grid, and requires a restart on the same journal to
#     recover the checkpointed cells and serve a byte-identical CSV;
#   - sse_smoke.sh streams /progress from a live cmd/experiments -fast grid
#     and a two-cell churnd job, and asserts the SSE framing.
smoke:
	./scripts/resume_smoke.sh
	./scripts/churnd_smoke.sh
	./scripts/sse_smoke.sh
