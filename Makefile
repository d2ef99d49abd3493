# bgpchurn — stdlib only, plus two 5-line prefetch stubs in assembly
# (internal/des); these targets mirror CI.

GO ?= go

# Label under which `make bench-kernel` records its run in BENCH_kernel.json.
BENCH_LABEL ?= current

.PHONY: test cross race bench bench-kernel bench-e2e bench-scale scale-smoke bench-gen gen-smoke bench-shard shard-smoke fuzz-smoke obs-guard bench-obs sse-smoke resume-smoke resume-guard churnd-smoke build

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

# race runs the full suite under the race detector, then reruns the
# checker-enabled tiers with -count=1: the RIB invariant checker
# (bgp.Config.Check) re-verifies decision fixpoints, PathID validity and
# export closure after every reconcile, and the checked golden cell
# exercises it inside parallel origin workers at small n.
# Last, the windowed executor's own tests (worker crew, partition and
# deadline invariance) ten times over: the race tier starts Config.Shards
# workers whatever the CPU count, so a lost wake-up or a claim that crosses
# windows gets many schedules to show itself, and the timeout turns a hung
# barrier into a failure instead of a stuck job. The same ten rounds run
# the admission-time-completion differential (bare against all-evented
# networks), whose windowed cases complete updates on the worker that admits
# them.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'Consistency|Checker|GrowThenReset|Sharded' ./internal/bgp/ .
	$(GO) test -race -count=10 -timeout 15m -run 'Crew|PartitionInvariance|Windowed|AdmissionCompletion' ./internal/des/ ./internal/bgp/

bench:
	$(GO) test -bench . -benchtime 1x .

# bench-kernel runs the kernel micro-benchmarks and the root figure suite
# with allocation reporting and records the numbers as a labeled entry in
# BENCH_kernel.json (replacing an existing entry with the same label), so
# the perf trajectory is tracked PR over PR.
bench-kernel:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./internal/bgp . \
		| $(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -out BENCH_kernel.json

# bench-e2e runs the end-to-end RunCEvents benchmark (n=1000, cold vs warm
# start) and records it in BENCH_e2e.json under the same labeling scheme.
bench-e2e:
	$(GO) test -run '^$$' -bench 'BenchmarkRunCEvents' -benchmem -benchtime 5x . \
		| $(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -out BENCH_e2e.json

# bench-scale runs the internet-scale trajectory: one warm-start churn cell
# at n ∈ {10k, 50k, 100k} on a growth-chained Baseline topology,
# recording ns/op plus peak RSS (VmHWM) per size in BENCH_scale.json. The
# growth chain runs on the Fenwick-indexed generator (see bench-gen), so
# setup is seconds per size; the cells themselves are sub-minute.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleCell' -benchtime 1x -timeout 120m . \
		| $(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -out BENCH_scale.json

# scale-smoke mirrors the CI job of the same name: the n=10k warm cell must
# finish and stay under an absolute peak-RSS budget (cmd/benchguard -budget).
# The budget is ~2.5x today's footprint (~50 MB): a representation change
# that reintroduced per-neighbor maps or full-path storage would multiply
# RSS with n and blow past it.
scale-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleCell/n=10000$$' -benchtime 1x -timeout 20m . \
		| $(GO) run ./cmd/benchguard -guard BenchmarkScaleCell/n=10000 -metric peakRSS-MB -budget 128

# bench-gen runs the topology-generation trajectory: the generator
# (Fenwick-indexed preferential attachment, shared cones) at
# n ∈ {10k, 50k, 100k}, one process per size so peakRSS-MB is that run's
# own high-water mark, recorded in BENCH_gen.json. Its "linear-scan" record
# is the dated "before": the quadratic generator, which now survives only as
# the test reference in gen_reference_test.go.
bench-gen:
	rm -f /tmp/bench-gen.txt
	for n in 10000 50000 100000; do \
		$(GO) test -run '^$$' -bench "BenchmarkTopologyGenerate\$$/n=$$n\$$" -benchtime 1x -timeout 60m . \
			| tee -a /tmp/bench-gen.txt || exit 1; \
	done
	$(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -out BENCH_gen.json < /tmp/bench-gen.txt

# gen-smoke mirrors the CI job of the same name: the n=50k Baseline topology
# must generate within absolute wall-clock and peak-RSS budgets. The budgets
# are roughly 8x today's numbers (~1.3 s, ~60 MB) to absorb slow runners: a
# regression that reintroduced a linear scan per draw or dense per-node cone
# bitsets would still blow past them by an order of magnitude (the quadratic
# generator took ~108 s at this size, BENCH_gen.json "linear-scan"). The
# differential step then holds the generator to the reference in
# gen_reference_test.go: every scenario, growth chains, n = 20k, random cases.
gen-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTopologyGenerate$$/n=50000$$' -benchtime 1x -timeout 20m . \
		| tee /tmp/gen-smoke.txt \
		| $(GO) run ./cmd/benchguard -guard BenchmarkTopologyGenerate/n=50000 -metric ns/op -budget 10e9
	$(GO) run ./cmd/benchguard -guard BenchmarkTopologyGenerate/n=50000 -metric peakRSS-MB -budget 256 < /tmp/gen-smoke.txt
	$(GO) test -count=1 -run 'GeneratorEquivalent|GrowEquivalent|DrawSequence' .

# bench-shard runs the windowed-executor trajectory: one warm-start windowed
# churn cell at n ∈ {10k, 50k} × shards ∈ {1, 2, 4, 8}, three times at each
# GOMAXPROCS in SHARD_CPUS, recording the median ns/op, total updates and
# peak RSS per point in BENCH_shard.json — one record per core count,
# labeled "$(BENCH_LABEL) cpu=N". Every point simulates the same model
# (fixed 50 ms link delay), so the shard axis isolates executor scaling.
# -shards is a worker count and the executor never starts more workers than
# GOMAXPROCS (bgp.windowWorkers): at cpu=1 every point runs on the caller and
# differs only in how finely the node array is partitioned; the parallel
# speedup is the cpu=N record against the cpu=1 one. List only core counts
# the host really has.
SHARD_CPUS ?= 1 2
bench-shard:
	for c in $(SHARD_CPUS); do \
		$(GO) test -run '^$$' -bench 'BenchmarkShardedCell' -benchtime 1x -count 3 -cpu $$c -timeout 120m . \
			| $(GO) run ./cmd/benchjson -label "$(BENCH_LABEL) cpu=$$c" -out BENCH_shard.json || exit 1; \
	done

# shard-smoke mirrors the CI job of the same name: the n=10k shards=4
# windowed cell must stay under the scale tier's peak-RSS budget, and must
# not run slower than the same cell on one worker beyond a noise tolerance.
# Both runs state their core count: at -cpu 2 shards=4 means two workers
# over 16 partitions against one worker on one, so a runner with two idle
# cores measures a speedup and a single-core one ~1x — a real serialization
# bug in the barrier path shows up as a large ratio on both.
shard-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkShardedCell/n=10000/shards=4$$' -benchtime 1x -cpu 2 -timeout 20m . \
		| $(GO) run ./cmd/benchguard -guard BenchmarkShardedCell/n=10000/shards=4 -metric peakRSS-MB -budget 128
	$(GO) test -run '^$$' -bench 'BenchmarkShardedCell/n=10000/shards=(1|4)$$' -benchtime 3x -cpu 2 -timeout 20m . \
		| $(GO) run ./cmd/benchguard -base BenchmarkShardedCell/n=10000/shards=1 -guard BenchmarkShardedCell/n=10000/shards=4 -metric ns/op -tolerance 0.25

# fuzz-smoke gives each fuzz harness a short adversarial run on top of the
# checked-in corpora (which `make test` already replays as regular cases).
# The journal harness is fsync-bound, so it gets an input-count budget
# rather than a time budget.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzInternTable -fuzztime 15s ./internal/bgp/
	$(GO) test -run '^$$' -fuzz FuzzOpenJournal -fuzztime 20x ./internal/core/

# obs-guard mirrors the CI job of the same name: instrumentation must not
# allocate beyond the warm baseline plus a fixed per-run setup budget. Two
# guards share one bench run: metrics probes get the default (near-zero)
# slack, and causal tracing gets a per-origin budget — ~140 allocs per
# origin close three spans and their Stats maps (~2.8k at 20 origins), so
# the 4096 slack absorbs exactly that fixed cost while a per-update
# allocation on the traced hot path (~50k updates/run) still blows it.
obs-guard:
	$(GO) vet ./internal/obs/ ./cmd/benchguard/
	$(GO) test -run '^$$' -bench 'BenchmarkRunCEvents/(warm|obs|spans)' -benchmem -benchtime 3x . \
		| tee /tmp/obs-guard.txt \
		| $(GO) run ./cmd/benchguard -base BenchmarkRunCEvents/warm -guard BenchmarkRunCEvents/obs
	$(GO) run ./cmd/benchguard -base BenchmarkRunCEvents/warm -guard BenchmarkRunCEvents/spans -slack 4096 < /tmp/obs-guard.txt

# bench-obs runs the observability overhead benches (warm baseline vs
# metrics hub vs causal tracing) and records them in BENCH_obs.json under
# the same labeling scheme as the other bench-* targets, so the spans-off
# and spans-on kernel costs are tracked PR over PR.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkRunCEvents/(warm|obs|spans)' -benchmem -benchtime 5x . \
		| $(GO) run ./cmd/benchjson -label "$(BENCH_LABEL)" -out BENCH_obs.json

# sse-smoke streams /progress from both binaries — a live cmd/experiments
# -fast grid and a two-cell churnd job — and asserts the SSE frames are
# well-formed (see scripts/sse_smoke.sh). Mirrors the CI obs-guard job's
# smoke step.
sse-smoke:
	./scripts/sse_smoke.sh

# resume-smoke exercises crash recovery across real processes: run the -fast
# grid, SIGINT it partway, rerun with -resume, and require that only the
# missing cells are recomputed and every CSV is byte-identical to an
# uninterrupted reference. Mirrors the CI resume-guard job.
resume-smoke:
	./scripts/resume_smoke.sh

# churnd-smoke exercises the serving layer across real processes: two
# tenants submit overlapping grids over HTTP (shared cells must dedup on
# the scheduler cache), the daemon is SIGKILLed mid-grid, and a restart on
# the same journal must recover the checkpointed cells, recompute only the
# missing ones, and serve a byte-identical CSV. Mirrors the CI churnd-smoke
# job.
churnd-smoke:
	./scripts/churnd_smoke.sh

# resume-guard enforces the checkpointing cost contract: appending a cell to
# the journal is a fixed per-cell budget (JSON encode + hash + one write,
# ~30 allocs — hence the raised slack), never a per-event cost. Anything
# that made journaling scale with the event count would blow past the slack
# by orders of magnitude.
resume-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkRunCEvents/(warm|journal)' -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchguard -base BenchmarkRunCEvents/warm -guard BenchmarkRunCEvents/journal -slack 48
