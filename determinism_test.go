package bgpchurn

// Determinism regression tier: the simulator's results must be a pure
// function of the seeds — independent of the origin-level worker count
// inside RunCEvents, of the grid scheduler's cell-level parallelism, and
// of whether a sweep ran sequentially or through the scheduler. The tests
// compare full rendered results byte for byte (update counts, the m/q/e
// factor decomposition, convergence times, spread summaries), for both the
// WRATE and NO-WRATE protocol variants.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bgpchurn/internal/des"
)

// fingerprint renders a Result's complete numeric content; Result is a
// pure value type once dereferenced, so equal strings mean byte-identical
// results.
func fingerprint(r *Result) string { return fmt.Sprintf("%+v", *r) }

// fingerprintSweep renders every point of a sweep.
func fingerprintSweep(sw *SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", sw.Scenario)
	for _, p := range sw.Points {
		fmt.Fprintf(&b, "%d %s\n", p.N, fingerprint(p.R))
	}
	return b.String()
}

// protocolVariants returns the §4 NO-WRATE and §6 WRATE experiment
// configurations at reduced scale.
func protocolVariants(seed uint64, origins int) map[string]Experiment {
	noW := DefaultExperiment(seed)
	noW.Origins = origins
	w := noW
	w.BGP = WRATEProtocol(seed)
	return map[string]Experiment{"NO-WRATE": noW, "WRATE": w}
}

// shardedVariant returns cfg running on the windowed executor (a positive
// link delay is the conservative lookahead) split across the given number
// of node shards. All sharded-determinism comparisons hold the link delay
// fixed and vary only the shard count: the delay is part of the simulated
// model, the shard count is not.
func shardedVariant(cfg Experiment, shards int) Experiment {
	c := cfg
	c.BGP.LinkDelay = 10 * des.Millisecond
	c.BGP.Shards = shards
	return c
}

// shardCounts is the shard axis every sharded-determinism test sweeps.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedResultInvariantAcrossShardCounts demands that the windowed
// executor produce byte-identical results at every shard count, for both
// protocol variants. Shards=1 is the reference: the same windowed schedule
// executed on a single shard.
func TestShardedResultInvariantAcrossShardCounts(t *testing.T) {
	topo, err := Baseline.Generate(400, 21)
	if err != nil {
		t.Fatal(err)
	}
	for variant, cfg := range protocolVariants(21, 6) {
		var want string
		for _, shards := range shardCounts {
			res, err := RunCEvents(topo, shardedVariant(cfg, shards))
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(res)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("%s: Shards=%d changed the result:\nwant %s\ngot  %s",
					variant, shards, want, got)
			}
		}
	}
}

// TestRaceShardedCell runs one sharded grid cell with a metrics hub
// attached — exercising the barrier coordinator's skew histogram, the
// concurrent intern table and the publication of the shard tallies after
// the window workers join — and demands the result
// match an unsharded, uninstrumented run of the same windowed config. It
// is the -race tier's entry point for the sharded executor (the race
// target's -run pattern matches "Sharded").
func TestRaceShardedCell(t *testing.T) {
	topo, err := Baseline.Generate(1000, 43)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultExperiment(43)
	cfg.Origins = 4
	ref, err := RunCEvents(topo, shardedVariant(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	sharded := shardedVariant(cfg, 4)
	sharded.Obs = NewObsMetrics()
	got, err := RunCEvents(topo, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(ref) {
		t.Fatalf("sharded instrumented cell diverges from unsharded:\nshards=1 %s\nshards=4 %s",
			fingerprint(ref), fingerprint(got))
	}
	snap := sharded.Obs.Snapshot()
	if snap["bgpchurn_shard_barriers_total"] <= 0 {
		t.Fatal("sharded run executed no synchronization windows")
	}
	if snap["bgpchurn_shard_cross_updates_total"] <= 0 {
		t.Fatal("sharded run exchanged no cross-shard updates")
	}
}

func TestResultIdenticalAcrossParallelism(t *testing.T) {
	topo, err := Baseline.Generate(400, 21)
	if err != nil {
		t.Fatal(err)
	}
	parallelisms := []int{1, 4, runtime.NumCPU()}
	for variant, cfg := range protocolVariants(21, 6) {
		var want string
		for _, par := range parallelisms {
			c := cfg
			c.Parallelism = par
			res, err := RunCEvents(topo, c)
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(res)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("%s: Parallelism=%d changed the result:\nwant %s\ngot  %s", variant, par, want, got)
			}
		}
	}
}

func TestScheduledGridIdenticalToSequential(t *testing.T) {
	sizes := []int{200, 350}
	for variant, cfg := range protocolVariants(9, 5) {
		sweepCfg := SweepConfig{Sizes: sizes, TopologySeed: 9, Event: cfg}
		seq, err := Sweep(Baseline, sweepCfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprintSweep(seq)
		for _, par := range []int{1, 4, runtime.NumCPU()} {
			sched := NewScheduler(par)
			got, err := sched.RunSweep(context.Background(), Baseline, sweepCfg)
			if err != nil {
				t.Fatal(err)
			}
			if fp := fingerprintSweep(got); fp != want {
				t.Fatalf("%s: scheduled grid (parallelism %d) differs from sequential sweep:\nseq   %s\nsched %s",
					variant, par, want, fp)
			}
		}
		// And through a multi-request grid, where the scheduler interleaves
		// this sweep with another scenario's cells.
		out, err := RunGrid(context.Background(), []GridRequest{
			{Scenario: Baseline, Sizes: sizes, TopologySeed: 9, Event: cfg},
			{Scenario: Tree, Sizes: sizes, TopologySeed: 9, Event: cfg},
		})
		if err != nil {
			t.Fatal(err)
		}
		if fp := fingerprintSweep(out[0]); fp != want {
			t.Fatalf("%s: grid-assembled sweep differs from sequential:\nseq  %s\ngrid %s", variant, want, fp)
		}
	}
}

func TestResultIdenticalWithObs(t *testing.T) {
	// Instrumentation must be invisible to the simulation: publication never
	// reads the virtual clock, consumes RNG, or reorders events, so a run
	// with a metrics hub attached is byte-identical to a bare run.
	topo, err := Baseline.Generate(400, 37)
	if err != nil {
		t.Fatal(err)
	}
	for variant, cfg := range protocolVariants(37, 5) {
		bare, err := RunCEvents(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		instrumented := cfg
		instrumented.Obs = NewObsMetrics()
		got, err := RunCEvents(topo, instrumented)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(bare) {
			t.Fatalf("%s: attaching obs changed the result:\nbare %s\nobs  %s",
				variant, fingerprint(bare), fingerprint(got))
		}
		if instrumented.Obs.Snapshot()["bgpchurn_bgp_updates_processed_total"] <= 0 {
			t.Fatalf("%s: instrumented run recorded no processed updates", variant)
		}
	}
}

func TestRunSweepRepeatable(t *testing.T) {
	// Two independent schedulers over the same seeds must agree exactly —
	// the cache key covers every input that determines a cell's result.
	cfg := SweepConfig{Sizes: []int{200, 300}, TopologySeed: 31, Event: protocolVariants(31, 4)["WRATE"]}
	a, err := RunSweep(context.Background(), Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(context.Background(), Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintSweep(a) != fingerprintSweep(b) {
		t.Fatal("independent scheduled sweeps disagree on identical seeds")
	}
}
