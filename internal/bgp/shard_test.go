package bgp

import (
	"bytes"
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// Tests of the windowed executor proper: that neither the partition count
// nor the worker count can be observed in any result, at deadlines as well
// as at quiescence, that a Run costs a fixed number of allocations and
// leaves no goroutine behind, and that its crew draws on the core budget. The
// host's cores reach only a few partition counts and crew sizes (partitions),
// so most of these tests fix both through newNetwork.

var partitionCases = flag.Int("partition-cases", 40,
	"random cases TestPartitionInvariance runs (the executor's acceptance run is 1000+)")

// withWorkerCPUs sets GOMAXPROCS for the test: the core budget, the
// partition count and the crew's choice to poll before it parks read it.
func withWorkerCPUs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// scriptOp is one step of a random workload, replayable on any network over
// the same topology.
type scriptOp struct {
	name string
	do   func(net *Network) error
	// snap marks the steps after which the full network fingerprint is
	// recorded (the others record the cheap aggregates only).
	snap bool
}

// randomScript draws a workload that mixes everything the executor has to
// get right: originations and withdrawals of several prefixes at arbitrary
// nodes, runs to quiescence, runs to deadlines that fall inside windows with
// messages in flight (followed by API calls that draw from the same node
// streams), link failures and recoveries, and counter resets.
func randomScript(src *rng.Source, topo *topology.Topology, w des.Time) []scriptOp {
	var ops []scriptOp
	active := map[Prefix]topology.NodeID{}
	var down [][2]topology.NodeID
	steps := 6 + src.Intn(10)
	for i := 0; i < steps; i++ {
		switch k := src.Intn(10); {
		case k < 3:
			p := Prefix(1 + src.Intn(3))
			if origin, ok := active[p]; ok {
				delete(active, p)
				ops = append(ops, scriptOp{name: fmt.Sprintf("withdraw %d@%d", p, origin), do: func(net *Network) error {
					net.WithdrawPrefix(origin, p)
					return nil
				}})
			} else {
				origin := topology.NodeID(src.Intn(topo.N()))
				active[p] = origin
				ops = append(ops, scriptOp{name: fmt.Sprintf("originate %d@%d", p, origin), do: func(net *Network) error {
					net.Originate(origin, p)
					return nil
				}})
			}
		case k < 5:
			ops = append(ops, scriptOp{name: "run", snap: true, do: func(net *Network) error {
				net.Run()
				return nil
			}})
		case k < 8:
			// Deadlines from a fraction of a window to many MRAI rounds,
			// never aligned to the window grid.
			d := des.Time(1 + src.Uint64n(uint64(3*w)))
			if src.Bernoulli(0.3) {
				d = des.Time(1 + src.Uint64n(uint64(90*des.Second)))
			}
			ops = append(ops, scriptOp{name: fmt.Sprintf("run +%v", d), do: func(net *Network) error {
				net.RunUntil(net.Now() + d)
				return nil
			}})
		case k < 9:
			if len(down) > 0 && src.Bernoulli(0.5) {
				l := down[len(down)-1]
				down = down[:len(down)-1]
				ops = append(ops, scriptOp{name: fmt.Sprintf("restore %d-%d", l[0], l[1]), do: func(net *Network) error {
					return net.RestoreLink(l[0], l[1])
				}})
				break
			}
			a := topology.NodeID(src.Intn(topo.N()))
			lo, hi := topo.CSR().Row(a)
			b := topo.CSR().IDs[lo+int32(src.Intn(int(hi-lo)))]
			isDown := false
			for _, l := range down {
				if (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a) {
					isDown = true
				}
			}
			if isDown {
				break
			}
			down = append(down, [2]topology.NodeID{a, b})
			ops = append(ops, scriptOp{name: fmt.Sprintf("fail %d-%d", a, b), do: func(net *Network) error {
				return net.FailLink(a, b)
			}})
		default:
			ops = append(ops, scriptOp{name: "reset counters", do: func(net *Network) error {
				net.ResetCounters()
				return nil
			}})
		}
	}
	return append(ops, scriptOp{name: "final run", snap: true, do: func(net *Network) error {
		net.Run()
		return net.CheckConsistency()
	}})
}

// replay runs the script and returns the network's fingerprint: after every
// step the aggregates, the clock of every shard and Pending; after the
// marked steps the full per-node state (goldenRecorder).
func replay(t *testing.T, net *Network, ops []scriptOp) []byte {
	t.Helper()
	g := goldenRecorder{prefixes: []Prefix{1, 2, 3}}
	for i, op := range ops {
		if err := op.do(net); err != nil {
			t.Fatalf("step %d (%s): %v", i, op.name, err)
		}
		requireOneClock(t, net, i, op.name)
		fmt.Fprintf(&g.buf, "# %d %s: now=%d pending=%d total=%d\n", i, op.name, int64(net.Now()), net.Pending(), net.TotalUpdates())
		if op.snap {
			g.snapshot(op.name, net)
		}
	}
	return g.buf.Bytes()
}

// requireOneClock fails the test unless every shard's clock reads the
// network's: between runs there is one virtual time.
func requireOneClock(t *testing.T, net *Network, step int, name string) {
	t.Helper()
	for _, sh := range net.shards {
		if sh.sched.Now() != net.Now() {
			t.Fatalf("step %d (%s): shard %d clock %v, network clock %v", step, name, sh.idx, sh.sched.Now(), net.Now())
		}
	}
}

// TestPartitionInvariance is the randomized form of the executor's central
// claim: for a random scenario, size, protocol variant, link delay and
// workload, a network cut into 1…40 partitions and run by 1…4
// workers is indistinguishable — step by step, clocks and Pending included —
// from the same network on one partition, with the RIB invariant checker on.
func TestPartitionInvariance(t *testing.T) {
	withWorkerCPUs(t, 4)
	scenarios := scenario.All()
	for c := 0; c < *partitionCases; c++ {
		src := rng.New(0x9e3779b97f4a7c15 ^ uint64(c))
		sc := scenarios[src.Intn(len(scenarios))]
		n := 120 + src.Intn(380)
		seed := src.Uint64()
		cfg := DefaultConfig(seed)
		cfg.Check = true
		cfg.RateLimitWithdrawals = src.Bernoulli(0.5)
		if src.Bernoulli(0.25) {
			cfg.Scope = PerPrefix
		}
		if src.Bernoulli(0.2) {
			cfg.MRAI = 0
		}
		if src.Bernoulli(0.2) {
			cfg.Dampening = DefaultDampening()
		}
		cfg.LinkDelay = []des.Time{des.Millisecond, 7 * des.Millisecond, 20 * des.Millisecond, 50 * des.Millisecond, 250 * des.Millisecond}[src.Intn(5)]
		parts, workers := 1+src.Intn(40), 1+src.Intn(4)
		name := fmt.Sprintf("case %d: %s n=%d seed=%#x wrate=%v scope=%v mrai=%v damp=%v delay=%v parts=%d workers=%d",
			c, sc.Name, n, seed, cfg.RateLimitWithdrawals, cfg.Scope, cfg.MRAI, cfg.Dampening.Enabled, cfg.LinkDelay, parts, workers)
		topo, err := sc.Generate(n, seed)
		if err != nil {
			// Some scenarios fix absolute node counts that small n cannot hold.
			if topo, err = scenario.Baseline.Generate(n, seed); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		ops := randomScript(src, topo, cfg.LinkDelay)

		ref, err := newNetwork(topo, cfg, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := replay(t, ref, ops)

		net, err := newNetwork(topo, cfg, parts, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(net.shards) != parts {
			t.Fatalf("%s: built %d partitions", name, len(net.shards))
		}
		if got := replay(t, net, ops); !bytes.Equal(got, want) {
			t.Fatalf("%s: fingerprint differs from the one-partition run\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}

// TestWindowedDeadlineInvariance steps two networks — one partition, and
// seven partitions on three workers — through the same long sequence of
// short RunUntil deadlines, most of which fall inside a window with messages
// in flight (where the window bound is loose: a message's arrival precedes
// its completion), with API calls between them, and demands the same
// Pending, clocks and totals after every step and the same results at the
// end.
func TestWindowedDeadlineInvariance(t *testing.T) {
	withWorkerCPUs(t, 4)
	topo := topology.MustGenerate(growTestParams(400, 5))
	stubs := multihomedStubs(t, topo, 2)
	run := func(parts, workers int) []byte {
		cfg := WRATEConfig(17)
		cfg.LinkDelay = 20 * des.Millisecond
		net, err := newNetwork(topo, cfg, parts, workers)
		if err != nil {
			t.Fatal(err)
		}
		var ops []scriptOp
		step := func(name string, do func(net *Network)) {
			ops = append(ops, scriptOp{name: name, do: func(net *Network) error { do(net); return nil }})
		}
		step("originate", func(net *Network) { net.Originate(stubs[0], 1) })
		inflight := 0
		for i := 0; i < 600; i++ {
			d := des.Time(1+i%5) * 7 * des.Millisecond
			step(fmt.Sprintf("run +%v", d), func(net *Network) {
				net.RunUntil(net.Now() + d)
				for _, sh := range net.shards {
					inflight += sh.emitted
				}
			})
			switch i {
			case 40: // mid-convergence, messages in flight
				step("originate 2", func(net *Network) { net.Originate(stubs[1], 2) })
			case 90:
				step("withdraw 1", func(net *Network) { net.WithdrawPrefix(stubs[0], 1) })
			case 300:
				step("re-originate 1", func(net *Network) { net.Originate(stubs[0], 1) })
			}
		}
		ops = append(ops, scriptOp{name: "run", snap: true, do: func(net *Network) error {
			net.Run()
			return net.CheckConsistency()
		}})
		out := replay(t, net, ops)
		if inflight != 0 {
			t.Fatalf("parts=%d: %d messages left unadmitted across RunUntil deadlines", parts, inflight)
		}
		// The second prefix spills queues on several partitions, so the
		// windows after "originate 2" write shard-local spill records
		// concurrently (the race tier runs this test ten times).
		if spilled := spilledShards(net); parts > 1 && spilled < 2 {
			t.Fatalf("parts=%d: spilled queues on %d shards, want at least 2", parts, spilled)
		}
		return out
	}
	want := run(1, 1)
	if got := run(7, 3); !bytes.Equal(got, want) {
		t.Fatalf("deadline stepping differs between 1 and 7 partitions\n--- got\n%s--- want\n%s", got, want)
	}
}

// windowedCEvent is one C-event cycle on a windowed network: announce, DOWN,
// UP, each run to quiescence.
func windowedCEvent(net *Network, origin topology.NodeID) {
	net.Originate(origin, 1)
	net.Run()
	net.Settle(60 * des.Second)
	net.WithdrawPrefix(origin, 1)
	net.Run()
	net.Settle(60 * des.Second)
	net.Originate(origin, 1)
	net.Run()
}

// TestWindowedSteadyStateZeroAlloc pins the executor's allocation contract:
// once the outboxes, inboxes and queues have grown to the workload, a Run of
// thousands of windows allocates a fixed, small number of objects (the crew
// and its goroutines) — nothing per window, per message or per partition.
func TestWindowedSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	withWorkerCPUs(t, 4)
	topo := topology.MustGenerate(growTestParams(600, 9))
	origin := multihomedStubs(t, topo, 1)[0]
	// Zero workers: the crew the idle core budget grants, four at GOMAXPROCS 4.
	for _, workers := range []int{1, 3, 0} {
		cfg := DefaultConfig(3)
		cfg.LinkDelay = des.Millisecond
		net, err := newNetwork(topo, cfg, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Count the windows of one cycle (identical in every cycle: same seed).
		m := obs.New()
		net.SetObs(m)
		windowedCEvent(net, origin)
		snap := m.Snapshot()
		windows := snap["bgpchurn_shard_barriers_total"]
		net.SetObs(nil)
		if windows < 1000 {
			t.Fatalf("workload runs only %v windows", windows)
		}
		// The budget below covers admission-time completion too: most of the
		// topology is stubs, so the cycle must have completed updates without
		// an event (an all-evented cycle fires at least one per update).
		if fired, updates := snap["bgpchurn_des_events_fired_total"], snap["bgpchurn_bgp_updates_processed_total"]; fired >= updates {
			t.Fatalf("cycle fired %v events for %v updates: no update was completed at admission", fired, updates)
		}
		// Warm up: both outbox generations of every pair grow to the workload.
		for i := 0; i < 3; i++ {
			net.Reset(3)
			windowedCEvent(net, origin)
		}
		net.Reset(3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		windowedCEvent(net, origin)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		// Five Run/Settle calls, each starting one crew: the Crew, the task
		// method value and a goroutine per extra worker.
		crew := workers
		if crew == 0 {
			crew = 4
		}
		if budget := uint64(5 * (4 + 2*crew)); allocs > budget {
			t.Errorf("workers=%d: %d allocations over %v windows, budget %d (independent of the window count)", workers, allocs, windows, budget)
		}
	}
}

// crewRun runs fn and returns the size of the largest crew it started: the
// caller plus the units its crews took, read from the core budget's
// high-water mark. It fails the test unless every unit came back.
func crewRun(t *testing.T, fn func()) int {
	t.Helper()
	held, _ := des.Cores.Held()
	des.Cores.ResetPeak()
	fn()
	after, peak := des.Cores.Held()
	if after != held {
		t.Fatalf("%d units held before the run, %d after", held, after)
	}
	return 1 + peak - held
}

// TestWindowedCrewTakesIdleUnits checks how a windowed Run sizes its crew at
// GOMAXPROCS 4: the caller plus one worker per unit of the core budget it
// can take while a core is idle, up to the partition count and GOMAXPROCS,
// with every unit back once the Run returns. Each case holds units first, as
// the caller's own cell (origin worker 0) and other cells would.
func TestWindowedCrewTakesIdleUnits(t *testing.T) {
	withWorkerCPUs(t, 4)
	for _, c := range []struct {
		n, held, want int
	}{
		{400, 4, 1}, // every unit taken: the caller alone
		{400, 5, 1}, // over-subscribed
		{400, 3, 2},
		{400, 2, 3},
		{400, 1, 4}, // only the caller's own unit held: three idle
		{400, 0, 4}, // a caller outside the budget still runs GOMAXPROCS
		{150, 1, 2}, // two partitions
	} {
		func() {
			topo := topology.MustGenerate(growTestParams(c.n, 5))
			origin := multihomedStubs(t, topo, 1)[0]
			cfg := DefaultConfig(1)
			cfg.LinkDelay = 10 * des.Millisecond
			net := MustNew(topo, cfg)
			net.SetObs(obs.New()) // busy then has one entry per crew member
			for i := 0; i < c.held; i++ {
				des.Cores.Acquire()
				defer des.Cores.Release()
			}
			got := crewRun(t, func() {
				net.Originate(origin, 1)
				net.Run()
			})
			if got != c.want || len(net.busy) != c.want {
				t.Errorf("n=%d (%d partitions), %d units held: crew of %d (%d timed), want %d",
					c.n, len(net.shards), c.held, got, len(net.busy), c.want)
			}
		}()
	}
}

// TestWindowedRunLeavesNoGoroutines checks that the crew of every Run,
// RunUntil and Settle is joined, and its units returned, before the call
// returns.
func TestWindowedRunLeavesNoGoroutines(t *testing.T) {
	withWorkerCPUs(t, 4)
	topo := topology.MustGenerate(growTestParams(400, 5))
	origin := multihomedStubs(t, topo, 1)[0]
	cfg := DefaultConfig(1)
	cfg.LinkDelay = 10 * des.Millisecond
	net, err := newNetwork(topo, cfg, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	crew := crewRun(t, func() {
		net.Originate(origin, 1)
		net.RunUntil(35 * des.Millisecond) // mid-flight deadline
		windowedCEvent(net, origin)
	})
	if crew != 4 {
		t.Fatalf("network ran %d workers on an idle budget, want 4", crew)
	}
	// The calls above have joined their workers; the loop only covers the
	// instant between a goroutine's last statement and the runtime retiring
	// it.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Run, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

func TestPartitions(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 50000, 1}, // one worker, one partition
		{1, 50000, 1},
		{2, 50000, 2 * partsPerWorker},
		{8, 100000, 8 * partsPerWorker},
		{2, 400, 400 / partMinNodes}, // small topologies: at least partMinNodes nodes each
		{4, 100, 1},
		{1000, 1 << 20, maxPartitions}, // what a partOf entry can name
	}
	for _, c := range cases {
		if got := partitions(c.workers, c.n); got != c.want {
			t.Errorf("partitions(%d workers, %d nodes) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// spilledShards returns how many of net's shards hold a queue whose tables
// have moved to its spill record.
func spilledShards(net *Network) int {
	n := 0
	for _, sh := range net.shards {
		for k, sp := range sh.spills {
			if sp != nil && sh.outq[k].flags&qSpilled != 0 {
				n++
				break
			}
		}
	}
	return n
}
