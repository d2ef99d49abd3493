package bgp

import (
	"bytes"
	"fmt"
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// Admission-time completion (deliver, DESIGN.md "Admission-time completion")
// against its oracle. With allEvented set every update stays an event of its
// own: that network is the all-evented engine, on the same code.

// admissionCases is the number of random cases
// TestAdmissionCompletionMatchesEvented runs.
const admissionCases = 60

// replayEveryStep runs the script and returns the network's full fingerprint
// (goldenRecorder: clock, Pending, totals, peak rate, every node's counters,
// routes and Adj-RIB-In size) after every step, and the number of scheduler
// events the network fired, read from a hub attached for the replay. A step
// that fails — the final CheckConsistency included — fails the test.
func replayEveryStep(t *testing.T, net *Network, ops []scriptOp) ([]byte, uint64) {
	t.Helper()
	m := obs.New()
	net.SetObs(m)
	g := goldenRecorder{prefixes: []Prefix{1, 2, 3}}
	for i, op := range ops {
		if err := op.do(net); err != nil {
			t.Fatalf("step %d (%s): %v", i, op.name, err)
		}
		requireOneClock(t, net, i, op.name)
		g.snapshot(fmt.Sprintf("%d %s", i, op.name), net)
	}
	return g.buf.Bytes(), m.DES.EventsFired.Value()
}

// TestAdmissionCompletionMatchesEvented: over random topologies, seeds,
// protocol variants, MRAI scopes, both executors (the windowed
// one at several partition and worker counts) and random schedules of
// Originate/WithdrawPrefix/FailLink/RestoreLink at stubs and non-stubs
// interleaved with Run, ResetCounters and RunUntil deadlines that cut
// convergence mid-flight, a bare network and an all-evented one
// must be indistinguishable at every run boundary, with the RIB invariant
// checker on. (Dampening is left out: it keeps both sides evented.)
func TestAdmissionCompletionMatchesEvented(t *testing.T) {
	withWorkerCPUs(t, 4)
	scenarios := scenario.All()
	var bareFired, hookFired uint64
	for c := 0; c < admissionCases; c++ {
		src := rng.New(0xad3155105eed ^ uint64(c)<<20)
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
		w, parts, workers := 50*des.Millisecond, 0, 0
		if src.Bernoulli(0.5) {
			w = []des.Time{des.Millisecond, 7 * des.Millisecond, 20 * des.Millisecond, 50 * des.Millisecond, 250 * des.Millisecond}[src.Intn(5)]
			cfg.LinkDelay, workers, parts = w, 1+src.Intn(4), 1+src.Intn(12)
		}
		name := fmt.Sprintf("case %d: %s n=%d seed=%#x wrate=%v scope=%v mrai=%v delay=%v parts=%d workers=%d",
			c, sc.Name, n, seed, cfg.RateLimitWithdrawals, cfg.Scope, cfg.MRAI, cfg.LinkDelay, parts, workers)
		topo, err := sc.Generate(n, seed)
		if err != nil {
			// Some scenarios fix absolute node counts that small n cannot hold.
			if topo, err = scenario.Baseline.Generate(n, seed); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		ops := randomScript(src, topo, w)

		evented, err := newNetwork(topo, cfg, parts, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		evented.allEvented = true
		want, fired := replayEveryStep(t, evented, ops)
		hookFired += fired

		bare, err := newNetwork(topo, cfg, parts, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, fired := replayEveryStep(t, bare, ops)
		bareFired += fired
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: bare network differs from the all-evented one\n%s", name, firstDiff(got, want))
		}
	}
	// The comparison means something only if the bare side took the path.
	if bareFired*4 > hookFired*3 {
		t.Fatalf("bare networks fired %d events against the evented ones' %d: admission-time completion barely ran", bareFired, hookFired)
	}
}

// firstDiff shows the first differing line of two fingerprints with the
// phase header above it.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	phase := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if bytes.HasPrefix(gl[i], []byte("## ")) {
			phase = string(gl[i])
		}
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("%s\n--- got\n%s\n--- want\n%s", phase, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(gl), len(wl))
}

// TestAdmissionCompletionPredicate pins, on a hand-made topology, which
// updates deliver may complete at admission: only those of a sink that never
// spoke, with no evented delivery of its own pending, inside a run that is
// certain to reach the completion time.
func TestAdmissionCompletionPredicate(t *testing.T) {
	// T core 0; M nodes 1, 2 under it; stubs 3 (origin) and 4 under both.
	topo := benchTopo(
		[]topology.NodeType{topology.T, topology.M, topology.M, topology.C, topology.C},
		[][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 4}, {2, 4}}, nil)
	cfg := DefaultConfig(5)
	cfg.MRAI = 0
	net := MustNew(topo, cfg)
	for i, want := range []bool{false, false, false, true, true} {
		if got := net.nodes[i].sink; got != want {
			t.Fatalf("node %d: sink = %v, want %v", i, got, want)
		}
	}
	stub, m := &net.nodes[4], &net.nodes[1]
	slot := -1
	for j, id := range net.nbrIDs(m) {
		if id == stub.id {
			slot = j
		}
	}
	_, id := net.intern.intern(Path{1, 3})
	pending := func() int { return net.shards[0].sched.Len() }
	received := func() uint64 { return net.Counters(stub.id).Announcements }

	send := func(m *node, slot int, id PathID) { net.transmit(m, slot, 9, id) }

	// Outside a run nothing completes at admission: an API call could look.
	send(m, slot, id)
	if pending() != 1 || !stub.delivering || received() != 0 {
		t.Fatalf("outside a run: pending=%d delivering=%v received=%d, want an event", pending(), stub.delivering, received())
	}
	// Inside one, the evented delivery ahead keeps the next update behind it.
	inRun(net, -1, func() {
		send(m, slot, id)
		if pending() != 1 || len(stub.inbox) != 1 || received() != 0 {
			t.Fatalf("behind an evented delivery: pending=%d inbox=%d received=%d, want it parked", pending(), len(stub.inbox), received())
		}
	})
	if received() != 2 || stub.delivering {
		t.Fatalf("after Run: received=%d delivering=%v", received(), stub.delivering)
	}
	// Idle, silent, inside a run: done on the spot, ahead of the clock.
	inRun(net, net.Now()+des.Second, func() {
		send(m, slot, id)
		if pending() != 0 || received() != 3 || net.shards[0].horizon != stub.busyUntil || stub.busyUntil <= net.Now() {
			t.Fatalf("silent sink in a run: pending=%d received=%d horizon=%v busyUntil=%v now=%v",
				pending(), received(), net.shards[0].horizon, stub.busyUntil, net.Now())
		}
	})
	// Not when the run may stop short of the completion time.
	inRun(net, net.Now(), func() {
		send(m, slot, id)
		if pending() != 1 || received() != 3 {
			t.Fatalf("completion past the limit: pending=%d received=%d, want an event", pending(), received())
		}
	})
	if pending() != 1 || received() != 3 {
		t.Fatalf("after the short run: pending=%d received=%d, want the event still queued", pending(), received())
	}
	net.Run()
	// A run to quiescence ends at the last completion, fired or not.
	net.Originate(3, 1)
	net.Run()
	var last des.Time
	for i := range net.nodes {
		last = max(last, net.nodes[i].busyUntil)
	}
	if net.Now() != last {
		t.Fatalf("Run ended at %v, last completion at %v", net.Now(), last)
	}
	// A sink that has spoken — here by originating — is an ordinary node.
	origin := &net.nodes[3]
	if !origin.spoke || origin.silent() {
		t.Fatalf("origin: spoke=%v silent=%v", origin.spoke, origin.silent())
	}
	for j, id := range net.nbrIDs(m) {
		if id == origin.id {
			slot = j
		}
	}
	_, id = net.intern.intern(Path{1, 4})
	inRun(net, -1, func() {
		send(m, slot, id)
		if pending() != 1 {
			t.Fatalf("spoken sink: pending=%d, want an event", pending())
		}
	})
}
