package bgp

import (
	"fmt"
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// causeCases is the number of random cases TestCauseIsCounterWindow runs.
const causeCases = 40

// publicCounters is what the public per-node and network-wide counters read
// at one instant: the quantities an event's attribution is the change of.
type publicCounters struct {
	total                  uint64
	recv                   [][]uint32 // per node, per neighbor slot
	changes                []uint64   // per node
	announcements, withdrs uint64
}

func readPublicCounters(net *Network) publicCounters {
	c := publicCounters{total: net.TotalUpdates()}
	for i := 0; i < net.Topology().N(); i++ {
		id := topology.NodeID(i)
		nc := net.Counters(id)
		c.recv = append(c.recv, append([]uint32(nil), net.PerNeighborCounts(id)...))
		c.changes = append(c.changes, net.RouteChanges(id))
		c.announcements += nc.Announcements
		c.withdrs += nc.Withdrawals
	}
	return c
}

// expectedAttribution builds, from two readings of the public counters, the
// attribution of the event between them — everything but the update
// classification, which no public counter keeps.
func expectedAttribution(net *Network, before, after publicCounters) EventAttribution {
	a := EventAttribution{Updates: after.total - before.total}
	for i, node := range net.Topology().Nodes {
		ta := &a.ByType[node.Type]
		ta.Nodes++
		ta.Exploration += after.changes[i] - before.changes[i]
		for j, rel := range net.NeighborRelations(topology.NodeID(i)) {
			ra := &ta.ByRel[rel]
			ra.Sessions++
			if d := after.recv[i][j] - before.recv[i][j]; d > 0 {
				ra.Updates += uint64(d)
				ra.Active++
			}
		}
	}
	return a
}

// TestCauseIsCounterWindow: an event's attribution is the change of the
// engine's public counters between BeginCause and EndCause — per type ×
// relation updates and active sessions from PerNeighborCounts, exploration
// from RouteChanges, the total from TotalUpdates — and its four update
// classes partition that total. Random topologies, seeds, protocol
// variants, MRAI scopes and both executors (the windowed one at several
// partition and worker counts); the cause opens before a random step of a
// random workload and closes after a later run to quiescence. Then the
// discard rule: a counter reset inside an open cause discards it.
func TestCauseIsCounterWindow(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		withWorkerCPUs(t, 4)
		scenarios := scenario.All()
		kinds := []CauseKind{CauseWithdraw, CauseAnnounce, CauseLinkFail, CauseLinkRestore}
		busy := 0 // windows in which some update was processed
		for c := 0; c < causeCases; c++ {
			src := rng.New(0xca05e1d ^ uint64(c)<<20)
			sc := scenarios[src.Intn(len(scenarios))]
			n := 100 + src.Intn(300)
			seed := src.Uint64()
			cfg := DefaultConfig(seed)
			cfg.RateLimitWithdrawals = src.Bernoulli(0.5)
			if src.Bernoulli(0.3) {
				cfg.Scope = PerPrefix
			}
			w, parts, workers := 50*des.Millisecond, 0, 0
			if src.Bernoulli(0.5) {
				w = []des.Time{des.Millisecond, 20 * des.Millisecond, 250 * des.Millisecond}[src.Intn(3)]
				cfg.LinkDelay, workers, parts = w, 1+src.Intn(4), 1+src.Intn(12)
			}
			topo, err := sc.Generate(n, seed)
			if err != nil {
				// Some scenarios fix absolute node counts that small n cannot hold.
				if topo, err = scenario.Baseline.Generate(n, seed); err != nil {
					t.Fatal(err)
				}
			}
			ops := randomScript(src, topo, w)
			// Open before step open, close after step end: a later run to
			// quiescence with no counter reset in between.
			open := src.Intn(len(ops))
			var ends []int
			for k := open; k < len(ops); k++ {
				switch {
				case ops[k].name == "reset counters":
					open, ends = k+1, ends[:0]
				case ops[k].snap:
					ends = append(ends, k)
				}
			}
			end := ends[src.Intn(len(ends))]
			kind := kinds[src.Intn(len(kinds))]
			origin := topology.NodeID(src.Intn(topo.N()))
			name := fmt.Sprintf("case %d: %s n=%d seed=%#x wrate=%v scope=%v delay=%v parts=%d workers=%d cause=[%d,%d] of %d",
				c, sc.Name, n, seed, cfg.RateLimitWithdrawals, cfg.Scope, cfg.LinkDelay, parts, workers, open, end, len(ops))

			net, err := newNetwork(topo, cfg, parts, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var before publicCounters
			var id CauseID
			var start des.Time
			for k, op := range ops {
				if k == open {
					before, start = readPublicCounters(net), net.Now()
					id = net.BeginCause(kind, origin)
				}
				if err := op.do(net); err != nil {
					t.Fatalf("%s: step %d (%s): %v", name, k, op.name, err)
				}
				if k != end {
					continue
				}
				got := net.EndCause()
				after := readPublicCounters(net)
				want := expectedAttribution(net, before, after)
				want.Cause, want.Kind, want.Origin, want.Start, want.End = id, kind, origin, start, net.Now()
				want.Duplicates, want.ImplicitWithdrawals = got.Duplicates, got.ImplicitWithdrawals
				want.ExplicitWithdrawals, want.NewAnnouncements = got.ExplicitWithdrawals, got.NewAnnouncements
				if got.Updates > 0 {
					busy++
				}
				if id == 0 || got != want {
					t.Fatalf("%s: attribution is not the counter window\ngot  %+v\nwant %+v", name, got, want)
				}
				if sum := got.Duplicates + got.ImplicitWithdrawals + got.ExplicitWithdrawals + got.NewAnnouncements; sum != got.Updates {
					t.Fatalf("%s: classes sum to %d, updates %d", name, sum, got.Updates)
				}
				// Explicit withdrawals are withdrawals; new announcements
				// and implicit withdrawals are announcements.
				if got.ExplicitWithdrawals > after.withdrs-before.withdrs ||
					got.NewAnnouncements+got.ImplicitWithdrawals > after.announcements-before.announcements {
					t.Fatalf("%s: classes %+v exceed the kinds received (%d announcements, %d withdrawals)",
						name, got, after.announcements-before.announcements, after.withdrs-before.withdrs)
				}
				if again := net.EndCause(); again != (EventAttribution{}) {
					t.Fatalf("%s: a closed cause closed again: %+v", name, again)
				}
			}
		}
		// The equalities mean something only if the windows saw updates.
		if busy*2 < causeCases {
			t.Fatalf("only %d of %d cause windows processed an update", busy, causeCases)
		}
	})

	// A delta across a counter reset means nothing: ResetCounters and Reset
	// discard the open cause, and the next one is counted afresh under a
	// new ID.
	t.Run("reset discards", func(t *testing.T) {
		topo := topology.MustGenerate(baselineParams(300, 61))
		origin := topology.NodeID(topo.N() - 1)
		resets := map[string]func(net *Network){
			"ResetCounters": func(net *Network) { net.ResetCounters() },
			"Reset":         func(net *Network) { net.Reset(7) },
		}
		for name, reset := range resets {
			net := MustNew(topo, DefaultConfig(5))
			net.Originate(origin, 1)
			net.Run()
			first := net.BeginCause(CauseWithdraw, origin)
			net.WithdrawPrefix(origin, 1)
			net.Run()
			reset(net)
			net.Originate(origin, 1)
			net.Run()
			if got := net.EndCause(); got != (EventAttribution{}) {
				t.Fatalf("%s inside a cause: EndCause = %+v, want the zero value", name, got)
			}
			before := readPublicCounters(net)
			next := net.BeginCause(CauseWithdraw, origin)
			net.WithdrawPrefix(origin, 1)
			net.Run()
			got := net.EndCause()
			want := expectedAttribution(net, before, readPublicCounters(net))
			if next <= first || got.Cause != next || got.Updates == 0 || got.ByType != want.ByType || got.Updates != want.Updates {
				t.Fatalf("%s: the next cause (%d after %d) is not its own counter window\ngot  %+v\nwant %+v", name, next, first, got, want)
			}
		}
	})
}
