package bgp

import (
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/topology"
)

// sentUpdates is the number of updates the network's nodes have transmitted
// in the current measurement window.
func sentUpdates(net *Network) uint64 {
	var n uint64
	for i := 0; i < net.Topology().N(); i++ {
		n += net.Counters(topology.NodeID(i)).Sent
	}
	return n
}

// TestObsPublishedAtRunBoundary pins when the engine's counts reach the
// metrics hub: at the end of every run, and before anything that rewinds
// the counts (Reset, Grow) or detaches the hub — never per
// event, and never lost. A windowed run publishes after its workers join,
// so the partition count leaves the totals alone.
func TestObsPublishedAtRunBoundary(t *testing.T) {
	t.Run("rewinds", testPublishedAcrossRewinds)
	t.Run("windowed", testPublishedWindowed)
}

func testPublishedAcrossRewinds(t *testing.T) {
	small := topology.MustGenerate(growTestParams(300, 71))
	big := topology.MustGrow(small, growTestParams(500, 72))
	origin := topology.NodeID(small.N() - 1)

	m := obs.New()
	net := MustNew(small, DefaultConfig(5))
	net.SetObs(m)
	// baseSent and baseUpdates hold the window counts every rewind zeroed;
	// fired sums what the runs returned.
	var baseSent, baseUpdates, fired uint64
	published := func(step string) {
		t.Helper()
		sent := m.BGP.AnnouncementsSent.Value() + m.BGP.WithdrawalsSent.Value()
		if want := baseSent + sentUpdates(net); sent != want {
			t.Errorf("%s: hub has %d updates sent, want %d", step, sent, want)
		}
		if got, want := m.BGP.UpdatesProcessed.Value(), baseUpdates+net.TotalUpdates(); got != want {
			t.Errorf("%s: hub has %d updates processed, want %d", step, got, want)
		}
		if got := m.DES.EventsFired.Value(); got != fired {
			t.Errorf("%s: hub has %d events fired, want %d", step, got, fired)
		}
	}
	rewind := func() {
		baseSent += sentUpdates(net)
		baseUpdates += net.TotalUpdates()
	}

	// A send outside a run is counted by the next Run, not before.
	net.Originate(origin, 1)
	if sentUpdates(net) == 0 {
		t.Fatal("Originate transmitted nothing")
	}
	if got := m.BGP.AnnouncementsSent.Value(); got != 0 {
		t.Errorf("Originate's sends reached the hub before a run: %d", got)
	}
	fired += net.Run()
	published("after Run")

	// Reset publishes the sends WithdrawPrefix made outside a run.
	net.WithdrawPrefix(origin, 1)
	rewind()
	net.Reset(6)
	published("after Reset")

	// ResetCounters loses nothing: updates are processed only inside runs,
	// and each run has published its own.
	net.Originate(origin, 1)
	fired += net.Run()
	fired += net.Settle(60 * des.Second)
	rewind()
	net.ResetCounters()
	published("after ResetCounters")

	// Grow publishes before it replaces the shards.
	net.WithdrawPrefix(origin, 1)
	rewind()
	if err := net.Grow(big, 7); err != nil {
		t.Fatal(err)
	}
	published("after Grow")

	// SetObs(nil) publishes what is pending; the detached network's later
	// counts go nowhere.
	net.Originate(origin, 1)
	net.SetObs(nil)
	published("after SetObs(nil)")
	rewind()
	net.Reset(8)
	net.Originate(origin, 1)
	net.Run()
	net.Reset(9)
	published("after a detached Run")
}

// testPublishedWindowed: the same windowed C-event on four workers and on
// one leaves the same counts in the hub.
func testPublishedWindowed(t *testing.T) {
	withWorkerCPUs(t, 4)
	topo := topology.MustGenerate(growTestParams(600, 73))
	origin := multihomedStubs(t, topo, 1)[0]
	run := func(workers int) *obs.Metrics {
		cfg := DefaultConfig(3)
		cfg.LinkDelay = des.Millisecond
		net, err := newNetwork(topo, cfg, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		m := obs.New()
		net.SetObs(m)
		windowedCEvent(net, origin)
		return m
	}
	one, four := run(1), run(4)
	for _, c := range []struct {
		name     string
		one, got *obs.Counter
	}{
		{"updates processed", one.BGP.UpdatesProcessed, four.BGP.UpdatesProcessed},
		{"announcements", one.BGP.AnnouncementsSent, four.BGP.AnnouncementsSent},
		{"withdrawals", one.BGP.WithdrawalsSent, four.BGP.WithdrawalsSent},
		{"MRAI flushes", one.BGP.MRAIFlushes, four.BGP.MRAIFlushes},
		{"empty MRAI flushes", one.BGP.MRAIEmptyFlushes, four.BGP.MRAIEmptyFlushes},
		{"interned paths", one.BGP.InternedPaths, four.BGP.InternedPaths},
		{"barriers", one.Shards.Barriers, four.Shards.Barriers},
	} {
		if c.one.Value() != c.got.Value() {
			t.Errorf("%s: four workers published %d, one %d", c.name, c.got.Value(), c.one.Value())
		}
	}
	if one.BGP.UpdatesProcessed.Value() == 0 {
		t.Fatal("the windowed C-event processed no updates")
	}
	if four.Shards.CrossUpdates.Value() == 0 {
		t.Fatal("four workers exchanged no cross-partition updates")
	}
	// The coordinator observes the worker skew once per window.
	for _, m := range []*obs.Metrics{one, four} {
		if got, want := m.Shards.WindowSkew.Snapshot().Count, m.Shards.Barriers.Value(); got != want {
			t.Errorf("%d skew observations for %d windows", got, want)
		}
	}
}
