package obs_test

import (
	"sync"
	"testing"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// TestCounterShardingSumsAcrossShards: several Networks publishing into one
// hub from their own goroutines — what concurrent origin workers and grid
// cells do — sum exactly: the hub's totals are the sums of what each
// network counted.
func TestCounterShardingSumsAcrossShards(t *testing.T) {
	topo, err := scenario.Baseline.Generate(300, 81)
	if err != nil {
		t.Fatal(err)
	}
	origins := topo.NodesOfType(topology.C)[:6]
	m := obs.New()
	updates := make([]uint64, len(origins))
	fired := make([]uint64, len(origins))
	var wg sync.WaitGroup
	for i, origin := range origins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := bgp.MustNew(topo, bgp.DefaultConfig(uint64(i)))
			net.SetObs(m)
			net.Originate(origin, 1)
			fired[i] += net.Run()
			net.WithdrawPrefix(origin, 1)
			fired[i] += net.Run()
			updates[i] = net.TotalUpdates()
		}()
	}
	wg.Wait()
	var wantUpdates, wantFired uint64
	for i := range origins {
		wantUpdates += updates[i]
		wantFired += fired[i]
	}
	if got := m.BGP.UpdatesProcessed.Value(); got != wantUpdates || got == 0 {
		t.Errorf("hub has %d updates processed, the networks %d", got, wantUpdates)
	}
	if got := m.DES.EventsFired.Value(); got != wantFired {
		t.Errorf("hub has %d events fired, the networks %d", got, wantFired)
	}
}
