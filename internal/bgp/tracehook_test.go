package bgp

import (
	"testing"

	"bgpchurn/internal/topology"
)

func TestUpdateHookObservesEveryUpdate(t *testing.T) {
	topo := build(t,
		[]topology.NodeType{topology.T, topology.M, topology.C},
		[][2]topology.NodeID{{0, 1}, {1, 2}}, nil)
	net := MustNew(topo, fastConfig(1))
	var records []UpdateRecord
	net.SetUpdateHook(func(r UpdateRecord) { records = append(records, r) })
	net.Originate(2, 1)
	net.Run()
	if uint64(len(records)) != net.TotalUpdates() {
		t.Fatalf("hook saw %d updates, network counted %d", len(records), net.TotalUpdates())
	}
	// First delivery: C2's announcement to M1.
	first := records[0]
	if first.From != 2 || first.To != 1 || first.Kind != Announce || !first.Path.Equal(Path{2}) {
		t.Fatalf("first record = %+v", first)
	}
	net.WithdrawPrefix(2, 1)
	net.Run()
	last := records[len(records)-1]
	if last.Kind != Withdraw || last.Path != nil {
		t.Fatalf("last record not a withdrawal: %+v", last)
	}
	// Uninstall: no further records.
	n := len(records)
	net.SetUpdateHook(nil)
	net.Originate(2, 1)
	net.Run()
	if len(records) != n {
		t.Fatal("hook fired after uninstall")
	}
}
