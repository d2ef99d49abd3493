package bgp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bgpchurn/internal/des"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// owner is one holder of a Network's heap and the bytes it holds.
type owner struct {
	name  string
	bytes uintptr
}

// networkOwners sums, from lengths and capacities alone, the bytes each
// owner of net's heap holds: the node array, the session rows, the output
// queues, the touched bytes, the shards' queue spills, the shards with their
// schedulers' rings and far heaps, the inboxes, the prefix states beyond
// each node's inline one, the path intern table and WarmStart's scratch.
// Map storage is counted as its entries' keys and values, so a spill's sum
// is a lower bound.
func networkOwners(net *Network) []owner {
	var spills, shards, inboxes, prefixes uintptr
	for _, sh := range net.shards {
		// The shard's queues are a window of the network's.
		own := *sh
		own.outq, own.spills = nil, nil
		shards += unsafe.Sizeof(own) + sliceBytes(reflect.ValueOf(own))
		spills += uintptr(cap(sh.spills)) * unsafe.Sizeof((*queueSpill)(nil))
		for _, sp := range sh.spills {
			if sp == nil {
				continue
			}
			spills += unsafe.Sizeof(*sp)
			spills += uintptr(len(sp.sent)+len(sp.pending)) * (unsafe.Sizeof(Prefix(0)) + unsafe.Sizeof(NoPath))
			spills += uintptr(len(sp.timers)) * (unsafe.Sizeof(Prefix(0)) + unsafe.Sizeof(sp) + unsafe.Sizeof(prefixTimer{}))
		}
	}
	for _, gen := range net.outbox {
		shards += sliceBytes(reflect.ValueOf(gen))
	}
	shards += sliceBytes(reflect.ValueOf(net.shards)) + sliceBytes(reflect.ValueOf(net.order)) + sliceBytes(reflect.ValueOf(net.partOf))
	cold := func(ps *prefixState) uintptr {
		if ps.cold == nil {
			return 0
		}
		return unsafe.Sizeof(*ps.cold) + sliceBytes(reflect.ValueOf(ps.cold).Elem())
	}
	for i := range net.nodes {
		nd := &net.nodes[i]
		inboxes += uintptr(cap(nd.inbox)) * unsafe.Sizeof(inMsg{})
		prefixes += cold(&nd.prefixes.first)
		if sp := nd.prefixes.more; sp != nil {
			prefixes += unsafe.Sizeof(*sp) + uintptr(cap(sp.free))*unsafe.Sizeof(sp)
			for _, ps := range sp.m {
				prefixes += unsafe.Sizeof(Prefix(0)) + unsafe.Sizeof(ps) + unsafe.Sizeof(*ps) + cold(ps)
			}
			for _, ps := range sp.free {
				prefixes += unsafe.Sizeof(*ps) + cold(ps)
			}
		}
	}
	it := net.intern
	intern := unsafe.Sizeof(*it) + sliceBytes(reflect.ValueOf(it).Elem())
	dir := *it.dir.Load()
	intern += uintptr(cap(dir))*unsafe.Sizeof(dir[0]) + uintptr(len(dir))*unsafe.Sizeof(internChunk{})
	return []owner{
		{"Network", unsafe.Sizeof(*net) + uintptr(cap(net.recvScratch))*4},
		{"nodes", uintptr(cap(net.nodes)) * unsafe.Sizeof(node{})},
		{"session rows", uintptr(cap(net.sess)) * unsafe.Sizeof(session{})},
		{"output queues", uintptr(cap(net.outq)) * unsafe.Sizeof(outQueue{})},
		{"touched", uintptr(cap(net.touched))},
		{"queue spills", spills},
		{"shards (scheduler ring, far heap)", shards},
		{"inboxes", inboxes},
		{"prefix states beyond the first", prefixes},
		{"intern table", intern},
		{"warm-start scratch", sliceBytes(reflect.ValueOf(&net.ws).Elem())},
	}
}

// sliceBytes sums the backing arrays of every slice reachable from v
// through struct fields, array elements and the elements of those slices,
// following no pointer, map or interface: capacities times element sizes.
func sliceBytes(v reflect.Value) uintptr {
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		var n uintptr
		if v.Kind() == reflect.Slice {
			n = uintptr(v.Cap()) * v.Type().Elem().Size()
		}
		if k := v.Type().Elem().Kind(); k == reflect.Slice || k == reflect.Struct || k == reflect.Array {
			for i := range v.Len() {
				n += sliceBytes(v.Index(i))
			}
		}
		return n
	case reflect.Struct:
		var n uintptr
		for i := range v.NumField() {
			n += sliceBytes(v.Field(i))
		}
		return n
	}
	return 0
}

// formatOwners renders owners as a table with each one's share and its
// bytes per node and per session.
func formatOwners(owners []owner, nodes, sessions int) (string, uintptr) {
	var total uintptr
	for _, o := range owners {
		total += o.bytes
	}
	var b strings.Builder
	for _, o := range owners {
		fmt.Fprintf(&b, "%-34s %10d B %5.1f %% %7.1f B/node %6.1f B/session\n", o.name, o.bytes,
			100*float64(o.bytes)/float64(total), float64(o.bytes)/float64(nodes), float64(o.bytes)/float64(sessions))
	}
	fmt.Fprintf(&b, "%-34s %10d B %7s %7.1f B/node %6.1f B/session\n", "total", total, "",
		float64(total)/float64(nodes), float64(total)/float64(sessions))
	return b.String(), total
}

// TestNetworkOwnersAccountForHeap holds the engine's bytes by owner, summed
// from lengths and capacities, to the live heap a warm C-event's Network
// takes on BASELINE n = 5000: within 10 % of the heap's growth across New and
// the event, measured after a collection. An owner the sum misses, or a
// structure that grows outside the owners, fails here.
func TestNetworkOwnersAccountForHeap(t *testing.T) {
	topo, err := scenario.Baseline.Generate(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sessions := len(topo.CSR().IDs) // the shared CSR block is the topology's, not the Network's
	origin := topo.NodesOfType(topology.C)[0]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := MustNew(topo, DefaultConfig(1))
	net.WarmStart(origin, 1)
	net.WithdrawPrefix(origin, 1)
	net.Run()
	net.Settle(60 * des.Second)
	net.Originate(origin, 1)
	net.Run()
	runtime.GC()
	runtime.ReadMemStats(&after)
	table, sum := formatOwners(networkOwners(net), topo.N(), sessions)
	runtime.KeepAlive(net)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("n=%d, %d sessions, live heap growth %.0f B\n%s", topo.N(), sessions, live, table)
	if miss := (live - float64(sum)) / live; miss > 0.10 || miss < -0.10 {
		t.Errorf("owners sum to %d B, live heap grew %.0f B: %.1f %% unaccounted", sum, live, 100*miss)
	}
}
