package bgp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// Frozen fingerprints for the engine paths the benchmark goldens do not
// reach (those cover single-prefix, PerInterface, no-dampening runs only):
// multi-prefix origination, PerPrefix MRAI scope, flap dampening, WRATE,
// link failure/recovery (also with updates in flight on the failing
// session) and MRAI=0. Each workload is recorded once per executor (inline,
// windowed) and must be reproduced byte for byte — on the windowed executor
// by crews of 1 and 4 workers, and whatever the deprecated Config.CompactRIB says. The
// files under testdata/golden were written while a second, slice-path RIB
// engine still cross-checked them, at the commit before the kernel state was
// re-laid-out — all but the link_flap_inflight pair, recorded by this engine
// when a reset session began to discard its in-flight updates; they are the
// oracle now, so goldenSHA256 pins their bytes.
//
// Regenerate (only after an intended model change) with
//
//	go test ./internal/bgp -run TestFrozenGoldens -update-goldens
//
// which fails until goldenSHA256 is edited by hand to match.

var updateGoldens = flag.Bool("update-goldens", false, "rewrite internal/bgp/testdata/golden from the current engine")

const goldenLinkDelay = 20 * des.Millisecond

// goldenSHA256 is the SHA-256 of every file under testdata/golden.
var goldenSHA256 = map[string]string{
	"dampening.inline.golden":            "d31a2a94ecea5d4961232b4f94a710c12fed580d2b57e963eb0c73219f199734",
	"dampening.windowed.golden":          "ce8ddca6593f0bd04e5500fc6e0ac187a880818156c8244bac474cd6540c77af",
	"link_flap.inline.golden":            "78649bc05df86a7a4b49a886dea448e9553f44cf6e15ff5eda9a266098eab692",
	"link_flap.windowed.golden":          "3b3428bcac6a961d6aacf1a9ab75cfc18c696074eec2079ffd3fbf67dbd624d9",
	"link_flap_inflight.inline.golden":   "598e15884874ac5a86714f51f3ce47b2391cf071863e6eea90728756beb1b600",
	"link_flap_inflight.windowed.golden": "4fd042fe38c0d3d3028f7c186f37082799bc2f2a5f55022f6f600d97f0e3be7c",
	"mrai0.inline.golden":                "ccbeddf07bda364869c8c1184bfd65da5cd4d3372ea41b2ece0c60feed48b334",
	"mrai0.windowed.golden":              "b315c8e219c4e9738a68d3dccfafd6f635a272748708eb072a9ddf98944a9097",
	"multi_prefix.inline.golden":         "71191e5f7660dbcb537e701b4551cda2e55f00506338e5f3adf8dbc9dd564639",
	"multi_prefix.windowed.golden":       "0ecf96f7efd37cefbaccc004fa7b5a9631eaef25acde7622df80d55f7547064e",
	"per_prefix_scope.inline.golden":     "264e953fa4592f0d2f4836e1c24b08aebf85dce85b0f99d0677d53712db8bad7",
	"per_prefix_scope.windowed.golden":   "cc27092a1d1e6324ae9be3203da5f31f11d736b73d3cb5b1d373dfff8c4d537d",
	"wrate.inline.golden":                "05ee0e791a60eee8d25e2b073c6e2c4be81e9cd9b1ce1d2e7e8bca35e8fbd640",
	"wrate.windowed.golden":              "a918424ad20d5138a517617642db2bc20a0db5d5ad95752cc8686cd3869170fa",
}

// goldenRecorder accumulates the fingerprint of one run: a block per phase
// with the network aggregates, the U(X) CSV by node type and a digest of
// every node's counters and routes.
type goldenRecorder struct {
	buf      bytes.Buffer
	prefixes []Prefix
}

func (g *goldenRecorder) snapshot(phase string, net *Network) {
	topo := net.Topology()
	fmt.Fprintf(&g.buf, "## %s\ntotal=%d peak=%d now=%d pending=%d\n",
		phase, net.TotalUpdates(), net.PeakUpdateRate(), int64(net.Now()), net.Pending())
	var byType [4]NodeCounters
	var nodes [4]int
	h := sha256.New()
	for i := 0; i < topo.N(); i++ {
		id := topology.NodeID(i)
		c := net.Counters(id)
		typ := topo.Nodes[i].Type
		nodes[typ]++
		a := &byType[typ]
		a.Received += c.Received
		a.Announcements += c.Announcements
		a.Withdrawals += c.Withdrawals
		a.Sent += c.Sent
		a.RouteChanges += c.RouteChanges
		a.Suppressions += c.Suppressions
		fmt.Fprintf(h, "%d %v rib=%d adj=%d", i, c, net.RIBSize(id), net.AdjRIBInSize(id))
		for _, f := range g.prefixes {
			fmt.Fprintf(h, " %d:%v>%d", f, net.BestPath(id, f), net.NextHop(id, f))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintln(&g.buf, "type,nodes,U,announcements,withdrawals,sent,route_changes,suppressions")
	for _, typ := range topology.NodeTypes {
		a := &byType[typ]
		fmt.Fprintf(&g.buf, "%s,%d,%.17g,%d,%d,%d,%d,%d\n", typ, nodes[typ],
			float64(a.Received)/float64(nodes[typ]), a.Announcements, a.Withdrawals, a.Sent, a.RouteChanges, a.Suppressions)
	}
	fmt.Fprintf(&g.buf, "nodes_sha256=%x\n", h.Sum(nil))
}

// goldenCase is one frozen workload.
type goldenCase struct {
	name string
	cfg  func(seed uint64) Config
	run  func(t *testing.T, g *goldenRecorder, net *Network)
}

// multihomedStubs returns the first k C nodes with at least two providers.
func multihomedStubs(t *testing.T, topo *topology.Topology, k int) []topology.NodeID {
	t.Helper()
	var out []topology.NodeID
	for _, id := range topo.NodesOfType(topology.C) {
		if len(topo.Nodes[id].Providers) >= 2 {
			out = append(out, id)
			if len(out) == k {
				return out
			}
		}
	}
	t.Fatalf("topology has fewer than %d multihomed stubs", k)
	return nil
}

// multiPrefixWorkload announces three prefixes from two origins, then runs a
// simultaneous C-event on two of them.
func multiPrefixWorkload(t *testing.T, g *goldenRecorder, net *Network) {
	o := multihomedStubs(t, net.Topology(), 2)
	g.prefixes = []Prefix{1, 2, 3}
	net.Originate(o[0], 1)
	net.Originate(o[0], 2)
	net.Originate(o[1], 3)
	net.Run()
	g.snapshot("announce", net)
	net.Settle(60 * des.Second)
	net.ResetCounters()
	net.WithdrawPrefix(o[0], 1)
	net.WithdrawPrefix(o[1], 3)
	net.Run()
	g.snapshot("down", net)
	net.Settle(60 * des.Second)
	net.Originate(o[0], 1)
	net.Originate(o[1], 3)
	net.Run()
	g.snapshot("up", net)
}

// cEventWorkload is the paper's single-prefix C-event.
func cEventWorkload(t *testing.T, g *goldenRecorder, net *Network) {
	o := multihomedStubs(t, net.Topology(), 1)[0]
	g.prefixes = []Prefix{1}
	net.Originate(o, 1)
	net.Run()
	g.snapshot("announce", net)
	net.Settle(60 * des.Second)
	net.ResetCounters()
	net.WithdrawPrefix(o, 1)
	net.Run()
	g.snapshot("down", net)
	net.Settle(60 * des.Second)
	net.Originate(o, 1)
	net.Run()
	g.snapshot("up", net)
}

// flapWorkload flaps one origin hard enough to trip dampening, snapshots
// mid-suppression and again after every reuse timer has fired.
func flapWorkload(t *testing.T, g *goldenRecorder, net *Network) {
	o := multihomedStubs(t, net.Topology(), 1)[0]
	g.prefixes = []Prefix{1}
	net.Originate(o, 1)
	net.Run()
	net.Settle(60 * des.Second)
	net.ResetCounters()
	for i := 0; i < 5; i++ {
		net.WithdrawPrefix(o, 1)
		net.RunUntil(net.Now() + 40*des.Second)
		net.Originate(o, 1)
		net.RunUntil(net.Now() + 40*des.Second)
	}
	g.snapshot("flapped", net)
	net.Run()
	g.snapshot("reused", net)
}

// linkWorkload fails and restores an access link of the origin and a core
// link while two prefixes are routed.
func linkWorkload(t *testing.T, g *goldenRecorder, net *Network) {
	topo := net.Topology()
	o := multihomedStubs(t, topo, 2)
	g.prefixes = []Prefix{1, 2}
	net.Originate(o[0], 1)
	net.Originate(o[1], 2)
	net.Run()
	net.Settle(60 * des.Second)
	net.ResetCounters()
	access := topo.Nodes[o[0]].Providers[0]
	core := topo.NodesOfType(topology.T)[0]
	coreCust := topo.Nodes[core].Customers[0]
	for _, l := range [][2]topology.NodeID{{o[0], access}, {core, coreCust}} {
		if err := net.FailLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	g.snapshot("links-down", net)
	// Restore one link while the other's MRAI timers are still running.
	if err := net.RestoreLink(core, coreCust); err != nil {
		t.Fatal(err)
	}
	net.RunUntil(net.Now() + 5*des.Second)
	if err := net.RestoreLink(o[0], access); err != nil {
		t.Fatal(err)
	}
	net.Run()
	g.snapshot("links-up", net)
}

// linkInflightWorkload resets the origin's access session while updates are
// in flight over it, which a reset session discards: right after the origin
// withdraws (the withdrawal toward the provider is dropped), and twice
// right after the link comes back (both ends' table re-exchange is dropped),
// the second time with the re-announcement still converging elsewhere.
func linkInflightWorkload(t *testing.T, g *goldenRecorder, net *Network) {
	topo := net.Topology()
	o := multihomedStubs(t, topo, 2)
	g.prefixes = []Prefix{1, 2}
	net.Originate(o[0], 1)
	net.Originate(o[1], 2)
	net.Run()
	net.Settle(60 * des.Second)
	net.ResetCounters()
	access := topo.Nodes[o[0]].Providers[0]
	flap := func(restore bool) {
		t.Helper()
		if restore {
			if err := net.RestoreLink(o[0], access); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.FailLink(o[0], access); err != nil {
			t.Fatal(err)
		}
	}
	net.WithdrawPrefix(o[0], 1)
	flap(false)
	net.RunUntil(net.Now() + 2*des.Second)
	flap(true)
	net.Run()
	g.snapshot("down-flapped", net)
	net.Settle(60 * des.Second)
	net.Originate(o[0], 1)
	net.RunUntil(net.Now() + 2*des.Second)
	flap(true)
	net.Run()
	g.snapshot("up-flapped", net)
	if err := net.RestoreLink(o[0], access); err != nil {
		t.Fatal(err)
	}
	net.Run()
	g.snapshot("restored", net)
}

var goldenCases = []goldenCase{
	{"multi_prefix", DefaultConfig, multiPrefixWorkload},
	{"per_prefix_scope", func(seed uint64) Config {
		c := WRATEConfig(seed)
		c.Scope = PerPrefix
		return c
	}, multiPrefixWorkload},
	{"dampening", func(seed uint64) Config {
		c := DefaultConfig(seed)
		c.Dampening = DefaultDampening()
		return c
	}, flapWorkload},
	{"wrate", WRATEConfig, cEventWorkload},
	{"link_flap", DefaultConfig, linkWorkload},
	{"link_flap_inflight", DefaultConfig, linkInflightWorkload},
	{"mrai0", func(seed uint64) Config {
		c := DefaultConfig(seed)
		c.MRAI = 0
		return c
	}, cEventWorkload},
}

func TestFrozenGoldens(t *testing.T) {
	topo := topology.MustGenerate(baselineParams(500, 77))
	for _, gc := range goldenCases {
		for _, windowed := range []bool{false, true} {
			executor, shardCounts := "inline", []int{1}
			if windowed {
				executor, shardCounts = "windowed", []int{1, 4}
			}
			base := gc.name + "." + executor + ".golden"
			file := filepath.Join("testdata", "golden", base)
			var want []byte
			// The compact leg is what is left of the engine dimension: the
			// field is ignored, and stays only until benchmark/ stops
			// assigning it.
			for _, compact := range []bool{false, true} {
				for _, shards := range shardCounts {
					cfg := gc.cfg(11)
					cfg.CompactRIB = compact
					cfg.Check = true
					if windowed {
						cfg.LinkDelay = goldenLinkDelay
					}
					t.Run(fmt.Sprintf("%s/%s/compact=%v/shards=%d", gc.name, executor, compact, shards), func(t *testing.T) {
						var g goldenRecorder
						net, err := newNetwork(topo, cfg, 0, shards)
						if err != nil {
							t.Fatal(err)
						}
						gc.run(t, &g, net)
						if err := net.CheckConsistency(); err != nil {
							t.Fatal(err)
						}
						got := g.buf.Bytes()
						if want == nil {
							if *updateGoldens {
								if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
									t.Fatal(err)
								}
								if err := os.WriteFile(file, got, 0o644); err != nil {
									t.Fatal(err)
								}
							}
							if want, err = os.ReadFile(file); err != nil {
								t.Fatal(err)
							}
							if sum := fmt.Sprintf("%x", sha256.Sum256(want)); sum != goldenSHA256[base] {
								t.Fatalf("%s has SHA-256 %s, pinned %s: the oracle was rewritten", file, sum, goldenSHA256[base])
							}
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("fingerprint differs from %s:\n--- got\n%s--- want\n%s", file, got, want)
						}
					})
				}
			}
		}
	}
}
