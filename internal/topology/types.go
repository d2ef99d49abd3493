// Package topology implements the paper's controllable AS-level topology
// model (§3): four node types arranged in a customer–provider hierarchy with
// peering links, geographic regions, and preferential attachment, driven by
// the operational parameters of Table 1.
//
// A Topology is an annotated graph: every adjacency is either a transit
// (customer–provider) relationship or a settlement-free peering. The
// generator enforces the paper's structural invariants: the provider
// relation is acyclic (hierarchy), nodes only connect within shared regions,
// and no node peers with a member of its own customer tree.
package topology

import (
	"fmt"
	"math/bits"
	"sync"
)

// NodeID is a dense node index in [0, N).
type NodeID int32

// None is the invalid NodeID.
const None NodeID = -1

// NodeType classifies an AS per the paper's four-tier taxonomy.
type NodeType uint8

const (
	// T is a tier-1 transit provider: no providers, clique-peered with all
	// other T nodes, present in every region.
	T NodeType = iota
	// M is a mid-level transit provider with one or more providers and
	// optional M-M peering.
	M
	// CP is a stub content provider; it has providers and may peer with M
	// and CP nodes.
	CP
	// C is a stub customer network; it has providers and never peers.
	C
	numNodeTypes
)

// NodeTypes lists all types in hierarchy order, for iteration.
var NodeTypes = [...]NodeType{T, M, CP, C}

// String returns the paper's name for the node type.
func (t NodeType) String() string {
	switch t {
	case T:
		return "T"
	case M:
		return "M"
	case CP:
		return "CP"
	case C:
		return "C"
	}
	return fmt.Sprintf("NodeType(%d)", uint8(t))
}

// Relation is the business relationship of a neighbor, from the local
// node's point of view.
type Relation int8

const (
	// Customer: the neighbor buys transit from us.
	Customer Relation = iota
	// Peer: settlement-free peering.
	Peer
	// Provider: we buy transit from the neighbor.
	Provider
	// NotConnected is returned for non-adjacent node pairs.
	NotConnected Relation = -1
)

// String returns a short name for the relation.
func (r Relation) String() string {
	switch r {
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Provider:
		return "provider"
	case NotConnected:
		return "none"
	}
	return fmt.Sprintf("Relation(%d)", int8(r))
}

// Invert returns the relation as seen from the other end of the link.
func (r Relation) Invert() Relation {
	switch r {
	case Customer:
		return Provider
	case Provider:
		return Customer
	default:
		return r
	}
}

// RegionSet is a bitmask of the regions a node is present in. The model
// supports up to 32 regions; the Baseline uses 5.
type RegionSet uint32

// HasRegion reports whether region i is in the set.
func (s RegionSet) HasRegion(i int) bool { return s&(1<<uint(i)) != 0 }

// Add returns the set with region i added.
func (s RegionSet) Add(i int) RegionSet { return s | 1<<uint(i) }

// Overlaps reports whether the two sets share a region. Only nodes with
// overlapping region sets may connect.
func (s RegionSet) Overlaps(o RegionSet) bool { return s&o != 0 }

// Count returns the number of regions in the set.
func (s RegionSet) Count() int { return bits.OnesCount32(uint32(s)) }

// Node is one AS. Neighbor lists are segregated by relation; the same
// neighbor never appears in two lists.
type Node struct {
	ID        NodeID
	Type      NodeType
	Regions   RegionSet
	Providers []NodeID
	Customers []NodeID
	Peers     []NodeID
}

// Degree returns the node's total degree across all relations.
func (n *Node) Degree() int {
	return len(n.Providers) + len(n.Customers) + len(n.Peers)
}

// MHD returns the node's multihoming degree (its number of providers).
func (n *Node) MHD() int { return len(n.Providers) }

// Topology is an immutable annotated AS graph produced by Generate.
type Topology struct {
	Nodes      []Node
	NumRegions int
	Seed       uint64 // generator seed, kept for provenance

	// csrOnce/csr lazily cache the flattened CSR adjacency (see CSR);
	// unexported so struct-literal construction and serialization are
	// unaffected. The sync.Once makes a Topology non-copyable, which it
	// already was by contract (immutable, shared by pointer).
	csrOnce sync.Once
	csr     *Adjacency
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Nodes) }

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) *Node { return &t.Nodes[id] }

// Relation returns the relation of b as seen from a, or NotConnected.
func (t *Topology) Relation(a, b NodeID) Relation {
	n := &t.Nodes[a]
	for _, v := range n.Customers {
		if v == b {
			return Customer
		}
	}
	for _, v := range n.Peers {
		if v == b {
			return Peer
		}
	}
	for _, v := range n.Providers {
		if v == b {
			return Provider
		}
	}
	return NotConnected
}

// NodesOfType returns the IDs of all nodes of the given type.
func (t *Topology) NodesOfType(typ NodeType) []NodeID {
	var ids []NodeID
	for i := range t.Nodes {
		if t.Nodes[i].Type == typ {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// CountByType returns the node count per type, indexed by NodeType.
func (t *Topology) CountByType() [4]int {
	var c [4]int
	for i := range t.Nodes {
		c[t.Nodes[i].Type]++
	}
	return c
}

// Edges returns the total number of links (transit + peering).
func (t *Topology) Edges() (transit, peering int) {
	for i := range t.Nodes {
		transit += len(t.Nodes[i].Customers)
		peering += len(t.Nodes[i].Peers)
	}
	return transit, peering / 2
}

// InCustomerTree reports whether descendant lies in ancestor's customer
// cone (reachable via customer edges). Runs a DFS with early exit.
func (t *Topology) InCustomerTree(ancestor, descendant NodeID) bool {
	if ancestor == descendant {
		return false
	}
	seen := make(map[NodeID]struct{})
	stack := append([]NodeID(nil), t.Nodes[ancestor].Customers...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == descendant {
			return true
		}
		if _, ok := seen[u]; ok {
			continue
		}
		seen[u] = struct{}{}
		stack = append(stack, t.Nodes[u].Customers...)
	}
	return false
}
