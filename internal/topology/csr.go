package topology

// Adjacency is the flattened CSR (compressed sparse row) view of a
// topology's neighbor lists. Row i spans [Offsets[i], Offsets[i+1]) in the
// column arrays; within a row, slots follow the node's lists in order
// (customers, then peers, then providers), so a CSR slot index is
// interchangeable with the slot index every simulation engine uses. It is
// the one graph form every walk after Validate reads: the BGP engine, the
// structural statistics (metrics.go) and compact routing.
//
// The arrays are immutable once built and shared by every consumer of the
// topology: simulation engines lay their per-neighbor state out parallel to
// them and sub-slice rows instead of allocating per-node neighbor lists,
// which keeps the hot transmit→decide→reconcile loop walking contiguous
// memory.
type Adjacency struct {
	// Offsets has length N+1; node i's slots are Offsets[i]..Offsets[i+1].
	Offsets []int32
	// IDs[k] is the neighbor node ID at slot k.
	IDs []NodeID
	// Rels[k] is the relation of IDs[k] as seen from the row's node.
	Rels []Relation
	// Reverse[k] is the row node's slot index inside neighbor IDs[k]'s row,
	// so a message can be attributed to its sending session without a
	// lookup. -1 marks an asymmetric adjacency (invalid topology).
	Reverse []int32
}

// N returns the number of nodes.
func (a *Adjacency) N() int { return len(a.Offsets) - 1 }

// Degree returns node id's total neighbor count.
func (a *Adjacency) Degree(id NodeID) int {
	return int(a.Offsets[id+1] - a.Offsets[id])
}

// Row returns node id's slot range [lo, hi) in the column arrays.
func (a *Adjacency) Row(id NodeID) (lo, hi int32) {
	return a.Offsets[id], a.Offsets[id+1]
}

// neighbors returns node id's row of neighbor IDs.
func (a *Adjacency) neighbors(id NodeID) []NodeID {
	return a.IDs[a.Offsets[id]:a.Offsets[id+1]]
}

// Symmetric reports whether every slot found its reverse slot, i.e. the
// adjacency lists agree in both directions.
func (a *Adjacency) Symmetric() bool {
	for _, r := range a.Reverse {
		if r < 0 {
			return false
		}
	}
	return true
}

// CSR returns the topology's flattened adjacency, building it on first use
// and caching it; the result is shared and must not be mutated. Safe for
// concurrent use: parallel experiment workers running separate networks
// over one topology share a single copy.
func (t *Topology) CSR() *Adjacency {
	t.csrOnce.Do(func() { t.csr = buildCSR(t) })
	return t.csr
}

// buildCSR flattens the per-node neighbor lists into one CSR block and
// pairs every slot with its reverse by transposition: slots are bucketed by
// target, and each row then marks where it lists every neighbor (the last
// listing wins) and hands those positions to the slots pointing at it. A
// slot whose target is out of range or does not list its row back keeps -1.
// uint32(v) < uint32(n) is the range test: a negative v wraps above n.
func buildCSR(t *Topology) *Adjacency {
	n := t.N()
	a := &Adjacency{Offsets: make([]int32, n+1)}
	total := 0
	for i := range t.Nodes {
		total += t.Nodes[i].Degree()
		a.Offsets[i+1] = int32(total)
	}
	a.IDs = make([]NodeID, total)
	a.Rels = make([]Relation, total)
	a.Reverse = make([]int32, total)
	// inStart[j+1] counts the slots that name node j, then becomes the
	// start of j's bucket in in.
	inStart := make([]int32, n+1)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		k := a.Offsets[i]
		for rel, list := range [...][]NodeID{Customer: nd.Customers, Peer: nd.Peers, Provider: nd.Providers} {
			for _, v := range list {
				a.IDs[k] = v
				a.Rels[k] = Relation(rel)
				if uint32(v) < uint32(n) {
					inStart[v+1]++
				}
				k++
			}
		}
	}
	for j := 0; j < n; j++ {
		inStart[j+1] += inStart[j]
	}
	// in holds, bucketed by target, the slots naming each node; Reverse
	// holds each bucketed slot's row until the slot is answered.
	in := make([]int32, inStart[n])
	fill := append([]int32(nil), inStart[:n]...)
	for i := 0; i < n; i++ {
		for k := a.Offsets[i]; k < a.Offsets[i+1]; k++ {
			v := a.IDs[k]
			if uint32(v) >= uint32(n) {
				a.Reverse[k] = -1
				continue
			}
			in[fill[v]] = k
			fill[v]++
			a.Reverse[k] = int32(i)
		}
	}
	// mark[i] is the position of node i in the current row, -1 if absent.
	mark := fill
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		lo, hi := a.Offsets[j], a.Offsets[j+1]
		for k := lo; k < hi; k++ {
			if v := a.IDs[k]; uint32(v) < uint32(n) {
				mark[v] = k - lo
			}
		}
		for _, k := range in[inStart[j]:inStart[j+1]] {
			a.Reverse[k] = mark[a.Reverse[k]]
		}
		for k := lo; k < hi; k++ {
			if v := a.IDs[k]; uint32(v) < uint32(n) {
				mark[v] = -1
			}
		}
	}
	return a
}
