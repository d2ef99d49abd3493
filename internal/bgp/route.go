package bgp

import (
	"fmt"
	"strings"

	"bgpchurn/internal/topology"
)

// Prefix identifies one routable destination. The experiments of the paper
// use a single prefix per C-event; the engine supports any number.
type Prefix int32

// Path is an AS path: Path[0] is the AS that sent the announcement and
// Path[len-1] is the origin AS. A node's own originated prefix has the
// empty path in its Loc-RIB and is exported as [self].
type Path []topology.NodeID

// Contains reports whether the path includes id (loop detection).
func (p Path) Contains(id topology.NodeID) bool {
	for _, v := range p {
		if v == id {
			return true
		}
	}
	return false
}

// Equal reports element-wise equality. Paths are immutable and widely
// shared (the engine advertises the same cached slice to every neighbor),
// so two slices with the same backing array are equal by construction; the
// identity check makes the common "compare a path against itself" case O(1)
// without changing the result.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	if len(p) > 0 && &p[0] == &q[0] {
		return true
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	c := make(Path, len(p))
	copy(c, p)
	return c
}

// Prepend returns a new path with id in front.
func (p Path) Prepend(id topology.NodeID) Path {
	c := make(Path, 0, len(p)+1)
	c = append(c, id)
	return append(c, p...)
}

// String renders the path as "3 7 42".
func (p Path) String() string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// UpdateKind distinguishes announcements from explicit withdrawals.
type UpdateKind uint8

const (
	// Announce advertises a (new) path for a prefix.
	Announce UpdateKind = iota
	// Withdraw removes a previously announced prefix.
	Withdraw
)

// String names the update kind.
func (k UpdateKind) String() string {
	if k == Withdraw {
		return "withdraw"
	}
	return "announce"
}
