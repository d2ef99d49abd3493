package bgp

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"bgpchurn/internal/topology"
)

// Path interning (the RIB's storage layer). Every distinct AS path is
// stored exactly once in slab-backed storage and identified by a
// dense 32-bit PathID, so routing tables hold 4-byte IDs instead of 24-byte
// slice headers and path equality is an integer compare. See DESIGN.md
// (intern-table memory model) for ownership and lifetime rules.
//
// Concurrency: one table is shared by every shard of a sharded network.
// Writers (prepend misses) serialize on a mutex; readers (path, lenOf, len
// — the decision-process hot path) are lock-free. The published entries
// live in fixed-size chunks that never move, reached through a
// copy-on-grow directory behind an atomic pointer, and the entry count is
// stored (release) only after the entry itself is written, so a reader
// that learned an ID either through the count or through a barrier-
// synchronized message always observes the fully written span.

// PathID identifies an interned AS path in a Network's intern table. The
// zero value (NoPath) means "no path". IDs are dense, minted in first-intern
// order, and stable for the lifetime of the Network: Network.Reset rewinds
// routing state but deliberately keeps the intern table, so a PathID minted
// before a Reset still denotes the same path content afterwards (the paths
// of one topology recur event after event, and re-interning them would cost
// a hash probe per route change for no memory win).
//
// In a multi-shard run the VALUE of a PathID depends on the real-time
// interleaving of shard goroutines (first-intern order), so IDs are not
// reproducible run to run — but they are semantically inert: the engine
// uses IDs only for equality (same content ⟺ same ID within one run) and
// as handles to content, never for ordering or arithmetic, so simulation
// results remain byte-identical (the determinism tier enforces this).
type PathID uint32

// NoPath is the PathID of "no route".
const NoPath PathID = 0

// pathSpan is one published intern entry: the canonical capacity-clamped
// Path view of the slab storage that path() hands out.
type pathSpan struct {
	p Path
}

// internChunkShift sizes the published-entry chunks (1024 spans each).
// Chunks never move once allocated; the directory grows by copy.
const internChunkShift = 10
const internChunkSize = 1 << internChunkShift

type internChunk [internChunkSize]pathSpan

// internSlabElems is the slab size in NodeIDs (64 KiB). Slabs are never
// reallocated or moved once created — canonical Path slices handed out by
// the table stay valid forever — and a path never spans two slabs
// (oversized paths get a dedicated slab).
const internSlabElems = 1 << 14

// nodeIDBytes is the slab allocation unit for byte accounting.
const nodeIDBytes = uint64(unsafe.Sizeof(topology.NodeID(0)))

// internTable hash-conses AS paths: intern maps path content to a PathID,
// path maps the ID back to a canonical Path sub-slice of the slab storage.
// Identical content always yields the identical PathID and the identical
// backing memory, so Path.Equal's identity fast-path makes canonical-path
// comparison O(1). Each Network owns one; in a sharded network all shards
// share it (mutex writers, lock-free readers — see the package comment
// above).
type internTable struct {
	// count is the number of published entries including the NoPath
	// sentinel (== the next PathID to mint). Stored by writers after the
	// span write, so count.Load is an acquire barrier for readers that
	// bound IDs by it.
	count atomic.Uint32
	// dir is the chunk directory: dir.Load()[id>>shift][id&mask] is the
	// published span for id. Grown by copy under mu; old directories stay
	// valid for the IDs they cover.
	dir atomic.Pointer[[]*internChunk]

	// Everything below is guarded by mu (writers only).
	mu     sync.Mutex
	slabs  [][]topology.NodeID
	hashes []uint64 // content hash per PathID, for cheap table growth
	// tab is the open-addressing (linear probe) hash table over PathIDs;
	// 0 marks an empty bucket. Always a power of two, grown at 3/4 load.
	tab  []PathID
	mask uint64

	// hits counts lookups served by an existing entry (see counts).
	hits uint64
}

// newInternTable returns an empty table with the NoPath sentinel reserved.
func newInternTable() *internTable {
	const initialBuckets = 1 << 10
	it := &internTable{
		hashes: make([]uint64, 1, 1024),
		tab:    make([]PathID, initialBuckets),
		mask:   initialBuckets - 1,
	}
	dir := []*internChunk{new(internChunk)}
	it.dir.Store(&dir)
	it.count.Store(1) // the NoPath sentinel (chunk zero value: nil Path)
	return it
}

// internCounts is what the metrics hub reports of a table: distinct paths
// interned, slab bytes storing them, and lookups served by an existing entry.
type internCounts struct{ paths, bytes, hits uint64 }

// counts returns the table's counts since it was made.
func (it *internTable) counts() internCounts {
	it.mu.Lock()
	defer it.mu.Unlock()
	c := internCounts{paths: uint64(it.len()), hits: it.hits}
	for _, b := range it.slabs {
		c.bytes += uint64(len(b)) * nodeIDBytes
	}
	return c
}

// len returns the number of distinct paths interned.
func (it *internTable) len() int { return int(it.count.Load()) - 1 }

// span returns the published span for id (lock-free).
func (it *internTable) span(id PathID) pathSpan {
	d := *it.dir.Load()
	return d[id>>internChunkShift][id&(internChunkSize-1)]
}

// path returns the canonical Path for id (nil for NoPath). The result is a
// capacity-clamped view of slab storage: immutable by contract, identical
// backing memory for every call with the same id.
func (it *internTable) path(id PathID) Path {
	if id == NoPath {
		return nil
	}
	return it.span(id).p
}

// lenOf returns the length of the interned path (0 for NoPath).
func (it *internTable) lenOf(id PathID) int {
	return len(it.span(id).p)
}

// mixID folds one path element into a running content hash
// (Murmur3-finalizer-style multiply-rotate, collisions resolved by compare).
func mixID(h uint64, v topology.NodeID) uint64 {
	h ^= uint64(uint32(v)) * 0xff51afd7ed558ccd
	h = bits.RotateLeft64(h, 31)
	return h * 0xc4ceb9fe1a85ec53
}

// hashSeq hashes the virtual sequence [first, tail...] without
// materializing it (prepend interns straight off the parent path).
func hashSeq(first topology.NodeID, tail Path) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(len(tail)+1)
	h = mixID(h, first)
	for _, v := range tail {
		h = mixID(h, v)
	}
	return h
}

// spanEqualSeq reports whether the stored span equals [first, tail...].
func (it *internTable) spanEqualSeq(id PathID, first topology.NodeID, tail Path) bool {
	b := it.span(id).p
	if len(b) != len(tail)+1 || b[0] != first {
		return false
	}
	for i, v := range tail {
		if b[i+1] != v {
			return false
		}
	}
	return true
}

// prepend interns the path [first, tail...] and returns its canonical Path
// and PathID. tail may be nil (a one-element origin path). This is the
// engine's only path constructor: advertisement bodies and warm-start routes
// all funnel through it, so every Path in a network is canonical. Safe for
// concurrent use by shard goroutines.
func (it *internTable) prepend(first topology.NodeID, tail Path) (Path, PathID) {
	h := hashSeq(first, tail)
	it.mu.Lock()
	i := h & it.mask
	for {
		id := it.tab[i]
		if id == NoPath {
			break
		}
		if it.hashes[id] == h && it.spanEqualSeq(id, first, tail) {
			p := it.span(id).p
			it.hits++
			it.mu.Unlock()
			return p, id
		}
		i = (i + 1) & it.mask
	}
	// Miss: copy the content into slab storage and publish the new ID.
	n := len(tail) + 1
	if n > maxPathLen {
		panic("bgp: AS path too long for session.rank")
	}
	dst := it.alloc(n)
	dst[0] = first
	copy(dst[1:], tail)
	id := PathID(it.count.Load())
	canon := Path(dst[:n:n])
	it.publish(id, canon)
	it.hashes = append(it.hashes, h)
	it.tab[i] = id
	if int(id)*4 >= len(it.tab)*3 {
		it.grow()
	}
	it.mu.Unlock()
	return canon, id
}

// publish makes id -> p visible to lock-free readers: ensure the chunk
// exists (directory copy-on-grow behind the atomic pointer), write the
// span, then store the raised entry count last so the count is a release
// of the span write. Callers hold mu.
func (it *internTable) publish(id PathID, p Path) {
	d := *it.dir.Load()
	ci := int(id >> internChunkShift)
	if ci == len(d) {
		nd := make([]*internChunk, len(d)+1)
		copy(nd, d)
		nd[ci] = new(internChunk)
		it.dir.Store(&nd)
		d = nd
	}
	d[ci][id&(internChunkSize-1)] = pathSpan{p: p}
	it.count.Store(uint32(id) + 1)
}

// intern interns an existing path (nil maps to NoPath). Equivalent to
// prepend(p[0], p[1:]); used by tests and cold paths.
func (it *internTable) intern(p Path) (Path, PathID) {
	if len(p) == 0 {
		return nil, NoPath
	}
	return it.prepend(p[0], p[1:])
}

// alloc carves n elements out of the current slab, starting a new slab when
// it does not fit. Existing slabs are never moved, so previously returned
// canonical paths stay valid. Callers hold mu.
func (it *internTable) alloc(n int) []topology.NodeID {
	if k := len(it.slabs); k > 0 {
		b := it.slabs[k-1]
		if len(b)+n <= cap(b) {
			off := len(b)
			b = b[: len(b)+n : cap(b)]
			it.slabs[k-1] = b
			return b[off:]
		}
	}
	sz := internSlabElems
	if n > sz {
		sz = n // oversized path: dedicated slab
	}
	b := make([]topology.NodeID, n, sz)
	it.slabs = append(it.slabs, b)
	return b
}

// grow doubles the hash table and re-inserts every ID by its stored hash.
// Callers hold mu.
func (it *internTable) grow() {
	nt := make([]PathID, len(it.tab)*2)
	mask := uint64(len(nt) - 1)
	for id := PathID(1); int(id) < len(it.hashes); id++ {
		i := it.hashes[id] & mask
		for nt[i] != NoPath {
			i = (i + 1) & mask
		}
		nt[i] = id
	}
	it.tab, it.mask = nt, mask
}
