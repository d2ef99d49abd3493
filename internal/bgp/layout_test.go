package bgp

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"bgpchurn/internal/des"
	"bgpchurn/internal/scenario"
)

// TestKernelLayoutBudget pins the cache-line budget of the kernel state
// (DESIGN.md, "Kernel memory model"): struct size ceilings, the rule that
// everything deliver reads or writes on the receiving node lies in the
// node's first 128 bytes, and the rule that everything an event's Fire
// touches first on its own object lies in the span the scheduler's
// look-ahead prefetches (des.LookaheadBytes). A field added or moved past a
// ceiling — or out of the prefetched span — fails here, not in a benchmark
// three PRs later.
func TestKernelLayoutBudget(t *testing.T) {
	const line = 64
	sizes := []struct {
		name      string
		got, ceil uintptr
	}{
		{"session", unsafe.Sizeof(session{}), 16},
		{"inMsg", unsafe.Sizeof(inMsg{}), 32},
		{"wireMsg", unsafe.Sizeof(wireMsg{}), 32},
		{"outQueue", unsafe.Sizeof(outQueue{}), line / 2},
		{"queued update", unsafe.Sizeof(PathID(0)), 4},
		{"prefixState", unsafe.Sizeof(prefixState{}), line / 2},
		{"node", unsafe.Sizeof(node{}), 3 * line},
	}
	for _, s := range sizes {
		if s.got > s.ceil {
			t.Errorf("sizeof(%s) = %d bytes, budget %d", s.name, s.got, s.ceil)
		}
	}
	// The node array is walked by index from a page-aligned base; a node of
	// exactly three lines keeps every node's field groups on the lines the
	// budget assigns them.
	if sz := unsafe.Sizeof(node{}); sz != 3*line {
		t.Errorf("sizeof(node) = %d, want exactly three %d-byte cache lines", sz, line)
	}
	if sz := unsafe.Sizeof(outQueue{}); sz&(sz-1) != 0 {
		t.Errorf("sizeof(outQueue) = %d is not a power of two", sz)
	}
	// An update — queued, parked, in flight between windows — is an ID,
	// never a path: the inboxes and the outboxes stay pointer-free, and a
	// queue's inline entries are PathIDs.
	for _, v := range []any{inMsg{}, wireMsg{}} {
		if typ := reflect.TypeOf(v); holdsPointer(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}

	// A shard's scheduler keeps its clock word ahead of the time ring's
	// 32-byte buckets; with the ring 32-byte aligned no bucket straddles a
	// cache line (shards are large objects, hence page-aligned).
	if off := unsafe.Offsetof(netShard{}.sched) + unsafe.Sizeof(des.Time(0)); off%32 != 0 {
		t.Errorf("netShard.sched puts the time ring at byte %d, not 32-byte aligned", off)
	}

	var nd node
	deliverFields := []struct {
		name     string
		off, len uintptr
	}{
		{"sh", unsafe.Offsetof(nd.sh), unsafe.Sizeof(nd.sh)},
		{"busyUntil", unsafe.Offsetof(nd.busyUntil), unsafe.Sizeof(nd.busyUntil)},
		{"src", unsafe.Offsetof(nd.src), unsafe.Sizeof(nd.src)},
		{"inbox", unsafe.Offsetof(nd.inbox), unsafe.Sizeof(nd.inbox)},
		{"delivering", unsafe.Offsetof(nd.delivering), unsafe.Sizeof(nd.delivering)},
		{"sink", unsafe.Offsetof(nd.sink), unsafe.Sizeof(nd.sink)},
		{"spoke", unsafe.Offsetof(nd.spoke), unsafe.Sizeof(nd.spoke)},
		{"cur", unsafe.Offsetof(nd.cur), unsafe.Sizeof(nd.cur)},
	}
	for _, f := range deliverFields {
		if end := f.off + f.len; end > 2*line {
			t.Errorf("node.%s ends at byte %d: deliver's fields must lie in the first %d", f.name, end, 2*line)
		}
	}
	// What an update that leaves the best route alone reads next — whether
	// it is the node's event or deliver completes it at admission — the
	// node's identity and row, the receive counters, the prefix key and the
	// hot head of the inline prefixState, ends inside the third line.
	hotEnd := unsafe.Offsetof(nd.prefixes) + unsafe.Offsetof(nd.prefixes.first) + unsafe.Offsetof(nd.prefixes.first.cold)
	if hotEnd > 3*line {
		t.Errorf("node's unchanged-route fields end at byte %d, budget %d", hotEnd, 3*line)
	}

	// The scheduler prefetches des.LookaheadBytes of the next event's object
	// one event ahead, and the engine's events are these objects. The span
	// must be whole lines (owners are line-aligned: a node is three lines, a
	// queue half of one, in page-aligned arrays) and must hold the whole
	// node — deliver's group, the unchanged-route group above and the rest —
	// and the whole output queue, which a flush reads end to end.
	span := uintptr(des.LookaheadBytes)
	if span%line != 0 {
		t.Errorf("des.LookaheadBytes = %d is not a whole number of %d-byte lines", span, line)
	}
	if sz := unsafe.Sizeof(node{}); sz > span {
		t.Errorf("sizeof(node) = %d exceeds the %d bytes the look-ahead prefetches", sz, span)
	}
	if sz := unsafe.Sizeof(outQueue{}); sz > span {
		t.Errorf("sizeof(outQueue) = %d exceeds the %d bytes the look-ahead prefetches", sz, span)
	}
	if sz := unsafe.Sizeof(prefixTimer{}); sz > span {
		t.Errorf("sizeof(prefixTimer) = %d exceeds the %d bytes the look-ahead prefetches", sz, span)
	}
}

// holdsPointer reports whether a value of type typ contains a pointer the
// garbage collector must scan.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestNetworkBytesPerSession is the memory guard behind the layout budget:
// the heap a fresh Network takes over a session-dense topology, per session.
// TRANSIT-CLIQUE has the most sessions per node of the paper's scenarios, so
// the per-session arrays (session row, output queue) dominate; a queue grown
// back to 64 bytes, or a map or path slice per session, fails here.
func TestNetworkBytesPerSession(t *testing.T) {
	const budget = 64
	topo, err := scenario.TransitClique.Generate(1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	sessions := len(topo.CSR().IDs) // the shared CSR block is the topology's, not the Network's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net := MustNew(topo, DefaultConfig(1))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(sessions)
	t.Logf("%d sessions, %.1f heap bytes per session", sessions, per)
	if per > budget {
		t.Errorf("New allocates %.1f bytes per session, budget %d", per, budget)
	}
}
