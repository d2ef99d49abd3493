package bgp

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// timerModel is the expected state of one MRAI timer.
type timerModel struct {
	expiry    des.Time
	scheduled bool
}

// TestOutQueueModel drives one output queue of a network through random
// operation sequences — Adj-RIB-Out and pending-update writes, reads and
// removals over 1–4 prefixes, Resets, link down/up and PerPrefix timer
// creation — and after every step compares both tables, their sorted keys,
// and every timer against plain Go maps. Both tables share one inline key,
// so two distinct prefixes across them must have spilled the queue; its
// spill record in the shard, once allocated, must survive every later
// clear and Reset as the same record, and each table's map as the same map.
func TestOutQueueModel(t *testing.T) {
	t.Run("shared key", testOutQueueSharedKey)
	const sequences, steps = 2000, 60
	r := rand.New(rand.NewSource(1))
	topo := fanTopo(4)
	var keys []Prefix
	for seq := 0; seq < sequences; seq++ {
		prefixes := 1 + r.Intn(4)
		net := MustNew(topo, DefaultConfig(1))
		m, j := &net.nodes[1], int32(0)
		q := &net.out(m)[j]
		sent := map[Prefix]PathID{}
		pending := map[Prefix]PathID{}
		timers := map[Prefix]*prefixTimer{}
		timerState := map[Prefix]timerModel{}
		var iface timerModel
		var down bool
		var spill *queueSpill
		var sentMap, pendingMap uintptr
		clearModel := func() {
			clear(sent)
			clear(pending)
			iface, down = timerModel{}, false
			for f := range timerState {
				timerState[f] = timerModel{}
			}
		}
		for step := 0; step < steps; step++ {
			f := Prefix(r.Intn(prefixes))
			var op string
			switch r.Intn(11) {
			case 0, 1:
				op = "setWire"
				id := PathID(r.Intn(4)) // NoPath withdraws
				net.touch(q)
				q.setWire(f, id)
				if id == NoPath {
					delete(sent, f)
				} else {
					sent[f] = id
				}
			case 2, 3:
				op = "enqueue"
				id := PathID(r.Intn(4)) // NoPath queues a withdrawal
				net.touch(q)
				q.enqueue(f, id)
				pending[f] = id
			case 4, 5:
				op = "dequeue"
				got, ok := q.dequeue(f)
				want, wantOK := pending[f]
				if got != want || ok != wantOK {
					t.Fatalf("seq %d step %d: dequeue(%d) = %d, %v; want %d, %v", seq, step, f, got, ok, want, wantOK)
				}
				delete(pending, f)
			case 6:
				op = "reset"
				net.Reset(uint64(step))
				clearModel()
			case 7:
				op = "link down"
				net.sessionDown(m, j)
				clearModel()
				down = true
			case 8:
				op = "link up"
				q.flags &^= qDown
				down = false
			case 9:
				op = "prefix timer"
				net.touch(q)
				tm := q.prefixTimer(f)
				if old := timers[f]; old != nil && old != tm {
					t.Fatalf("seq %d step %d: prefixTimer(%d) replaced its timer", seq, step, f)
				}
				if tm.q != q || tm.prefix != f || net.slot(tm.q) != j {
					t.Fatalf("seq %d step %d: prefixTimer(%d) is bound to queue %p prefix %d", seq, step, f, tm.q, tm.prefix)
				}
				timers[f] = tm
				st := timerModel{expiry: des.Time(1 + r.Intn(100)), scheduled: r.Intn(2) == 0}
				tm.expiry, tm.scheduled = st.expiry, st.scheduled
				timerState[f] = st
			case 10:
				op = "interface timer"
				net.touch(q)
				iface = timerModel{expiry: des.Time(1 + r.Intn(100)), scheduled: r.Intn(2) == 0}
				q.expiry = iface.expiry
				q.flags &^= qScheduled
				if iface.scheduled {
					q.flags |= qScheduled
				}
			}

			// Every prefix in use, and one never used.
			for g := Prefix(0); g <= 4; g++ {
				id, ok := q.wire(g)
				want, wantOK := sent[g]
				if id != want || ok != wantOK {
					t.Fatalf("seq %d step %d (%s): wire(%d) = %d, %v; want %d, %v", seq, step, op, g, id, ok, want, wantOK)
				}
				qid, ok := q.queued(g)
				wantQID, wantOK := pending[g]
				if qid != wantQID || ok != wantOK {
					t.Fatalf("seq %d step %d (%s): queued(%d) = %d, %v; want %d, %v", seq, step, op, g, qid, ok, wantQID, wantOK)
				}
				tm := q.timer(g)
				if tm != timers[g] {
					t.Fatalf("seq %d step %d (%s): timer(%d) = %p, want %p", seq, step, op, g, tm, timers[g])
				}
				if tm != nil {
					if got := (timerModel{tm.expiry, tm.scheduled}); got != timerState[g] {
						t.Fatalf("seq %d step %d (%s): timer(%d) = %+v, want %+v", seq, step, op, g, got, timerState[g])
					}
				}
			}
			if got := (timerModel{q.expiry, q.flags&qScheduled != 0}); got != iface {
				t.Fatalf("seq %d step %d (%s): interface timer %+v, want %+v", seq, step, op, got, iface)
			}
			keys = q.sentKeys(keys)
			if want := sortedKeys(sent); !slices.Equal(keys, want) {
				t.Fatalf("seq %d step %d (%s): Adj-RIB-Out keys %v, want %v", seq, step, op, keys, want)
			}
			keys = q.pendingKeys(keys)
			if want := sortedKeys(pending); !slices.Equal(keys, want) {
				t.Fatalf("seq %d step %d (%s): pending keys %v, want %v", seq, step, op, keys, want)
			}
			// The tables share one inline key: two distinct prefixes across
			// them live in the spill.
			inUse := map[Prefix]bool{}
			for g := range sent {
				inUse[g] = true
			}
			for g := range pending {
				inUse[g] = true
			}
			if len(inUse) > 1 && q.flags&qSpilled == 0 {
				t.Fatalf("seq %d step %d (%s): %d prefixes in use on an unspilled queue", seq, step, op, len(inUse))
			}
			pristine := len(inUse) == 0 && iface == (timerModel{}) && !down
			for _, st := range timerState {
				pristine = pristine && st == (timerModel{})
			}
			if q.down() != down || q.pristine() != pristine {
				t.Fatalf("seq %d step %d (%s): down() = %v, pristine() = %v; want %v, %v",
					seq, step, op, q.down(), q.pristine(), down, pristine)
			}

			// Spill storage is allocated once and then kept: the record
			// itself, and the tables' maps from the moment they spilled.
			if spill != nil && q.spill() != spill {
				t.Fatalf("seq %d step %d (%s): queue spill reallocated", seq, step, op)
			}
			if spill = q.spill(); spill == nil {
				continue
			}
			if (q.flags&qSpilled != 0) != (spill.sent != nil) || (spill.sent != nil) != (spill.pending != nil) {
				t.Fatalf("seq %d step %d (%s): spilled flag %v, maps %v %v", seq, step, op,
					q.flags&qSpilled != 0, spill.sent != nil, spill.pending != nil)
			}
			if sentMap != 0 && (mapPtr(spill.sent) != sentMap || mapPtr(spill.pending) != pendingMap) {
				t.Fatalf("seq %d step %d (%s): spilled map dropped or reallocated", seq, step, op)
			}
			sentMap, pendingMap = mapPtr(spill.sent), mapPtr(spill.pending)
		}
	}
}

// testOutQueueSharedKey pins the spill rules of the shared inline key: an
// Adj-RIB-Out entry on one prefix and a pending update on another move both
// tables into the shard's spill record; Reset clears the record but keeps it
// and the queue spilled.
func testOutQueueSharedKey(t *testing.T) {
	topo := fanTopo(4)
	net := MustNew(topo, DefaultConfig(1))
	m, j := &net.nodes[1], int32(0)
	q := &net.out(m)[j]
	k := queueIndex(m.sh.outq, q)

	net.touch(q)
	q.setWire(1, 7)
	q.enqueue(1, 8) // the same prefix shares the inline key
	if q.flags&qSpilled != 0 || q.spill() != nil {
		t.Fatal("one prefix in both tables spilled the queue")
	}
	q.enqueue(2, 9)
	sp := m.sh.spills[k]
	if q.flags&qSpilled == 0 || sp == nil {
		t.Fatal("a pending update on a second prefix left the queue inline")
	}
	if !maps.Equal(sp.sent, map[Prefix]PathID{1: 7}) || !maps.Equal(sp.pending, map[Prefix]PathID{1: 8, 2: 9}) {
		t.Fatalf("spilled tables sent=%v pending=%v, want both tables moved", sp.sent, sp.pending)
	}
	if q.sent != NoPath || q.flags&qPending != 0 {
		t.Fatal("the inline entries outlived the spill")
	}

	net.Reset(2)
	if m.sh.spills[k] != sp || q.flags&qSpilled == 0 {
		t.Fatal("Reset dropped the queue's spill record")
	}
	if len(sp.sent)+len(sp.pending) != 0 || !q.pristine() {
		t.Fatal("Reset left routes in the spill record")
	}
	q.setWire(3, 4)
	if sp.sent[3] != 4 {
		t.Fatal("a spilled queue wrote inline after Reset")
	}
}

// TestTouchedMarksEveryExit pins, site by site, the invariant reconcile and
// Reset rely on to skip output queues (Network.touched): each of the four
// ways a queue leaves its pristine state marks the queue by itself, not by
// leaning on another site having marked it first; and Reset rewinds every
// marked queue — the failed link included — and clears the marks.
func TestTouchedMarksEveryExit(t *testing.T) {
	topo := fanTopo(4) // T core 0, M nodes 1–4, C origin 5 under all of them
	origin := topology.NodeID(topo.N() - 1)
	sites := []struct {
		name string
		// exit takes one queue of a fresh network out of its pristine state
		// and returns the node and slot of every queue it must have marked.
		exit func(net *Network) (marked [][2]int)
	}{
		{"send", func(net *Network) [][2]int {
			ja, _, _ := net.slots(1, 0)
			m := &net.nodes[1]
			_, id := net.intern.prepend(1, Path{origin})
			net.send(m, &net.out(m)[ja], benchPrefix, id)
			return [][2]int{{1, ja}}
		}},
		{"enqueue", func(net *Network) [][2]int {
			// The MRAI timer is running — what a send leaves behind — but the
			// queue is unmarked, so only the enqueue can mark it.
			ja, _, _ := net.slots(1, 0)
			m := &net.nodes[1]
			q := &net.out(m)[ja]
			q.expiry = net.Now() + net.cfg.MRAI
			_, id := net.intern.prepend(1, Path{origin})
			net.setDesired(m, q, benchPrefix, id)
			if _, ok := q.queued(benchPrefix); !ok {
				t.Fatal("enqueue: setDesired did not queue the update")
			}
			return [][2]int{{1, ja}}
		}},
		{"sessionDown", func(net *Network) [][2]int {
			if err := net.FailLink(0, 1); err != nil {
				t.Fatal(err)
			}
			ja, jb, _ := net.slots(0, 1)
			return [][2]int{{0, ja}, {1, jb}}
		}},
		{"WarmStart", func(net *Network) [][2]int {
			net.WarmStart(origin, benchPrefix)
			var marked [][2]int
			for j := range net.nbrIDs(&net.nodes[origin]) {
				marked = append(marked, [2]int{int(origin), j})
			}
			return marked
		}},
	}
	for _, s := range sites {
		net := MustNew(topo, DefaultConfig(1))
		for _, k := range s.exit(net) {
			if net.touched[int(net.nodes[k[0]].row)+k[1]] == 0 {
				t.Errorf("%s: node %d slot %d left its pristine state unmarked", s.name, k[0], k[1])
			}
		}
		net.Reset(2)
		if i := slices.Index(net.touched, 1); i >= 0 {
			t.Errorf("%s: session %d still marked after Reset", s.name, i)
		}
		if net.LinkDown(0, 1) {
			t.Errorf("%s: link still down after Reset", s.name)
		}
		mustConsistent(t, net, s.name+", after Reset")
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[Prefix]V) []Prefix {
	keys := make([]Prefix, 0, len(m))
	for f := range m {
		keys = append(keys, f)
	}
	slices.Sort(keys)
	return keys
}

// mapPtr identifies a map by its address (0 for nil).
func mapPtr[V any](m map[Prefix]V) uintptr {
	if m == nil {
		return 0
	}
	return reflect.ValueOf(m).Pointer()
}
