package bgp

import (
	"testing"

	"bgpchurn/internal/topology"
)

// FuzzInternTable drives the path intern table with an arbitrary op stream
// decoded from the fuzz input, shadowed by a reference map in both
// directions. The table must never alias distinct contents to one PathID,
// never mint two IDs for equal content, and never leak slab bytes —
// regardless of insertion order, duplication, or table growth.
//
// Op encoding, one byte plus operands:
//
//	bits 0-3: path length L-1 (L in 1..16)
//	bit 4:    if set and a previous canonical path exists, run a prepend op
//	          instead: one operand byte is the new first hop, the previous
//	          canonical path is the tail (exercising the hot-path
//	          constructor against plain intern).
//
// An intern op consumes 2L operand bytes as little-endian uint16 node IDs.
// Truncated operands end the stream.
func FuzzInternTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x07, 0x00})                                     // single [7]
	f.Add([]byte{0x02, 1, 0, 2, 0, 3, 0, 0x02, 1, 0, 2, 0, 3, 0})       // duplicate [1 2 3]
	f.Add([]byte{0x01, 0xff, 0xff, 0x00, 0x00, 0x10, 0x09, 0x10, 0x09}) // chain of prepends
	f.Fuzz(func(t *testing.T, data []byte) {
		it := newInternTable()
		ref := make(map[string]PathID)
		inv := make(map[PathID]string)
		var refBytes uint64
		var last Path

		record := func(p Path, canon Path, id PathID) {
			if id == NoPath {
				t.Fatalf("non-empty path %v interned as NoPath", p)
			}
			if !canon.Equal(p) {
				t.Fatalf("canonical %v differs from interned content %v", canon, p)
			}
			key := pathKey(p)
			if prev, ok := ref[key]; ok {
				if id != prev {
					t.Fatalf("content %v interned twice with IDs %d and %d", p, prev, id)
				}
			} else {
				if other, clash := inv[id]; clash {
					t.Fatalf("contents %x and %x collided on ID %d", other, key, id)
				}
				ref[key], inv[id] = id, key
				refBytes += uint64(4 * len(p))
			}
			if got := it.path(id); !got.Equal(p) || &got[0] != &canon[0] {
				t.Fatalf("path(%d) does not round-trip to canonical %v", id, p)
			}
		}

		i := 0
		for i < len(data) {
			op := data[i]
			i++
			if op&0x10 != 0 && last != nil {
				if i >= len(data) {
					break
				}
				first := topology.NodeID(data[i])
				i++
				full := append(Path{first}, last...)
				canon, id := it.prepend(first, last)
				record(full, canon, id)
				if len(canon) <= 64 { // bound chained growth
					last = canon
				}
				continue
			}
			n := int(op&0x0f) + 1
			if i+2*n > len(data) {
				break
			}
			p := make(Path, n)
			for k := 0; k < n; k++ {
				p[k] = topology.NodeID(uint16(data[i]) | uint16(data[i+1])<<8)
				i += 2
			}
			canon, id := it.intern(p)
			record(p, canon, id)
			last = canon
		}

		if it.len() != len(ref) {
			t.Fatalf("table holds %d entries, reference %d", it.len(), len(ref))
		}
		if got := it.counts().bytes; got != refBytes {
			t.Fatalf("slab bytes = %d, want %d: slab bytes leaked or deduplicated wrongly", got, refBytes)
		}
	})
}
