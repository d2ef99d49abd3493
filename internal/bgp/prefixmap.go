package bgp

import "sort"

// prefixMap is a Prefix-keyed map with an inline fast path for the dominant
// workload of the paper's experiments: exactly one prefix per C-event. The
// first entry lives in an inline slot — no map allocation, no hashing. The
// moment a second distinct key appears, entries spill into a real map,
// which then stays authoritative for the rest of the container's life
// (Clear empties it but keeps it allocated so Network.Reset reuses the
// storage).
//
// The zero value is an empty, ready-to-use map. Field order keeps the
// struct at 8 + sizeof(V) + 8 bytes for pointer-aligned V: key and has share
// the trailing word.
type prefixMap[V any] struct {
	m   map[Prefix]V
	val V
	key Prefix
	has bool
}

// Len returns the number of entries.
func (pm *prefixMap[V]) Len() int {
	if pm.m != nil {
		return len(pm.m)
	}
	if pm.has {
		return 1
	}
	return 0
}

// Get returns the value for f and whether it is present.
func (pm *prefixMap[V]) Get(f Prefix) (V, bool) {
	if pm.m != nil {
		v, ok := pm.m[f]
		return v, ok
	}
	if pm.has && pm.key == f {
		return pm.val, true
	}
	var zero V
	return zero, false
}

// Set inserts or replaces the value for f.
func (pm *prefixMap[V]) Set(f Prefix, v V) {
	if pm.m != nil {
		pm.m[f] = v
		return
	}
	if !pm.has || pm.key == f {
		pm.key, pm.val, pm.has = f, v, true
		return
	}
	// Second distinct key: spill to a real map.
	pm.m = make(map[Prefix]V, 2)
	pm.m[pm.key] = pm.val
	pm.m[f] = v
	var zero V
	pm.val, pm.has = zero, false
}

// Delete removes the entry for f, if present.
func (pm *prefixMap[V]) Delete(f Prefix) {
	if pm.m != nil {
		delete(pm.m, f)
		return
	}
	if pm.has && pm.key == f {
		var zero V
		pm.val, pm.has = zero, false
	}
}

// Clear removes every entry. A spilled map is kept allocated for reuse.
func (pm *prefixMap[V]) Clear() {
	if pm.m != nil {
		clear(pm.m)
	}
	var zero V
	pm.val, pm.has = zero, false
}

// SortedKeysInto appends the keys in ascending order to buf[:0] and returns
// it, growing buf only when it is too small. The single-entry fast path
// performs no sorting.
func (pm *prefixMap[V]) SortedKeysInto(buf []Prefix) []Prefix {
	buf = buf[:0]
	if pm.m != nil {
		for f := range pm.m {
			buf = append(buf, f)
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		return buf
	}
	if pm.has {
		buf = append(buf, pm.key)
	}
	return buf
}
