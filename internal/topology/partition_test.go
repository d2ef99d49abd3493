package topology

import "testing"

// adjacencyWithDegrees returns an Adjacency carrying only what ShardRanges
// reads: the CSR offsets of nodes with the given degrees.
func adjacencyWithDegrees(deg ...int32) *Adjacency {
	off := make([]int32, len(deg)+1)
	for i, d := range deg {
		off[i+1] = off[i] + d
	}
	return &Adjacency{Offsets: off}
}

func TestShardRanges(t *testing.T) {
	uniform := make([]int32, 100)
	for i := range uniform {
		uniform[i] = 4
	}
	// One hub holding 90 % of all sessions, in the middle of the ID range.
	hub := []int32{1, 1, 1, 1, 1, 90, 1, 1, 1, 1, 1}
	cases := []struct {
		name string
		deg  []int32
		s    int
	}{
		{"one range", uniform, 1},
		{"zero is one", uniform, 0},
		{"uniform 4", uniform, 4},
		{"uniform 7", uniform, 7},
		{"more ranges than nodes", []int32{2, 2, 2}, 8},
		{"hub heavier than a share", hub, 4},
		{"hub, fine cut", hub, 16},
		{"no sessions at all", []int32{0, 0, 0, 0}, 3},
	}
	for _, c := range cases {
		a := adjacencyWithDegrees(c.deg...)
		n := int32(len(c.deg))
		want := max(c.s, 1)
		b := a.ShardRanges(c.s)
		if len(b) != want+1 {
			t.Fatalf("%s: %d boundaries for %d ranges", c.name, len(b), want)
		}
		if b[0] != 0 || b[want] != n {
			t.Errorf("%s: ranges %v do not cover [0, %d)", c.name, b, n)
		}
		for k := 0; k < want; k++ {
			if b[k] > b[k+1] {
				t.Errorf("%s: boundaries %v are not monotone", c.name, b)
			}
		}
	}

	// Balance, where the degrees allow it: every uniform range is within one
	// node of its share.
	b := adjacencyWithDegrees(uniform...).ShardRanges(4)
	for k := 0; k < 4; k++ {
		if sz := b[k+1] - b[k]; sz < 24 || sz > 26 {
			t.Errorf("uniform degrees: range %d holds %d of 100 nodes (%v)", k, sz, b)
		}
	}
	// A hub heavier than a whole share swallows the boundaries that fall
	// inside it: those ranges come out empty, never negative, and the hub
	// still starts a range of its own.
	b = adjacencyWithDegrees(hub...).ShardRanges(16)
	empty, startsRange := 0, false
	for k := 0; k < 16; k++ {
		if b[k] == b[k+1] {
			empty++
		} else if b[k] == 5 {
			startsRange = true
		}
	}
	if empty == 0 || !startsRange {
		t.Errorf("hub under a 16-way cut: %d empty ranges, hub starts a range: %v (%v)", empty, startsRange, b)
	}
}
