package topology

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTo prints a topology in a line-oriented text format. Nothing reads
// it back: its bytes are the topology's fingerprint, which byte-identity
// checks hash to compare generator versions. The format is:
//
//	bgpchurn-topology v1
//	meta n=<N> regions=<R> seed=<seed>
//	node <id> <type> <region-bitmask>
//	transit <provider> <customer>
//	peer <a> <b>
//
// Node lines appear before link lines; each link appears exactly once.

const formatHeader = "bgpchurn-topology v1"

// WriteTo writes t in the text format. It implements io.WriterTo.
func (t *Topology) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "%s\nmeta n=%d regions=%d seed=%d\n", formatHeader, t.N(), t.NumRegions, t.Seed)); err != nil {
		return n, err
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if err := count(fmt.Fprintf(bw, "node %d %s %d\n", nd.ID, nd.Type, uint32(nd.Regions))); err != nil {
			return n, err
		}
	}
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		for _, c := range nd.Customers {
			if err := count(fmt.Fprintf(bw, "transit %d %d\n", nd.ID, c)); err != nil {
				return n, err
			}
		}
		for _, p := range nd.Peers {
			if p > nd.ID {
				if err := count(fmt.Fprintf(bw, "peer %d %d\n", nd.ID, p)); err != nil {
					return n, err
				}
			}
		}
	}
	return n, bw.Flush()
}
