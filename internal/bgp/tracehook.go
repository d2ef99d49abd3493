package bgp

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"bgpchurn/internal/des"
	"bgpchurn/internal/topology"
)

// Update tracing: an optional hook that observes every update the moment a
// node finishes processing it, in the spirit of an MRT update dump. Used by
// analyses that need the full update stream rather than counters (e.g.
// inter-arrival statistics, per-prefix timelines).

// UpdateRecord describes one processed update.
type UpdateRecord struct {
	// Time is the virtual instant processing completed.
	Time des.Time
	// From and To are the sending and receiving ASes.
	From, To topology.NodeID
	// Kind is Announce or Withdraw.
	Kind UpdateKind
	// Prefix is the affected destination.
	Prefix Prefix
	// Path is the announced AS path (nil for withdrawals). The slice is the
	// intern table's canonical storage, shared with the engine and every
	// other record of the same path: it must not be modified. A hook that
	// buffers records can keep the fixed-size identity below (PathID + len)
	// instead — the bounded -trace ring does (see obs.TraceRecord).
	Path Path
	// PathID is the hash-consed identity of Path (NoPath on withdrawals).
	// Like Path it stays valid across Reset: the intern table is never
	// cleared.
	PathID PathID
	// Cause is the root-cause ID of the routing event whose propagation
	// produced this update (0 when causal tracing is off; see CauseID).
	Cause CauseID
}

// SetUpdateHook installs fn to be called for every update processed from
// now on (nil uninstalls). The hook runs synchronously inside the event
// loop: keep it cheap, and do not call back into the Network from it.
func (net *Network) SetUpdateHook(fn func(UpdateRecord)) {
	net.updateHook = fn
}

// TraceWriter returns an update hook that writes one line per update to w
// in a stable text format:
//
//	<seconds> <from> <to> announce|withdraw <prefix> [path...]
//
// Call Flush on the returned writer (or the convenience closure) when done.
func TraceWriter(w io.Writer) (hook func(UpdateRecord), flush func() error) {
	bw := bufio.NewWriter(w)
	hook = func(r UpdateRecord) {
		if r.Kind == Withdraw {
			fmt.Fprintf(bw, "%.6f %d %d withdraw %d\n", r.Time.Seconds(), r.From, r.To, r.Prefix)
			return
		}
		fmt.Fprintf(bw, "%.6f %d %d announce %d %s\n", r.Time.Seconds(), r.From, r.To, r.Prefix, r.Path)
	}
	return hook, bw.Flush
}

// ParseTraceLine parses one line produced by TraceWriter.
func ParseTraceLine(line string) (UpdateRecord, error) {
	fields := strings.Fields(line)
	if len(fields) < 5 {
		return UpdateRecord{}, fmt.Errorf("bgp: short trace line %q", line)
	}
	var rec UpdateRecord
	var sec float64
	if _, err := fmt.Sscanf(fields[0], "%f", &sec); err != nil {
		return UpdateRecord{}, fmt.Errorf("bgp: bad timestamp %q: %v", fields[0], err)
	}
	rec.Time = des.Time(sec * float64(des.Second))
	var from, to, prefix int64
	if _, err := fmt.Sscanf(fields[1], "%d", &from); err != nil {
		return UpdateRecord{}, fmt.Errorf("bgp: bad from %q", fields[1])
	}
	if _, err := fmt.Sscanf(fields[2], "%d", &to); err != nil {
		return UpdateRecord{}, fmt.Errorf("bgp: bad to %q", fields[2])
	}
	switch fields[3] {
	case "announce":
		rec.Kind = Announce
	case "withdraw":
		rec.Kind = Withdraw
	default:
		return UpdateRecord{}, fmt.Errorf("bgp: bad kind %q", fields[3])
	}
	if _, err := fmt.Sscanf(fields[4], "%d", &prefix); err != nil {
		return UpdateRecord{}, fmt.Errorf("bgp: bad prefix %q", fields[4])
	}
	rec.From, rec.To, rec.Prefix = topology.NodeID(from), topology.NodeID(to), Prefix(prefix)
	if rec.Kind == Announce {
		for _, f := range fields[5:] {
			var id int64
			if _, err := fmt.Sscanf(f, "%d", &id); err != nil {
				return UpdateRecord{}, fmt.Errorf("bgp: bad path element %q", f)
			}
			rec.Path = append(rec.Path, topology.NodeID(id))
		}
	}
	return rec, nil
}
