package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), in registration order: counters, then gauges,
// then histograms. Scraping is lock-free — each metric is one atomic read;
// an engine metric is stale by at most the run in progress (see the package
// comment).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	for _, c := range m.counters {
		if err := writeHeader(w, c.name, c.help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.name, c.Value()); err != nil {
			return err
		}
	}
	for _, g := range m.gauges {
		if err := writeHeader(w, g.name, g.help, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", g.name, g.Value()); err != nil {
			return err
		}
	}
	for _, h := range m.hists {
		if err := writeHeader(w, h.name, h.help, "histogram"); err != nil {
			return err
		}
		s := h.Snapshot()
		var cum uint64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, s.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.name, formatFloat(s.Sum), h.name, s.Count); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot returns a flat name → value view of every metric: counters and
// gauges by name, histograms as <name>_count and <name>_sum. This is the
// "final counter snapshot" recorded in run manifests and published over
// expvar.
func (m *Metrics) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(m.counters)+len(m.gauges)+2*len(m.hists))
	for _, c := range m.counters {
		out[c.name] = float64(c.Value())
	}
	for _, g := range m.gauges {
		out[g.name] = float64(g.Value())
	}
	for _, h := range m.hists {
		s := h.Snapshot()
		out[h.name+"_count"] = float64(s.Count)
		out[h.name+"_sum"] = s.Sum
	}
	return out
}
