package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bgpchurn/internal/obs"
)

// span is one interval recorded at a layer boundary by the benchmark: the
// call into a layer, or a span the program itself emitted (origin, event)
// re-parented under the call that produced it. Times are microseconds since
// the recorder's epoch. Spans of one cell or job share a Trace id.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Trace   string  `json:"trace,omitempty"`
	Name    string  `json:"name"` // "<layer>.<what>", layer = module name
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// layerOf returns the module a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so measured (untraced) passes run the same code with tracing off.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// nowUS is the recorder clock.
func (r *recorder) nowUS() float64 {
	if r == nil {
		return 0
	}
	return float64(time.Since(r.epoch)) / float64(time.Microsecond)
}

// start opens a span and returns its id; close it with end.
func (r *recorder) start(parent int, trace, name string) int {
	if r == nil {
		return 0
	}
	now := r.nowUS()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartUS: now, EndUS: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.nowUS()
	r.mu.Lock()
	r.spans[id-1].EndUS = now
	r.mu.Unlock()
}

// add records an already-timed interval (a span the program emitted, or one
// reconstructed from scheduler events).
func (r *recorder) add(parent int, trace, name string, startUS, endUS float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartUS: startUS, EndUS: endUS})
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// importProgramSpans re-parents the origin and event spans one
// core.RunCEvents call appended to its obs.SpanRecorder under the benchmark
// span that wrapped the call. offsetUS is the benchmark clock at the program
// recorder's epoch. An event span nests in the origin span of the same
// origin node that contains it in time.
func (r *recorder) importProgramSpans(parent int, trace string, offsetUS float64, recs []obs.SpanRecord) {
	if r == nil {
		return
	}
	type originSpan struct {
		id         int
		origin     int64
		start, end float64
	}
	var origins []originSpan
	for _, s := range recs {
		if s.Level == obs.SpanOrigin {
			st, en := offsetUS+s.StartUS, offsetUS+s.StartUS+s.DurUS
			origins = append(origins, originSpan{r.add(parent, trace, "core.origin", st, en), s.Origin, st, en})
		}
	}
	for _, s := range recs {
		if s.Level != obs.SpanEvent {
			continue
		}
		st, en := offsetUS+s.StartUS, offsetUS+s.StartUS+s.DurUS
		p := parent
		for _, o := range origins {
			if o.origin == s.Origin && st >= o.start && en <= o.end {
				p = o.id
				break
			}
		}
		name := "bgp.up_run"
		if s.Name == "withdraw" || s.Name == "link-fail" {
			name = "bgp.down_run"
		}
		r.add(p, trace, name, st, en)
	}
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of that interval its direct children cover. Overlapping
// children (parallel workers) count once.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.StartUS, s.EndUS, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// [start, end].
func covered(start, end float64, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := k.StartUS, k.EndUS
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB float64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerRow is one line of the per-layer budget.
type layerRow struct {
	Name  string
	Count int
	SelfS float64
}

// layerBudget sums self time per span name under root (root excluded) and
// reports which share of root's interval named spans cover.
func layerBudget(spans []span, root int) (rows []layerRow, coveredFrac, rootS float64) {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	under := map[int]bool{root: true}
	for _, s := range spans { // ids ascend, parents precede children
		if s.ID != root && under[s.Parent] {
			under[s.ID] = true
			row := byName[s.Name]
			if row == nil {
				row = &layerRow{Name: s.Name}
				byName[s.Name] = row
			}
			row.Count++
			row.SelfS += self[s.ID] / 1e6
		}
	}
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Name < rows[j].Name
	})
	rootS = spans[root-1].dur() / 1e6
	if rootS > 0 {
		coveredFrac = 1 - self[root]/1e6/rootS
	}
	return rows, coveredFrac, rootS
}

// printBudget writes the per-layer table of one traced phase.
func printBudget(w io.Writer, title string, rows []layerRow, coveredFrac, rootS float64) {
	var total float64
	for _, r := range rows {
		total += r.SelfS
	}
	fmt.Fprintf(w, "per-layer budget: %s (wall %.3f s, named spans cover %.1f%%, self total %.3f lane-s)\n", title, rootS, 100*coveredFrac, total)
	fmt.Fprintf(w, "  %-28s %-10s %8s %12s %7s\n", "span", "layer", "count", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %-10s %8d %12.4f %6.1f%%\n", r.Name, layerOf(r.Name), r.Count, r.SelfS, 100*ratio(r.SelfS, total))
	}
}

// writeTrace writes the provenance header and every span as JSON lines.
func writeTrace(path string, prov provenance, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"provenance": prov})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
