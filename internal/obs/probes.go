package obs

import "time"

// Probe blocks are the hot-path handles into a Metrics hub: small structs
// of pre-resolved shard cells that a consumer stores in one pointer field,
// nil when observability is disabled. The indirection is resolved once at
// setup (New*Probes picks a shard and looks up every cell), so an enabled
// probe site is "load field, atomic add" and a disabled one is a single
// nil check — no map lookups, no name hashing, no allocation.

// DESProbes instruments one des.Scheduler instance.
type DESProbes struct {
	Scheduled  *Cell // events inserted into the pending queue
	Fired      *Cell // events executed
	RingPushes *Cell // near-band insertions
	FarPushes  *Cell // far-heap insertions
	RingOcc    *GaugeCell
	FarOcc     *GaugeCell
}

// NewDESProbes resolves a kernel probe block on a fresh shard.
func (m *Metrics) NewDESProbes() *DESProbes {
	s := m.Shard()
	return &DESProbes{
		Scheduled:  m.DES.EventsScheduled.Cell(s),
		Fired:      m.DES.EventsFired.Cell(s),
		RingPushes: m.DES.RingPushes.Cell(s),
		FarPushes:  m.DES.FarPushes.Cell(s),
		RingOcc:    m.DES.RingOccupancy.Cell(s),
		FarOcc:     m.DES.FarOccupancy.Cell(s),
	}
}

// BGPProbes instruments one bgp.Network instance.
type BGPProbes struct {
	AnnouncementsSent *Cell
	WithdrawalsSent   *Cell
	UpdatesProcessed  *Cell
	MRAIFlushes       *Cell
	PrefixMRAIFlushes *Cell
	InboxDeferrals    *Cell
	InternedPaths     *Cell
	InternBytes       *Cell
	InternHits        *Cell
}

// NewBGPProbes resolves a protocol probe block on a fresh shard.
func (m *Metrics) NewBGPProbes() *BGPProbes {
	s := m.Shard()
	return &BGPProbes{
		AnnouncementsSent: m.BGP.AnnouncementsSent.Cell(s),
		WithdrawalsSent:   m.BGP.WithdrawalsSent.Cell(s),
		UpdatesProcessed:  m.BGP.UpdatesProcessed.Cell(s),
		MRAIFlushes:       m.BGP.MRAIFlushes.Cell(s),
		PrefixMRAIFlushes: m.BGP.PrefixMRAIFlushes.Cell(s),
		InboxDeferrals:    m.BGP.InboxDeferrals.Cell(s),
		InternedPaths:     m.BGP.InternedPaths.Cell(s),
		InternBytes:       m.BGP.InternBytes.Cell(s),
		InternHits:        m.BGP.InternHits.Cell(s),
	}
}

// ShardProbes instruments one windowed network's barrier coordinator.
// Incremented only by the coordinator goroutine (between windows), never by
// the window workers.
type ShardProbes struct {
	Barriers     *Cell // synchronization windows executed (one barrier each)
	CrossUpdates *Cell // updates admitted from a partition other than the receiver's
	windowSkew   *Histogram
	shard        ShardID
}

// NewShardProbes resolves a barrier-coordinator probe block on a fresh
// shard.
func (m *Metrics) NewShardProbes() *ShardProbes {
	s := m.Shard()
	return &ShardProbes{
		Barriers:     m.Shards.Barriers.Cell(s),
		CrossUpdates: m.Shards.CrossUpdates.Cell(s),
		windowSkew:   m.Shards.WindowSkew,
		shard:        s,
	}
}

// ObserveSkew records one window's worker skew: the max-min spread of the
// wall-clock time each worker spent in the window's tasks (admitting and
// running the partitions it claimed), i.e. how long the least loaded worker
// idled at the barrier. Zero on a single worker.
func (p *ShardProbes) ObserveSkew(d time.Duration) {
	p.windowSkew.Observe(p.shard, d.Seconds())
}

// CoreProbes instruments one core.Scheduler instance.
type CoreProbes struct {
	CellsComputed    *Cell
	CellsCached      *Cell
	CellsFailed      *Cell
	CacheEvictions   *Cell
	CellRetries      *Cell
	PanicsRecovered  *Cell
	CellsQuarantined *Cell
	CellsCancelled   *Cell
	CellsResumed     *Cell
	JournalWrites    *Cell
	JournalLoads     *Cell
	cellSeconds      *Histogram
	cancelSeconds    *Histogram
	shard            ShardID
}

// NewCoreProbes resolves an experiment-scheduler probe block on a fresh
// shard.
func (m *Metrics) NewCoreProbes() *CoreProbes {
	s := m.Shard()
	return &CoreProbes{
		CellsComputed:    m.Core.CellsComputed.Cell(s),
		CellsCached:      m.Core.CellsCached.Cell(s),
		CellsFailed:      m.Core.CellsFailed.Cell(s),
		CacheEvictions:   m.Core.CacheEvictions.Cell(s),
		CellRetries:      m.Core.CellRetries.Cell(s),
		PanicsRecovered:  m.Core.PanicsRecovered.Cell(s),
		CellsQuarantined: m.Core.CellsQuarantined.Cell(s),
		CellsCancelled:   m.Core.CellsCancelled.Cell(s),
		CellsResumed:     m.Core.CellsResumed.Cell(s),
		JournalWrites:    m.Core.JournalWrites.Cell(s),
		JournalLoads:     m.Core.JournalLoads.Cell(s),
		cellSeconds:      m.Core.CellSeconds,
		cancelSeconds:    m.Core.CancelSeconds,
		shard:            s,
	}
}

// ObserveCell records one computed cell's wall time.
func (p *CoreProbes) ObserveCell(d time.Duration) {
	p.cellSeconds.Observe(p.shard, d.Seconds())
}

// ObserveCancel records one grid's cancellation latency: the wall time from
// the context being cancelled to the worker pool fully draining.
func (p *CoreProbes) ObserveCancel(d time.Duration) {
	p.cancelSeconds.Observe(p.shard, d.Seconds())
}

// ServeProbes instruments one serving-layer instance (a churnd daemon's
// internal/serve.Server).
type ServeProbes struct {
	JobsAdmitted    *Cell
	JobsShed        *Cell
	JobsRejected    *Cell
	JobsCompleted   *Cell
	JobsFailed      *Cell
	JobsCancelled   *Cell
	CellsDispatched *Cell
	CellsRecovered  *Cell
	QueueDepth      *GaugeCell
	drainSec        *Histogram
	shard           ShardID
}

// NewServeProbes resolves a serving-layer probe block on a fresh shard.
func (m *Metrics) NewServeProbes() *ServeProbes {
	s := m.Shard()
	return &ServeProbes{
		JobsAdmitted:    m.Serve.JobsAdmitted.Cell(s),
		JobsShed:        m.Serve.JobsShed.Cell(s),
		JobsRejected:    m.Serve.JobsRejected.Cell(s),
		JobsCompleted:   m.Serve.JobsCompleted.Cell(s),
		JobsFailed:      m.Serve.JobsFailed.Cell(s),
		JobsCancelled:   m.Serve.JobsCancelled.Cell(s),
		CellsDispatched: m.Serve.CellsDispatched.Cell(s),
		CellsRecovered:  m.Serve.CellsRecovered.Cell(s),
		QueueDepth:      m.Serve.QueueDepth.Cell(s),
		drainSec:        m.Serve.DrainSeconds,
		shard:           s,
	}
}

// ObserveDrain records one graceful drain's duration.
func (p *ServeProbes) ObserveDrain(d time.Duration) {
	p.drainSec.Observe(p.shard, d.Seconds())
}

// GenPhase identifies one phase of topology generation, in execution
// order. The Grow path skips PhaseClique (the clique is inherited).
type GenPhase int

const (
	PhaseClique GenPhase = iota
	PhaseMNodes
	PhaseStubs
	PhaseCones
	PhaseMPeering
	PhaseCPPeering
	GenPhaseCount
)

var genPhaseNames = [GenPhaseCount]string{
	"clique", "mnodes", "stubs", "cones", "mpeering", "cppeering",
}

func (p GenPhase) String() string { return genPhaseNames[p] }

// TopoProbes instruments topology generation.
type TopoProbes struct {
	Generated *Cell
	Nodes     *Cell
	Edges     *Cell
	genSec    *Histogram
	phaseSec  [GenPhaseCount]*Histogram
	shard     ShardID
}

// NewTopoProbes resolves a topology-generation probe block on a fresh
// shard.
func (m *Metrics) NewTopoProbes() *TopoProbes {
	s := m.Shard()
	p := &TopoProbes{
		Generated: m.Topo.Generated.Cell(s),
		Nodes:     m.Topo.Nodes.Cell(s),
		Edges:     m.Topo.Edges.Cell(s),
		genSec:    m.Topo.GenSeconds,
		shard:     s,
	}
	for ph := GenPhase(0); ph < GenPhaseCount; ph++ {
		p.phaseSec[ph] = m.Topo.PhaseSeconds[ph]
	}
	return p
}

// ObserveGen records one generation's wall time.
func (p *TopoProbes) ObserveGen(d time.Duration) {
	p.genSec.Observe(p.shard, d.Seconds())
}

// ObservePhase records the wall time one generation spent in phase ph.
func (p *TopoProbes) ObservePhase(ph GenPhase, d time.Duration) {
	p.phaseSec[ph].Observe(p.shard, d.Seconds())
}
