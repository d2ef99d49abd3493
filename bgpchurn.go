// Package bgpchurn reproduces the simulation study of Elmokashfi, Kvalbein
// and Dovrolis, "On the scalability of BGP: the roles of topology growth
// and update rate-limiting" (ACM CoNEXT 2008).
//
// The library has four layers, re-exported here as the stable public API:
//
//   - Topology: the paper's controllable AS-level topology generator —
//     tier-1 (T), mid-level (M), content-provider (CP) and customer (C)
//     nodes, customer–provider and peering links, geographic regions,
//     preferential attachment (§3, Table 1).
//   - Scenario: the Baseline growth model and the §5 "what-if" deviations
//     (NO-MIDDLE, RICH-MIDDLE, DENSE-CORE, TREE, PREFER-TOP, ...).
//   - Network: the AS-level BGP discrete-event simulator — no-valley /
//     prefer-customer policy routing, FIFO single-processor nodes with
//     uniform processing delay, per-interface MRAI rate limiting with the
//     WRATE (RFC 4271) and NO-WRATE (RFC 1771) withdrawal variants (§2, §6).
//   - RunCEvents / Sweep: the churn experiment framework — C-events
//     (withdraw + re-announce a prefix at a stub origin), update counting
//     per node type, and the U(X) = Σ m·q·e factor decomposition (§4).
//
// Quick start:
//
//	topo, _ := bgpchurn.Baseline.Generate(1000, 42)
//	res, _ := bgpchurn.RunCEvents(topo, bgpchurn.DefaultExperiment(42))
//	fmt.Println("updates per C-event at tier-1 nodes:", res.U(bgpchurn.T))
//
// The cmd/experiments binary regenerates every figure of the paper;
// EXPERIMENTS.md records paper-vs-measured values.
package bgpchurn

import (
	"context"
	"io"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/compact"
	"bgpchurn/internal/core"
	"bgpchurn/internal/inference"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/stats"
	"bgpchurn/internal/topology"
	"bgpchurn/internal/trace"
	"bgpchurn/internal/workload"
)

// --- Topology layer -------------------------------------------------------

// Topology is an annotated AS-level graph (see internal/topology).
type Topology = topology.Topology

// TopologyParams are the resolved generator inputs of Table 1.
type TopologyParams = topology.Params

// TopologyStats summarizes a topology's structural properties.
type TopologyStats = topology.Stats

// NodeType classifies an AS: T, M, CP or C.
type NodeType = topology.NodeType

// NodeID is a dense node index.
type NodeID = topology.NodeID

// Relation is a neighbor's business relation: Customer, Peer or Provider.
type Relation = topology.Relation

// Node type constants.
const (
	T  = topology.T
	M  = topology.M
	CP = topology.CP
	C  = topology.C
)

// Relation constants.
const (
	Customer = topology.Customer
	Peer     = topology.Peer
	Provider = topology.Provider
)

// GenerateTopology builds a topology from explicit parameters.
func GenerateTopology(p TopologyParams) (*Topology, error) { return topology.Generate(p) }

// GrowTopology extends an existing topology to the larger parameter set p
// without regenerating it: every pre-existing node keeps its ID, type,
// regions and links, and new nodes attach preferentially exactly as the
// generator would attach them. Size sweeps can thus reuse structure across
// sizes (and reuse the protocol engine's interned paths via Network.Grow)
// instead of rebuilding each point from scratch. The source is not
// modified. Scenario.Params with a fixed seed yields growth-compatible
// parameter sets across sizes.
func GrowTopology(t *Topology, p TopologyParams) (*Topology, error) { return topology.Grow(t, p) }

// ComputeTopologyStats measures a topology's structural properties;
// sampleSources bounds the BFS sample for the average path length (0 =
// exact).
func ComputeTopologyStats(t *Topology, sampleSources int) TopologyStats {
	return topology.ComputeStats(t, sampleSources)
}

// DegreeCCDF returns the complementary CDF of total node degree, for
// checking the paper's power-law property.
func DegreeCCDF(t *Topology) (degrees []int, ccdf []float64) {
	return topology.DegreeCCDF(t)
}

// --- Scenario layer -------------------------------------------------------

// Scenario is a named topology growth model.
type Scenario = scenario.Scenario

// The paper's growth models: the Baseline of Table 1 and the §5 deviations.
var (
	Baseline          = scenario.Baseline
	NoMiddle          = scenario.NoMiddle
	RichMiddle        = scenario.RichMiddle
	StaticMiddle      = scenario.StaticMiddle
	TransitClique     = scenario.TransitClique
	DenseCore         = scenario.DenseCore
	DenseEdge         = scenario.DenseEdge
	Tree              = scenario.Tree
	ConstantMHD       = scenario.ConstantMHD
	NoPeering         = scenario.NoPeering
	StrongCorePeering = scenario.StrongCorePeering
	StrongEdgePeering = scenario.StrongEdgePeering
	PreferMiddle      = scenario.PreferMiddle
	PreferTop         = scenario.PreferTop
)

// Scenarios returns every growth model, Baseline first.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioByName looks up a growth model by its paper name.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// --- Protocol layer -------------------------------------------------------

// Network is a running BGP simulation over one topology.
type Network = bgp.Network

// ProtocolConfig carries the protocol parameters (MRAI, WRATE, processing
// delay).
type ProtocolConfig = bgp.Config

// Prefix identifies a routable destination.
type Prefix = bgp.Prefix

// Path is an AS path.
type Path = bgp.Path

// MRAIScope selects per-interface or per-prefix rate-limit timers.
type MRAIScope = bgp.MRAIScope

// MRAI scope constants.
const (
	PerInterface = bgp.PerInterface
	PerPrefix    = bgp.PerPrefix
)

// DampeningConfig configures RFC 2439 route flap dampening, the paper's
// future-work mechanism implemented as an extension.
type DampeningConfig = bgp.Dampening

// DefaultDampening returns the RFC 2439 example dampening parameters.
func DefaultDampening() DampeningConfig { return bgp.DefaultDampening() }

// NewNetwork builds the protocol state for a topology.
func NewNetwork(t *Topology, cfg ProtocolConfig) (*Network, error) { return bgp.New(t, cfg) }

// DefaultProtocol returns the paper's protocol parameters with NO-WRATE
// (withdrawals not rate-limited; RFC 1771 behavior).
func DefaultProtocol(seed uint64) ProtocolConfig { return bgp.DefaultConfig(seed) }

// WRATEProtocol returns the paper's protocol parameters with WRATE
// (withdrawals rate-limited like any update; RFC 4271 behavior).
func WRATEProtocol(seed uint64) ProtocolConfig { return bgp.WRATEConfig(seed) }

// --- Experiment layer -----------------------------------------------------

// Experiment configures a C-event churn measurement on one topology.
type Experiment = core.Config

// Result is the outcome of a C-event experiment.
type Result = core.Result

// TypeResult is the per-node-type aggregate of a Result.
type TypeResult = core.TypeResult

// RelationFactors is the Eq.-1 m/q/e decomposition for one neighbor class.
type RelationFactors = core.RelationFactors

// SweepConfig configures a churn-vs-size sweep for one scenario.
type SweepConfig = core.SweepConfig

// SweepResult holds one Result per network size.
type SweepResult = core.SweepResult

// EventKind selects the routing event an experiment measures: the paper's
// C-event or the link-failure extension.
type EventKind = core.EventKind

// Event kind constants.
const (
	CEventKind    = core.CEvent
	LinkEventKind = core.LinkEvent
)

// SessionResetConfig parameterizes an R-event (core session reset)
// experiment, an extension quantifying how reset churn scales with the
// number of prefixes carried.
type SessionResetConfig = core.SessionResetConfig

// SessionResetResult aggregates an R-event experiment.
type SessionResetResult = core.SessionResetResult

// DefaultSessionResets returns a 20-prefix, 10-session R-event setup.
func DefaultSessionResets(seed uint64) SessionResetConfig {
	return core.DefaultSessionResetConfig(seed)
}

// RunSessionResets fails and immediately restores sampled T-M sessions on
// a multi-prefix table, measuring the churn of each re-exchange.
func RunSessionResets(t *Topology, cfg SessionResetConfig) (*SessionResetResult, error) {
	return core.RunSessionResets(t, cfg)
}

// DefaultExperiment returns the paper's setup: 100 C-event originators,
// NO-WRATE protocol.
func DefaultExperiment(seed uint64) Experiment { return core.DefaultConfig(seed) }

// RunCEvents measures churn per C-event on one topology.
func RunCEvents(t *Topology, cfg Experiment) (*Result, error) { return core.RunCEvents(t, cfg) }

// Sweep runs the C-event experiment across network sizes for one
// scenario, strictly sequentially. On failure the points completed so far
// are returned alongside the error. Prefer RunSweep (parallel cells,
// byte-identical results) unless single-threaded execution is required.
func Sweep(sc Scenario, cfg SweepConfig) (*SweepResult, error) { return core.Sweep(sc, cfg) }

// Scheduler executes experiment grids on a bounded worker pool with a
// content-addressed result cache: each (scenario, size) cell is computed
// at most once per scheduler, and grid output is byte-identical to
// sequential sweeps on the same seeds.
type Scheduler = core.Scheduler

// GridRequest names one scenario sweep inside a grid run.
type GridRequest = core.GridRequest

// CellKey identifies one (scenario, size, seed, config) experiment cell in
// the scheduler cache.
type CellKey = core.CellKey

// CellStatus is a scheduler progress event (see CellState constants).
type CellStatus = core.CellStatus

// CellState classifies scheduler progress events.
type CellState = core.CellState

// CacheStats counts scheduler cache traffic.
type CacheStats = core.CacheStats

// Cell progress states.
const (
	CellStart       = core.CellStart
	CellDone        = core.CellDone
	CellCached      = core.CellCached
	CellFailed      = core.CellFailed
	CellResumed     = core.CellResumed
	CellRetried     = core.CellRetried
	CellQuarantined = core.CellQuarantined
	CellCancelled   = core.CellCancelled
)

// NewScheduler returns an experiment scheduler running at most parallelism
// cells concurrently (0 = GOMAXPROCS) with an empty result cache.
func NewScheduler(parallelism int) *Scheduler { return core.NewScheduler(parallelism) }

// RunSweep runs one scenario sweep with cells in parallel on a one-off
// scheduler. Results are byte-identical to Sweep on the same config; use
// NewScheduler directly to share the result cache across sweeps.
func RunSweep(ctx context.Context, sc Scenario, cfg SweepConfig) (*SweepResult, error) {
	return core.RunSweep(ctx, sc, cfg)
}

// RunGrid executes every (scenario, size) cell of the requests in parallel
// on a one-off scheduler, one SweepResult per request. Identical cells
// across requests are computed once. Cancelling ctx stops new cells and
// drains in-flight ones.
func RunGrid(ctx context.Context, reqs []GridRequest) ([]*SweepResult, error) {
	return core.RunGrid(ctx, reqs)
}

// --- Fault tolerance layer ------------------------------------------------

// CellPanicError reports a panic recovered inside one scheduler cell
// worker; the panicking cell is isolated and the rest of the grid runs on.
type CellPanicError = core.CellPanicError

// CellTimeoutError reports a cell that exceeded Experiment.CellTimeout.
type CellTimeoutError = core.CellTimeoutError

// CellQuarantinedError reports a cell whose transient faults exhausted the
// scheduler's retry budget (see Scheduler.SetRetryPolicy).
type CellQuarantinedError = core.CellQuarantinedError

// IsTransient reports whether err is a retryable cell fault (recovered
// panic or per-cell timeout).
func IsTransient(err error) bool { return core.IsTransient(err) }

// IsQuarantined reports whether err carries a CellQuarantinedError.
func IsQuarantined(err error) bool { return core.IsQuarantined(err) }

// PaperSizes returns the paper's x-axis: 1000..10000 step 1000.
func PaperSizes() []int { return core.PaperSizes() }

// --- Analysis layer -------------------------------------------------------

// TrendResult is the outcome of the Mann-Kendall trend test.
type TrendResult = stats.TrendResult

// Fit is a least-squares polynomial fit with R².
type Fit = stats.Fit

// MannKendall runs the Mann-Kendall trend test with Sen's slope, the
// estimator the paper applies to monitor churn series (Fig. 1).
func MannKendall(series []float64) (TrendResult, error) { return stats.MannKendall(series) }

// LinearFit fits y = a + bx by ordinary least squares.
func LinearFit(x, y []float64) (Fit, error) { return stats.LinearFit(x, y) }

// QuadraticFit fits y = a + bx + cx² by ordinary least squares.
func QuadraticFit(x, y []float64) (Fit, error) { return stats.QuadraticFit(x, y) }

// CompactScheme is a landmark-based compact-routing instance (Cowen's
// stretch-3 scheme), the comparator baseline from the paper's related work:
// ~√n-size tables instead of BGP's Θ(n), bounded stretch, but poor behavior
// under dynamics.
type CompactScheme = compact.Scheme

// CompactStretch summarizes compact-routing path stretch over a sample.
type CompactStretch = compact.StretchStats

// BuildCompactRouting constructs a compact-routing scheme over the
// topology's plain graph with k landmarks (the highest-degree core nodes
// plus random fill).
func BuildCompactRouting(t *Topology, k int, seed uint64) (*CompactScheme, error) {
	g := t.Undirected()
	return compact.Build(g, compact.ChooseLandmarks(g, k, seed))
}

// InferenceResult is the outcome of Gao-style AS relationship inference
// over observed paths (the §3 validation extension).
type InferenceResult = inference.Inferred

// InferenceAccuracy scores an inference against the ground truth.
type InferenceAccuracy = inference.Accuracy

// CollectASPaths gathers every node's best AS path for each prefix from a
// converged network, emulating a route collector with full feeds.
func CollectASPaths(net *Network, prefixes []Prefix) []Path {
	return inference.CollectPaths(net, prefixes)
}

// InferRelationships runs Gao-style relationship inference over AS paths;
// degree supplies the degree oracle used to locate each path's top.
func InferRelationships(paths []Path, degree func(NodeID) int) *InferenceResult {
	return inference.Infer(paths, degree)
}

// EvaluateInference scores an inference against the true topology.
func EvaluateInference(inf *InferenceResult, t *Topology) InferenceAccuracy {
	return inference.Evaluate(inf, t)
}

// WorkloadConfig describes a continuous stream of routing events (prefix
// flaps, link flaps) driven through the simulator, recording the update
// feed at a monitor AS.
type WorkloadConfig = workload.Config

// Timeline is the monitor feed recorded by RunWorkload.
type Timeline = workload.Timeline

// DefaultWorkload returns a day-long workload with moderate event rates.
func DefaultWorkload(seed uint64) WorkloadConfig { return workload.DefaultConfig(seed) }

// RunWorkload drives the simulator with the workload's event stream and
// returns the monitor timeline.
func RunWorkload(t *Topology, proto ProtocolConfig, cfg WorkloadConfig) (*Timeline, error) {
	return workload.Run(t, proto, cfg)
}

// MonitorTraceParams controls the synthetic monitor churn series standing
// in for the proprietary RIPE RIS feed of Fig. 1.
type MonitorTraceParams = trace.Params

// DefaultMonitorTrace returns parameters calibrated to Fig. 1 (~200% growth
// over three years, bursty).
func DefaultMonitorTrace(seed uint64) MonitorTraceParams { return trace.Default(seed) }

// GenerateMonitorTrace synthesizes a daily update-count series.
func GenerateMonitorTrace(p MonitorTraceParams) ([]float64, error) { return trace.Generate(p) }

// --- Observability layer --------------------------------------------------

// ObsMetrics is the instrumentation hub: sharded atomic counters, gauges
// and histograms covering the DES kernel, the BGP engine, the experiment
// scheduler and topology generation (see internal/obs). Attach one hub per
// run via Experiment.Obs, Scheduler.SetObs and Network.SetObs; probes are
// allocation-free and never perturb simulation determinism.
type ObsMetrics = obs.Metrics

// ObsServer serves a hub's metrics over HTTP (/metrics Prometheus text,
// /debug/vars expvar, /debug/pprof/ profiles).
type ObsServer = obs.Server

// SpanRecorder collects the sweep→cell→origin→event causal span hierarchy
// of a run. Attach via Experiment.Spans; export with WriteJSONL or
// WriteChromeTrace. Recording is provably inert: results are byte-identical
// with spans on (the determinism tier enforces it).
type SpanRecorder = obs.SpanRecorder

// SpanRecord is one completed span: level, wall- and virtual-time extent,
// grid-cell identity and attribution stats.
type SpanRecord = obs.SpanRecord

// Span levels, outermost to innermost.
const (
	SpanSweep  = obs.SpanSweep
	SpanCell   = obs.SpanCell
	SpanOrigin = obs.SpanOrigin
	SpanEvent  = obs.SpanEvent
)

// NewSpanRecorder creates an empty span recorder whose wall epoch is now.
func NewSpanRecorder() *SpanRecorder { return obs.NewSpanRecorder() }

// ReadSpanJSONL parses a stream written by SpanRecorder.WriteJSONL.
func ReadSpanJSONL(r io.Reader) ([]SpanRecord, error) { return obs.ReadSpanJSONL(r) }

// ProgressBroker fans live progress events out to /progress SSE
// subscribers; obtain a server's broker via ObsServer.Progress.
type ProgressBroker = obs.ProgressBroker

// CauseID is the compact root-cause identity every in-flight update carries
// while causal tracing is enabled (0 = tracing off / no open cause).
type CauseID = bgp.CauseID

// CauseKind classifies the routing event behind a cause ID.
type CauseKind = bgp.CauseKind

// Cause kinds.
const (
	CauseNone        = bgp.CauseNone
	CauseWithdraw    = bgp.CauseWithdraw
	CauseAnnounce    = bgp.CauseAnnounce
	CauseLinkFail    = bgp.CauseLinkFail
	CauseLinkRestore = bgp.CauseLinkRestore
)

// EventAttribution is one routing event's provenance tree: per-type×relation
// update counts and active-session counts (the live Eq.-1 m·q·e terms),
// duplicate/implicit-withdrawal classification, path-exploration depth, and
// the event's virtual convergence span. Produced by Network.EndCause.
type EventAttribution = bgp.EventAttribution

// TypeAttribution is the per-node-type slice of an EventAttribution.
type TypeAttribution = bgp.TypeAttribution

// RelAttribution is the per-relation slice of a TypeAttribution.
type RelAttribution = bgp.RelAttribution

// Manifest is the per-run provenance record (config, seeds, toolchain,
// per-cell timings, cache traffic, final metric snapshot).
type Manifest = obs.Manifest

// CellTiming is one Manifest entry per grid-cell progress event.
type CellTiming = obs.CellTiming

// ManifestCacheCounts mirrors CacheStats inside a Manifest.
type ManifestCacheCounts = obs.CacheCounts

// NewObsMetrics builds a hub with every simulator metric registered.
func NewObsMetrics() *ObsMetrics { return obs.New() }

// ServeObs starts the metrics exposition server on addr (":0" picks a free
// port).
func ServeObs(addr string, m *ObsMetrics) (*ObsServer, error) { return obs.Serve(addr, m) }

// ReadManifest loads and validates a manifest written by Manifest.WriteFile.
func ReadManifest(path string) (*Manifest, error) { return obs.ReadManifest(path) }

// InstrumentTopologyGeneration routes topology-generation metrics into the
// hub (process-wide; pass nil to detach).
func InstrumentTopologyGeneration(m *ObsMetrics) {
	if m == nil {
		topology.SetObsProbes(nil)
		return
	}
	topology.SetObsProbes(m.NewTopoProbes())
}

// GitRevision returns the VCS revision embedded in the binary ("unknown"
// for unstamped builds).
func GitRevision() string { return obs.GitRevision() }
