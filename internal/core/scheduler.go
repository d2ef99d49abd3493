package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bgpchurn/internal/bgp"
	"bgpchurn/internal/des"
	"bgpchurn/internal/obs"
	"bgpchurn/internal/rng"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// CellKey identifies one (scenario, size) grid cell by every input that
// determines its Result: the scenario name, the size, the sweep-level
// topology seed, and the event configuration. Config.Parallelism, all
// callbacks, and the observability attachments (Obs, Trace, Spans) are
// deliberately excluded — results are independent of them all (the
// determinism tier proves it for the attachments) — so the same experiment
// requested at different worker counts or probe settings still hits the
// cache. CellTimeout is excluded for the same reason: a deadline decides
// whether a result arrives, never what it is. So is bgp.Config.Shards: the
// sharded executor is byte-identical at every shard count (the determinism
// tier enforces it), so cells dedupe across shard counts — but LinkDelay
// stays in the key, because the propagation latency does change results.
// bgp.Config.CompactRIB, which the engine ignores, is zeroed too.
// Scenario names are unique across the package, which makes the name a
// faithful stand-in for the (unexported) parameter transform.
type CellKey struct {
	Scenario     string
	N            int
	TopologySeed uint64
	Origins      int
	Settle       des.Time
	Kind         EventKind
	WarmStart    bool
	BGP          bgp.Config
}

// KeyFor returns the cell key the scheduler would use for one (scenario,
// size) cell of a sweep: the projection of ev onto CellKey's cacheable
// fields. Serving layers use it to match SubscribeCells events against the
// cells of a submitted job without re-deriving the projection rules.
func KeyFor(scenarioName string, n int, topoSeed uint64, ev Config) CellKey {
	return cellKey(scenarioName, n, topoSeed, ev)
}

// keyBGP zeroes the protocol-config fields no result depends on; see CellKey.
func keyBGP(c bgp.Config) bgp.Config {
	c.Shards = 0
	c.CompactRIB = false
	return c
}

// cellKey projects the cacheable part of an event config onto a key.
func cellKey(scName string, n int, topoSeed uint64, ev Config) CellKey {
	return CellKey{
		Scenario:     scName,
		N:            n,
		TopologySeed: topoSeed,
		Origins:      ev.Origins,
		Settle:       ev.Settle,
		Kind:         ev.Kind,
		WarmStart:    ev.WarmStart,
		BGP:          keyBGP(ev.BGP),
	}
}

// CellState classifies scheduler progress events.
type CellState uint8

const (
	// CellStart fires when a worker begins computing a cell.
	CellStart CellState = iota
	// CellDone fires when a computed cell finishes successfully.
	CellDone
	// CellCached fires when a cell is served from the result cache
	// (including waiting for an in-flight computation of the same key).
	CellCached
	// CellFailed fires when a computed cell ends in a permanent error.
	CellFailed
	// CellResumed fires when a cell is served from a checkpoint journal
	// replayed by Resume — a cache hit whose result predates the process.
	CellResumed
	// CellRetried fires after a transient fault (panic, timeout) when the
	// scheduler is about to recompute the cell; Attempt carries the attempt
	// number that just failed.
	CellRetried
	// CellQuarantined fires when a cell exhausts the retry budget: the cell
	// is excluded from the sweep, the grid keeps running.
	CellQuarantined
	// CellCancelled fires when a cell is abandoned because the grid context
	// was cancelled before or during its computation.
	CellCancelled
)

// String names the state ("start", "done", "cached", "failed", "resumed",
// "retried", "quarantined", "cancelled").
func (s CellState) String() string {
	switch s {
	case CellStart:
		return "start"
	case CellDone:
		return "done"
	case CellCached:
		return "cached"
	case CellFailed:
		return "failed"
	case CellResumed:
		return "resumed"
	case CellRetried:
		return "retried"
	case CellQuarantined:
		return "quarantined"
	case CellCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("CellState(%d)", uint8(s))
}

// CellStatus is one progress event delivered to Scheduler.OnCell.
type CellStatus struct {
	// Scenario and N name the grid cell.
	Scenario string
	N        int
	// Key is the cell's full cache identity (see CellKey/KeyFor), so
	// subscribers sharing the scheduler can route events to the jobs that
	// requested the cell.
	Key CellKey
	// Seed is the cell's effective topology seed (request seed + N).
	Seed uint64
	// State says what happened.
	State CellState
	// Attempt is the number of computation attempts made so far: 1 for a
	// first-try CellDone/CellFailed, the failed attempt number for
	// CellRetried, the full budget for CellQuarantined. Zero for events
	// that never computed (start, cached, resumed, cancelled-before-start).
	Attempt int
	// Elapsed is the computation time (CellDone/CellFailed/CellQuarantined,
	// summed across attempts) or the time spent waiting on an in-flight
	// duplicate (CellCached/CellResumed; ~0 for a warm hit). Zero for
	// CellStart and CellRetried.
	Elapsed time.Duration
	// Err is set for CellFailed, CellRetried, CellQuarantined and
	// CellCancelled (and for CellCached when the cached computation had
	// failed).
	Err error
}

// GridRequest names one scenario sweep inside a grid run: the scheduler
// treats every (scenario, size) pair as an independent job.
type GridRequest struct {
	// Scenario is the growth model to sweep.
	Scenario scenario.Scenario
	// Sizes are the network sizes to measure.
	Sizes []int
	// TopologySeed seeds topology generation; each size uses
	// TopologySeed+size, exactly as the sequential Sweep does.
	TopologySeed uint64
	// Event is the per-topology experiment configuration.
	Event Config
	// Progress, when non-nil, is called when a cell of this request starts
	// computing (not for cache hits), mirroring SweepConfig.Progress. Cells
	// run concurrently, so calls arrive in completion order, serialized.
	Progress func(scenarioName string, n int)
}

// CacheStats counts scheduler cache traffic.
type CacheStats struct {
	// Hits is the number of cells served from the cache (or coalesced onto
	// an in-flight computation of the same key), including resumed cells.
	Hits int
	// Misses is the number of cells actually computed.
	Misses int
	// Evictions is the number of completed results dropped by the LRU
	// entry-count cap (see SetCacheLimit).
	Evictions int
	// Resumed is the number of cache hits served from a replayed journal.
	Resumed int
	// Retries is the number of recomputations after transient faults.
	Retries int
	// Quarantined is the number of cells that exhausted the retry budget.
	Quarantined int
	// Cancelled is the number of cells abandoned by grid cancellation.
	Cancelled int
}

// DefaultCacheCap is the scheduler's default result-cache entry limit. A
// Result is small (a few KB), so the default accommodates every figure grid
// the paper needs while bounding a long-lived scheduler (e.g. a service
// answering what-if queries) to a few MB of cached results.
const DefaultCacheCap = 512

// DefaultRetryBackoff is the base delay of the deterministic exponential
// backoff between retry attempts of one cell.
const DefaultRetryBackoff = 100 * time.Millisecond

// retrySeedSalt decorrelates the retry-backoff RNG stream from every other
// use of the cell key hash.
const retrySeedSalt = 0x5ca1ab1e0ddba11

// Scheduler executes experiment grids on a bounded worker pool with a
// content-addressed result cache. Each (scenario, size) cell is an
// independent deterministic job, so cells may run in any order and on any
// number of workers without changing results; assembly orders cells by the
// request's size list, making grid output byte-identical to sequential
// Sweep runs. Cells with equal CellKeys are computed once while cached —
// concurrent duplicates coalesce onto the in-flight computation — which
// lets figures that share a sweep (Fig. 4–12 all reuse the Baseline sweep)
// pay for it once. The cache holds at most SetCacheLimit entries
// (DefaultCacheCap by default), evicting least-recently-used results; an
// evicted cell is simply recomputed if requested again.
//
// The scheduler is fault-tolerant (DESIGN.md, "Failure model"): a panic
// inside one cell worker is recovered and isolated as a CellPanicError, a
// cell exceeding Config.CellTimeout fails with a CellTimeoutError, and both
// are retried up to SetRetryPolicy's budget with deterministic per-cell
// backoff before the cell is quarantined (CellQuarantinedError) — the rest
// of the grid always completes. With SetJournal attached, every computed
// result is checkpointed to a crash-safe JSONL journal that Resume replays
// into the cache, so a killed run recomputes only missing cells.
//
// A Scheduler is safe for concurrent use. Set OnCell before the first run.
type Scheduler struct {
	parallelism int

	// OnCell, when non-nil, receives one CellStart and one CellDone (or
	// CellFailed/CellQuarantined) event per computed cell, a CellRetried
	// event per retry attempt, one CellCached/CellResumed event per cache
	// hit, and one CellCancelled event per abandoned cell. Calls are
	// serialized; the callback needs no locking.
	OnCell func(CellStatus)

	// OnResult, when non-nil, receives every cell Result the moment it is
	// available — once per computed cell (State == CellDone) and once per
	// cache hit that carries a result (CellCached/CellResumed). It exists so
	// a progress plane can stream rolling attribution summaries mid-grid
	// without waiting for assembly. Calls are serialized with OnCell on the
	// same mutex; the Result is shared with the cache and must be treated as
	// read-only.
	OnResult func(CellStatus, *Result)

	mu       sync.Mutex
	cache    map[CellKey]*cacheEntry
	lru      *list.List // CellKeys, most recently used at the front
	cacheCap int
	stats    CacheStats

	// retries is the number of recomputations allowed per cell after
	// transient faults; backoff is the base delay between them.
	retries int
	backoff time.Duration

	// journal, when non-nil, receives one checkpoint per computed cell.
	journal *Journal

	// quarantined collects the cells that exhausted the retry budget, in
	// quarantine order.
	quarantined []*CellQuarantinedError

	// emitMu serializes every progress delivery (OnCell, OnResult and all
	// subscribers) and guards the subscriber lists.
	emitMu     sync.Mutex
	cellSubs   []cellSubscriber
	resultSubs []resultSubscriber
	nextSubID  int

	// probes is the scheduler's observability block; nil when disabled
	// (see SetObs).
	probes *obs.CoreProbes

	// generate and run are seams for tests (counting hooks, fault
	// injection); they default to Scenario.Generate and RunCEventsContext.
	generate func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error)
	run      func(ctx context.Context, t *topology.Topology, cfg Config) (*Result, error)
}

// NewScheduler returns a scheduler running at most parallelism cells
// concurrently (0 = GOMAXPROCS) with an empty cache and no retries.
func NewScheduler(parallelism int) *Scheduler {
	return &Scheduler{
		parallelism: parallelism,
		cache:       map[CellKey]*cacheEntry{},
		lru:         list.New(),
		cacheCap:    DefaultCacheCap,
		backoff:     DefaultRetryBackoff,
		generate: func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
			return sc.Generate(n, seed)
		},
		run: RunCEventsContext,
	}
}

// cacheEntry is a singleflight slot: the first requester of a key computes
// while later requesters wait on ready.
type cacheEntry struct {
	ready chan struct{}
	res   *Result
	err   error
	// resumed marks entries seeded from a checkpoint journal.
	resumed bool
	// dropped marks entries abandoned by cancellation and removed from the
	// cache before ready closed: err carries a context error that is not the
	// waiter's own, so coalesced waiters must recompute, not inherit it.
	dropped bool
	// elem is this entry's position in the scheduler's LRU list.
	elem *list.Element
}

// cellSubscriber and resultSubscriber are fan-out registrations added by
// SubscribeCells/SubscribeResults, delivered in registration order.
type cellSubscriber struct {
	id int
	fn func(CellStatus)
}

type resultSubscriber struct {
	id int
	fn func(CellStatus, *Result)
}

// SubscribeCells registers an additional progress callback alongside OnCell:
// every event OnCell would see is also delivered to fn, serialized on the
// same mutex (subscribers never need their own locking, and must not block —
// a slow subscriber stalls every worker's progress reporting). Unlike the
// single OnCell field, any number of subscribers may coexist, which is what
// lets several serving-layer jobs watch one shared scheduler. The returned
// cancel function removes the subscription; it is idempotent.
func (s *Scheduler) SubscribeCells(fn func(CellStatus)) (cancel func()) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	id := s.nextSubID
	s.nextSubID++
	s.cellSubs = append(s.cellSubs, cellSubscriber{id, fn})
	return func() {
		s.emitMu.Lock()
		defer s.emitMu.Unlock()
		for i, sub := range s.cellSubs {
			if sub.id == id {
				s.cellSubs = append(s.cellSubs[:i:i], s.cellSubs[i+1:]...)
				return
			}
		}
	}
}

// SubscribeResults registers an additional result callback alongside
// OnResult, with the same delivery and blocking rules as SubscribeCells.
// The *Result is shared with the cache and must be treated as read-only.
func (s *Scheduler) SubscribeResults(fn func(CellStatus, *Result)) (cancel func()) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	id := s.nextSubID
	s.nextSubID++
	s.resultSubs = append(s.resultSubs, resultSubscriber{id, fn})
	return func() {
		s.emitMu.Lock()
		defer s.emitMu.Unlock()
		for i, sub := range s.resultSubs {
			if sub.id == id {
				s.resultSubs = append(s.resultSubs[:i:i], s.resultSubs[i+1:]...)
				return
			}
		}
	}
}

// SetCompute replaces the scheduler's computation seams: generate builds the
// topology for one (scenario, n, seed) cell and run executes the experiment
// on it. A nil argument keeps that seam unchanged. The seam exists for tests
// and serving layers that substitute synthetic workloads; replacements must
// stay deterministic in their inputs or the cache, journal and resume
// guarantees all break. Set the seams before the first run: workers read
// them without locking while a grid is in flight.
func (s *Scheduler) SetCompute(
	generate func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error),
	run func(ctx context.Context, t *topology.Topology, cfg Config) (*Result, error),
) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if generate != nil {
		s.generate = generate
	}
	if run != nil {
		s.run = run
	}
}

// SetObs attaches the metrics hub: cache traffic and per-cell wall times
// flow into it from then on. Pass nil to detach. Counting is additive to
// CacheStats and has no effect on results.
func (s *Scheduler) SetObs(m *obs.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m == nil {
		s.probes = nil
		return
	}
	s.probes = m.NewCoreProbes()
}

// SetRetryPolicy configures fault handling: transient faults (panics,
// timeouts) are recomputed up to retries times per cell before the cell is
// quarantined, waiting backoff·2^attempt (jittered deterministically from
// the cell key) between attempts. backoff <= 0 keeps the current value
// (DefaultRetryBackoff initially); retries < 0 is treated as 0. The default
// is zero retries: the first transient fault quarantines the cell.
func (s *Scheduler) SetRetryPolicy(retries int, backoff time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if retries < 0 {
		retries = 0
	}
	s.retries = retries
	if backoff > 0 {
		s.backoff = backoff
	}
}

// SetJournal attaches a checkpoint journal: from then on every successfully
// computed cell is appended to it. Pass nil to detach. Journal failures
// never fail the computation they checkpoint; inspect Journal.Err.
func (s *Scheduler) SetJournal(j *Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// Journal returns the attached checkpoint journal, or nil.
func (s *Scheduler) Journal() *Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal
}

// Resume replays checkpoint records (see LoadJournal) into the result
// cache and returns how many were seeded. Keys already cached are left
// untouched. Subsequent requests for a seeded key are served without
// recomputation and reported as CellResumed. If the journal holds more
// records than the cache cap, the cap is raised to fit them all — a resume
// never evicts the cells it restores.
func (s *Scheduler) Resume(recs []JournalRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seeded := 0
	for _, rec := range recs {
		if rec.Result == nil {
			continue
		}
		// A journal may predate a projection cellKey applies today.
		key := rec.Key
		key.BGP = keyBGP(key.BGP)
		if _, ok := s.cache[key]; ok {
			continue
		}
		ready := make(chan struct{})
		close(ready)
		e := &cacheEntry{ready: ready, res: rec.Result, resumed: true}
		e.elem = s.lru.PushFront(key)
		s.cache[key] = e
		seeded++
	}
	if p := s.probes; p != nil && seeded > 0 {
		p.JournalLoads.Add(uint64(seeded))
	}
	// A journal larger than the cache cap must not silently evict the cells
	// it just seeded (they would be recomputed, defeating the resume): grow
	// the cap to hold the full checkpoint.
	if s.cacheCap > 0 && s.lru.Len() > s.cacheCap {
		s.cacheCap = s.lru.Len()
	}
	s.evictLocked()
	return seeded
}

// Quarantined returns the cells that exhausted the retry budget so far, in
// quarantine order.
func (s *Scheduler) Quarantined() []*CellQuarantinedError {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*CellQuarantinedError, len(s.quarantined))
	copy(out, s.quarantined)
	return out
}

// CacheStats returns the cache traffic so far.
func (s *Scheduler) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetCacheLimit bounds the result cache to at most n completed entries,
// evicting least-recently-used results immediately if it is over. n <= 0
// removes the bound. The default is DefaultCacheCap.
func (s *Scheduler) SetCacheLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cacheCap = n
	s.evictLocked()
}

// evictLocked drops least-recently-used completed entries until the cache
// respects the cap. In-flight entries are never evicted — their waiters are
// counting on the singleflight slot — so the cache may transiently exceed
// the cap by the number of concurrent computations. Caller holds s.mu.
func (s *Scheduler) evictLocked() {
	if s.cacheCap <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.lru.Len() > s.cacheCap; {
		prev := el.Prev()
		key := el.Value.(CellKey)
		e := s.cache[key]
		select {
		case <-e.ready:
			delete(s.cache, key)
			s.lru.Remove(el)
			s.stats.Evictions++
			if p := s.probes; p != nil {
				p.CacheEvictions.Inc()
			}
		default:
			// Still computing; skip toward the front.
		}
		el = prev
	}
}

// dropEntry removes a singleflight entry whose computation was abandoned by
// cancellation, so a later run (or a resumed process) computes it fresh
// instead of being served the cancellation error. Must be called before the
// entry's ready channel is closed: the dropped flag is then visible to every
// waiter that wakes.
func (s *Scheduler) dropEntry(key CellKey, e *cacheEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.dropped = true
	if cur, ok := s.cache[key]; ok && cur == e {
		delete(s.cache, key)
		s.lru.Remove(e.elem)
	}
}

// emit delivers one progress event to OnCell and every cell subscriber,
// serialized.
func (s *Scheduler) emit(cs CellStatus) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if s.OnCell != nil {
		s.OnCell(cs)
	}
	for _, sub := range s.cellSubs {
		sub.fn(cs)
	}
}

// emitResult delivers one available cell result to OnResult and every result
// subscriber, serialized on the same mutex as emit so cell and result events
// observe a consistent order.
func (s *Scheduler) emitResult(cs CellStatus, res *Result) {
	if res == nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if s.OnResult != nil {
		s.OnResult(cs, res)
	}
	for _, sub := range s.resultSubs {
		sub.fn(cs, res)
	}
}

// cellError uniformly names a failing cell. Fault types already carry the
// cell key in their message, so they pass through unwrapped for errors.As.
func cellError(scName string, n int, err error) error {
	if IsTransient(err) || IsQuarantined(err) {
		return err
	}
	return fmt.Errorf("core: %s at n=%d: %w", scName, n, err)
}

// cell computes or fetches one grid cell under the grid context.
func (s *Scheduler) cell(ctx context.Context, sc scenario.Scenario, n int, topoSeed uint64, ev Config, progress func(string, int)) (*Result, error) {
	key := cellKey(sc.Name, n, topoSeed, ev)
	seed := topoSeed + uint64(n)
	if err := ctx.Err(); err != nil {
		return nil, s.cancelCell(key, sc.Name, n, seed, err)
	}
	s.mu.Lock()
	probes := s.probes
	if e, ok := s.cache[key]; ok {
		s.stats.Hits++
		state := CellCached
		if e.resumed {
			state = CellResumed
			s.stats.Resumed++
		}
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		start := time.Now()
		<-e.ready
		if e.dropped && ctx.Err() == nil {
			// The in-flight computation this request coalesced onto was
			// abandoned by a cancellation that is not ours (e.g. another
			// grid's context on a shared scheduler). Its error must not leak
			// through the cache-hit path: undo the hit and recompute the cell
			// under this caller's own, still-live context.
			s.mu.Lock()
			s.stats.Hits--
			s.mu.Unlock()
			return s.cell(ctx, sc, n, topoSeed, ev, progress)
		}
		if probes != nil {
			if state == CellResumed {
				probes.CellsResumed.Inc()
			} else {
				probes.CellsCached.Inc()
			}
		}
		cs := CellStatus{Scenario: sc.Name, N: n, Key: key, Seed: seed, State: state, Elapsed: time.Since(start), Err: e.err}
		s.emit(cs)
		if e.err == nil {
			s.emitResult(cs, e.res)
		}
		return e.res, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	e.elem = s.lru.PushFront(key)
	s.cache[key] = e
	s.stats.Misses++
	s.evictLocked()
	s.mu.Unlock()

	if progress != nil {
		s.emitMu.Lock()
		progress(sc.Name, n)
		s.emitMu.Unlock()
	}
	s.emit(CellStatus{Scenario: sc.Name, N: n, Key: key, Seed: seed, State: CellStart})
	start := time.Now()
	res, err, attempts := s.computeWithRetry(ctx, key, sc, n, seed, ev, probes)
	elapsed := time.Since(start)

	state := CellDone
	switch {
	case err == nil:
		if j := s.Journal(); j != nil {
			if jerr := j.Append(key, res); jerr == nil && probes != nil {
				probes.JournalWrites.Inc()
			}
		}
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// The grid was cancelled out from under the computation: abandon the
		// singleflight slot so nothing caches the cancellation.
		e.res, e.err = nil, cellError(sc.Name, n, err)
		s.dropEntry(key, e)
		close(e.ready)
		s.mu.Lock()
		s.stats.Cancelled++
		s.mu.Unlock()
		if probes != nil {
			probes.CellsCancelled.Inc()
		}
		s.emit(CellStatus{Scenario: sc.Name, N: n, Key: key, Seed: seed, State: CellCancelled, Attempt: attempts, Elapsed: elapsed, Err: e.err})
		return nil, e.err
	case IsTransient(err):
		// Retry budget exhausted: quarantine the cell instead of failing the
		// run. The entry stays cached so duplicate requests coalesce; the
		// journal never sees it, so a resumed run recomputes it.
		qe := &CellQuarantinedError{Key: key, Attempts: attempts, Last: err}
		err = qe
		state = CellQuarantined
		s.mu.Lock()
		s.quarantined = append(s.quarantined, qe)
		s.stats.Quarantined++
		s.mu.Unlock()
		if probes != nil {
			probes.CellsQuarantined.Inc()
		}
	default:
		err = cellError(sc.Name, n, err)
		state = CellFailed
	}
	e.res, e.err = res, err
	close(e.ready)
	if probes != nil {
		switch state {
		case CellDone:
			probes.CellsComputed.Inc()
			probes.ObserveCell(elapsed)
		case CellFailed:
			probes.CellsFailed.Inc()
		}
	}
	cs := CellStatus{Scenario: sc.Name, N: n, Key: key, Seed: seed, State: state, Attempt: attempts, Elapsed: elapsed, Err: err}
	s.emit(cs)
	if state == CellDone {
		s.emitResult(cs, res)
	}
	return res, err
}

// cancelCell records one cell abandoned before computation started.
func (s *Scheduler) cancelCell(key CellKey, scName string, n int, seed uint64, cause error) error {
	err := fmt.Errorf("core: %s at n=%d: %w", scName, n, cause)
	s.mu.Lock()
	s.stats.Cancelled++
	probes := s.probes
	s.mu.Unlock()
	if probes != nil {
		probes.CellsCancelled.Inc()
	}
	s.emit(CellStatus{Scenario: scName, N: n, Key: key, Seed: seed, State: CellCancelled, Err: err})
	return err
}

// computeWithRetry runs one cell to completion under the retry policy:
// transient faults are recomputed up to the budget with deterministic
// exponential backoff (the jitter stream is seeded from the cell key, so a
// given cell always waits the same schedule regardless of worker count or
// interleaving). It returns the result or terminal error plus the number of
// attempts made.
func (s *Scheduler) computeWithRetry(ctx context.Context, key CellKey, sc scenario.Scenario, n int, seed uint64, ev Config, probes *obs.CoreProbes) (*Result, error, int) {
	s.mu.Lock()
	retries, backoff := s.retries, s.backoff
	s.mu.Unlock()
	var backoffRng *rng.Source
	attempts := 0
	for {
		attempts++
		res, err := s.computeOnce(ctx, key, sc, n, seed, ev, probes)
		if err == nil {
			return res, nil, attempts
		}
		if ctx.Err() != nil || !IsTransient(err) || attempts > retries {
			return nil, err, attempts
		}
		s.mu.Lock()
		s.stats.Retries++
		s.mu.Unlock()
		if probes != nil {
			probes.CellRetries.Inc()
		}
		s.emit(CellStatus{Scenario: sc.Name, N: n, Key: key, Seed: seed, State: CellRetried, Attempt: attempts, Err: err})
		if backoffRng == nil {
			backoffRng = rng.New(keyHash(key) ^ retrySeedSalt)
		}
		if !sleepContext(ctx, retryDelay(backoffRng, backoff, attempts)) {
			return nil, ctx.Err(), attempts
		}
	}
}

// maxRetryBackoff caps the exponential growth of the per-attempt retry
// delay. Without it a large retry budget overflows the shift (attempt ≳ 33
// at the default base) into a non-positive duration that Jitter clamps to
// ~1ns — a hot retry loop instead of a backoff.
const maxRetryBackoff = 5 * time.Minute

// retryDelay computes the wait before retry number attempt: exponential in
// the attempt count up to maxRetryBackoff, scaled by a jitter factor in
// [0.5, 1.0] drawn from the cell's deterministic backoff stream.
func retryDelay(r *rng.Source, base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	limit := maxRetryBackoff
	if base > limit {
		limit = base
	}
	d := base
	for i := 1; i < attempt && d < limit; i++ {
		d <<= 1
		if d <= 0 || d > limit { // d <= 0 is shift overflow
			d = limit
		}
	}
	return time.Duration(r.Jitter(int64(d), 0.5, 1.0))
}

// sleepContext waits for d or until ctx is cancelled; it reports whether
// the full wait elapsed.
func sleepContext(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// computeOnce performs a single computation attempt with panic isolation
// and the per-cell deadline applied.
func (s *Scheduler) computeOnce(ctx context.Context, key CellKey, sc scenario.Scenario, n int, seed uint64, ev Config, probes *obs.CoreProbes) (res *Result, err error) {
	cellCtx := ctx
	if ev.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, ev.CellTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			res, err = nil, &CellPanicError{Key: key, Value: r, Stack: buf}
			if probes != nil {
				probes.PanicsRecovered.Inc()
			}
		}
	}()
	topo, err := s.generate(sc, n, seed)
	if err == nil {
		res, err = s.run(cellCtx, topo, ev)
	}
	if err != nil {
		// A deadline on the cell context while the grid context is healthy is
		// this cell's own timeout: a transient, retryable fault.
		if ev.CellTimeout > 0 && cellCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = &CellTimeoutError{Key: key, Timeout: ev.CellTimeout}
		}
		return nil, err
	}
	return res, nil
}

// RunGrid executes every (scenario, size) cell of the requests on the
// worker pool and assembles one SweepResult per request, sizes in request
// order. On cell failure the remaining cells still run; the completed
// points of every request are returned alongside the first error in grid
// order, and the error names the failing (scenario, n) cell (quarantined
// cells surface as *CellQuarantinedError). Cancelling ctx stops new cells
// from being scheduled, aborts in-flight simulations at their next
// origin boundary, and returns once the pool drains; abandoned cells carry
// the context error and are never cached or journaled.
func (s *Scheduler) RunGrid(ctx context.Context, reqs []GridRequest) ([]*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	type slot struct {
		res *Result
		err error
	}
	type job struct{ req, idx int }
	var jobs []job
	slots := make([][]slot, len(reqs))
	for i := range reqs {
		if len(reqs[i].Sizes) == 0 {
			return nil, fmt.Errorf("core: grid request %d (%s): empty size list", i, reqs[i].Scenario.Name)
		}
		slots[i] = make([]slot, len(reqs[i].Sizes))
		for j := range reqs[i].Sizes {
			jobs = append(jobs, job{i, j})
		}
	}

	workers := s.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Cancellation latency: a watcher notes when the context fires; after
	// the pool drains the elapsed time lands in the cancel histogram.
	var cancelledAt atomic.Int64
	drained := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			cancelledAt.Store(time.Now().UnixNano())
		case <-drained:
		}
	}()

	next := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range next {
				r := &reqs[jb.req]
				res, err := s.cell(ctx, r.Scenario, r.Sizes[jb.idx], r.TopologySeed, r.Event, r.Progress)
				slots[jb.req][jb.idx] = slot{res, err}
			}
		}()
	}
	delivered := 0
feed:
	for _, jb := range jobs {
		select {
		case next <- jb:
			delivered++
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	// Jobs never handed to a worker are marked cancelled so assembly does
	// not mistake their empty slots for successful (nil) results.
	for _, jb := range jobs[delivered:] {
		r := &reqs[jb.req]
		n := r.Sizes[jb.idx]
		key := cellKey(r.Scenario.Name, n, r.TopologySeed, r.Event)
		slots[jb.req][jb.idx] = slot{nil, s.cancelCell(key, r.Scenario.Name, n, r.TopologySeed+uint64(n), ctx.Err())}
	}
	wg.Wait()
	close(drained)
	<-watcherDone
	if t := cancelledAt.Load(); t != 0 {
		s.mu.Lock()
		probes := s.probes
		s.mu.Unlock()
		if probes != nil {
			probes.ObserveCancel(time.Duration(time.Now().UnixNano() - t))
		}
	}

	// Deterministic assembly: each cell was stored in its (request, size)
	// slot, so output order is independent of completion order.
	out := make([]*SweepResult, len(reqs))
	var firstErr error
	for i := range reqs {
		sr := &SweepResult{Scenario: reqs[i].Scenario.Name}
		for j, n := range reqs[i].Sizes {
			sl := slots[i][j]
			if sl.err != nil {
				if firstErr == nil {
					firstErr = sl.err
				}
				continue
			}
			sr.Points = append(sr.Points, Point{N: n, R: sl.res})
		}
		out[i] = sr
	}
	return out, firstErr
}

// RunSweep runs one scenario sweep through the scheduler: cells execute in
// parallel and previously computed cells are served from the cache. The
// result is byte-identical to the sequential Sweep on the same config.
func (s *Scheduler) RunSweep(ctx context.Context, sc scenario.Scenario, cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("core: empty size list")
	}
	out, err := s.RunGrid(ctx, []GridRequest{{
		Scenario:     sc,
		Sizes:        cfg.Sizes,
		TopologySeed: cfg.TopologySeed,
		Event:        cfg.Event,
		Progress:     cfg.Progress,
	}})
	if len(out) == 0 {
		return nil, err
	}
	return out[0], err
}

// RunGrid executes the grid on a one-off scheduler with GOMAXPROCS
// workers. Use NewScheduler to share a cache across grids.
func RunGrid(ctx context.Context, reqs []GridRequest) ([]*SweepResult, error) {
	return NewScheduler(0).RunGrid(ctx, reqs)
}

// RunSweep runs one scenario sweep on a one-off scheduler, cells in
// parallel. Use NewScheduler to share a cache across sweeps.
func RunSweep(ctx context.Context, sc scenario.Scenario, cfg SweepConfig) (*SweepResult, error) {
	return NewScheduler(0).RunSweep(ctx, sc, cfg)
}
