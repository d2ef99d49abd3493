// Package bgp implements the paper's AS-level BGP simulation model (§2,
// Fig. 2): one node per AS, one logical link per AS pair, policy-based
// routing with no-valley export and prefer-customer selection, a FIFO
// single-processor message model with uniform processing delay, and
// per-interface MRAI rate limiting in both the WRATE (RFC 4271) and
// NO-WRATE (RFC 1771/Quagga) variants.
//
// The engine is fully deterministic for a given seed. With LinkDelay zero
// (the historical model: updates are admitted to the receiver's processor at
// send time) a Network is single-threaded and parallel experiments run one
// Network per goroutine. With a positive LinkDelay the engine runs a
// barrier-synchronized windowed executor that partitions the node array and
// can run each window's partitions on Config.Shards worker goroutines — with
// byte-identical results at every worker and partition count (see DESIGN.md,
// "Sharded DES").
package bgp

import (
	"fmt"

	"bgpchurn/internal/des"
)

// MRAIScope selects how rate-limiting timers are keyed.
type MRAIScope uint8

const (
	// PerInterface keeps one MRAI timer per neighbor session, the vendor
	// implementation the paper adopts.
	PerInterface MRAIScope = iota
	// PerPrefix keeps one timer per (neighbor, prefix), the letter of the
	// BGP-4 standard. Provided as an ablation.
	PerPrefix
)

// String names the scope.
func (s MRAIScope) String() string {
	if s == PerPrefix {
		return "per-prefix"
	}
	return "per-interface"
}

// Config carries the protocol parameters of the simulation model.
type Config struct {
	// MRAI is the Minimum Route Advertisement Interval. Zero disables rate
	// limiting entirely (every update is sent immediately).
	MRAI des.Time
	// JitterLo and JitterHi bound the uniform factor applied to MRAI each
	// time a timer is started (RFC 4271: 0.75–1.0).
	JitterLo, JitterHi float64
	// RateLimitWithdrawals selects WRATE (true, RFC 4271: explicit
	// withdrawals wait for the MRAI timer like any update) or NO-WRATE
	// (false, RFC 1771: withdrawals are sent immediately).
	RateLimitWithdrawals bool
	// Scope selects per-interface (default) or per-prefix MRAI timers.
	Scope MRAIScope
	// MaxProcessingDelay is the upper bound of the uniform per-update
	// processing time (paper: 100 ms).
	MaxProcessingDelay des.Time
	// LinkDelay is the fixed propagation latency of every session: an
	// update transmitted at time t reaches the neighbor's processor queue
	// at t+LinkDelay. Zero (the default, and the paper's model) admits
	// updates at send time, preserving the historical single-threaded
	// event order bit for bit. A positive LinkDelay switches the engine to
	// the windowed executor whose results are invariant under Shards: the
	// delay is the conservative lookahead that spaces the time barriers.
	LinkDelay des.Time
	// Shards is the number of worker goroutines a single run executes its
	// windows on (0 or 1 = the calling goroutine alone; never more than
	// GOMAXPROCS are started). The engine cuts the node array into its own,
	// finer set of partitions and the workers claim them window by window.
	// Values above 1 require a positive LinkDelay — the lookahead that
	// makes parallel windows causally safe. Shards never affects results,
	// only wall-clock, and is therefore excluded from the experiment cell
	// cache key.
	Shards int
	// Seed drives all protocol randomness (jitter, processing delays,
	// tie-break hashing).
	Seed uint64
	// Dampening configures RFC 2439 route flap dampening (disabled by
	// default; the paper's model has no dampening, listed as future work).
	Dampening Dampening
	// CompactRIB once selected the interned-path RIB.
	//
	// Deprecated: ignored, the interned RIB is the only engine; kept only so
	// benchmark/ compiles.
	CompactRIB bool
	// Check enables the debug-only RIB invariant checker: after every
	// reconcile the engine verifies the node's decision fixpoint, the
	// advertisement cache, intern-table ID validity and the per-neighbor
	// reconciliation postcondition, panicking on any violation. Orders of
	// magnitude slower; meant for tests (the race tier runs it at small n).
	Check bool
}

// DefaultConfig returns the paper's parameters with the NO-WRATE variant
// used throughout §4 and §5.
func DefaultConfig(seed uint64) Config {
	return Config{
		MRAI:                 30 * des.Second,
		JitterLo:             0.75,
		JitterHi:             1.0,
		RateLimitWithdrawals: false,
		Scope:                PerInterface,
		MaxProcessingDelay:   100 * des.Millisecond,
		Seed:                 seed,
	}
}

// WRATEConfig returns DefaultConfig with rate-limited withdrawals (§6).
func WRATEConfig(seed uint64) Config {
	c := DefaultConfig(seed)
	c.RateLimitWithdrawals = true
	return c
}

// Validate reports whether the configuration is usable.
func (c *Config) Validate() error {
	switch {
	case c.MRAI < 0:
		return fmt.Errorf("bgp: negative MRAI")
	case c.MaxProcessingDelay <= 0:
		return fmt.Errorf("bgp: MaxProcessingDelay must be positive")
	case c.JitterLo <= 0 || c.JitterHi < c.JitterLo || c.JitterHi > 1:
		return fmt.Errorf("bgp: jitter bounds must satisfy 0 < lo <= hi <= 1")
	case c.Scope != PerInterface && c.Scope != PerPrefix:
		return fmt.Errorf("bgp: unknown MRAI scope %d", c.Scope)
	case c.LinkDelay < 0:
		return fmt.Errorf("bgp: negative LinkDelay")
	case c.Shards < 0:
		return fmt.Errorf("bgp: negative Shards")
	case c.Shards > 1 && c.LinkDelay == 0:
		return fmt.Errorf("bgp: Shards > 1 requires a positive LinkDelay (the conservative lookahead)")
	}
	return c.Dampening.validate()
}
