package serve

import "powerrchol"

// The graceful-degradation ladder. Overload is a spectrum, and the
// service walks down it in deliberate steps instead of falling over:
// first it gives up batching (narrower micro-batch windows, then none),
// then it gives up memory and setup resilience (cache shrinks,
// retry ladders are cut for new builds), and only at the top of the
// scale does it refuse traffic outright. Every step is a pure function
// of a LoadSnapshot, so the ladder is table-testable without a server.

// Level is the service's pressure classification.
type Level int

const (
	// LevelNormal: full batch width, full cache budget, full retry
	// ladder.
	LevelNormal Level = iota
	// LevelElevated: the admission queue is filling; micro-batch windows
	// narrow so slots turn over faster.
	LevelElevated
	// LevelHigh: the queue is mostly full or the cache is over budget;
	// batching is cut to the bone, the cache sheds to half budget, and
	// new solver builds run without retry rungs.
	LevelHigh
	// LevelCritical: the queue is effectively full; new traffic is
	// refused with 503 + Retry-After until pressure subsides, and
	// readiness goes false so load balancers route elsewhere.
	LevelCritical
)

func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelElevated:
		return "elevated"
	case LevelHigh:
		return "high"
	case LevelCritical:
		return "critical"
	}
	return "unknown"
}

// LoadSnapshot is the instantaneous load picture Classify reads.
type LoadSnapshot struct {
	Queued      int64 // requests waiting for a slot
	MaxQueue    int   // wait-queue bound
	CacheBytes  int64 // prepared-solver bytes currently cached
	CacheBudget int64 // configured cache budget
}

// Queue-occupancy thresholds of the ladder, as fractions of MaxQueue.
const (
	elevatedFrac = 0.50
	highFrac     = 0.75
	criticalFrac = 0.95
)

// Classify maps a load snapshot onto the ladder. Queue occupancy drives
// the main classification; a cache past its byte budget raises the level
// to at least LevelHigh (the level whose remedy is eviction), because
// memory pressure is as real as queue pressure but never shows up in
// queue depth.
func Classify(s LoadSnapshot) Level {
	level := LevelNormal
	if s.MaxQueue > 0 {
		occ := float64(s.Queued) / float64(s.MaxQueue)
		switch {
		case occ >= criticalFrac:
			level = LevelCritical
		case occ >= highFrac:
			level = LevelHigh
		case occ >= elevatedFrac:
			level = LevelElevated
		}
	}
	if s.CacheBudget > 0 && s.CacheBytes > s.CacheBudget && level < LevelHigh {
		level = LevelHigh
	}
	return level
}

// Admit reports whether new solve traffic is accepted at this level.
// Only LevelCritical refuses — everything below it degrades instead.
func (l Level) Admit() bool { return l < LevelCritical }

// BatchKnobs degrades the micro-batch width bound: halved at
// LevelElevated (smaller trisolve bursts, faster slot turnover), 1 from
// LevelHigh up. It never falls below 1, which degenerates to solo
// solves — micro-batching is an optimization, and optimizations are the
// first thing the ladder sheds.
func (l Level) BatchKnobs(width int) int {
	switch l {
	case LevelElevated:
		return max(1, width/2)
	case LevelHigh, LevelCritical:
		return 1
	}
	return width
}

// CacheTarget is the byte budget the cache should shed to at this
// level: full budget normally, half at LevelHigh and above.
func (l Level) CacheTarget(budget int64) int64 {
	if l >= LevelHigh {
		return budget / 2
	}
	return budget
}

// RetryFor degrades the recovery policy used for new solver builds:
// at LevelHigh and above the ladder is cut to a single attempt — a
// breakdown then fails fast instead of burning queue time on reseeds,
// and the (recorded) failure is cheap to retry once pressure subsides.
// Existing cache entries keep whatever policy they were built with.
func (l Level) RetryFor(base powerrchol.RetryPolicy) powerrchol.RetryPolicy {
	if l >= LevelHigh {
		return powerrchol.RetryPolicy{}
	}
	return base
}
