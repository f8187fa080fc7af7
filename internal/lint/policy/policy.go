// Package policy classifies the packages of this module for the pglint
// analyzers. The determinism and numerical-safety invariants are not
// uniform across the tree: the numeric kernels must be bitwise replayable
// from a seed, while the orchestration layer (solver front-end, benches,
// CLIs) legitimately reads wall-clock time for telemetry. This package is
// the single place that says which rules bind where, so the analyzers and
// the documentation cannot drift apart.
package policy

import "strings"

// numeric lists the module-relative paths of the numeric/ordering kernels:
// every package whose output feeds the factorization or the PCG iteration
// and therefore must be a pure function of (input matrix, seed). Inside
// these packages pglint bans ambient time, flags map-order-dependent
// iteration, and treats any nondeterminism as a bug. Subpackages inherit
// the classification.
var numeric = []string{
	"internal/amg",
	"internal/chol",
	"internal/core",
	"internal/fegrass",
	"internal/graph",
	"internal/ichol",
	"internal/merge",
	"internal/order",
	"internal/pcg",
	"internal/powergrid",
	"internal/rng",
	"internal/sparse",
}

// hot lists the numeric packages whose inner loops are the measured
// bottleneck of every solve: the sparse kernels, the factorizations, and
// the PCG iteration. Inside these packages the hotalloc analyzer treats a
// heap allocation in an innermost loop (or in a helper such a loop calls)
// as a defect: the paper's O(|Nk|) clique-sampling complexity and the
// SpMV/trisolve throughput are both erased by per-iteration heap
// churn. Subpackages inherit the classification.
var hot = []string{
	"internal/chol",
	"internal/core",
	"internal/pcg",
	"internal/sparse",
}

// orchestration lists the packages that compose and drive the numeric
// kernels without being kernels themselves: the setup pipeline that
// wires transform/order/factorize stages together and owns the recovery
// ladder. Orchestration code legitimately reads wall-clock time (it
// reports the paper's T_r/T_f/T_i timings), so the time.Now ban does not
// apply — but it carries every context and sits on every setup path, so
// the ctxflow loop-cancellation rule and the hotalloc loop-allocation
// rules sweep it exactly like the kernels. Subpackages inherit the
// classification.
var orchestration = []string{
	"internal/pipeline",
	// The solve service and its daemon: long-lived concurrency plumbing
	// (admission gate, micro-batcher, solver cache, drain) where a
	// goroutine without termination evidence or an un-cancellable loop
	// is an outage, not a style nit.
	"internal/serve",
	"cmd/pgserved",
	// The prepared-solve session layer and the workload studies built on
	// it (transient, Monte Carlo): they own the RHS-stream machinery —
	// batch dispatchers, ensemble fan-out, ctx-polled step loops — and
	// their study statistics carry the same bitwise-per-seed contract
	// the kernels do, so detflow sweeps them too.
	"internal/session",
	"internal/workload",
	"cmd/pgstudy",
}

// randSanctioned lists the packages allowed to import math/rand: only the
// seeded-generator package itself, which exists precisely so nothing else
// has to. (It currently implements splitmix64 without stdlib rand; the
// exemption is for its own tests and future internals, not for callers.)
var randSanctioned = []string{
	"internal/rng",
}

// Rel reduces an import path to its module-relative form so the same
// policy tables work for the real module ("powerrchol/internal/core") and
// for analyzer test fixtures ("example.com/internal/core"). Paths that do
// not contain an internal/ or cmd/ segment (the module root, examples)
// are returned unchanged.
func Rel(path string) string {
	for _, marker := range []string{"internal/", "cmd/"} {
		if i := strings.Index(path, marker); i >= 0 && (i == 0 || path[i-1] == '/') {
			return path[i:]
		}
	}
	return path
}

func inSet(path string, set []string) bool {
	rel := Rel(path)
	for _, p := range set {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Numeric reports whether the package at path is a numeric/ordering
// kernel, i.e. subject to the strict determinism rules (maprange, the
// time.Now ban).
func Numeric(path string) bool { return inSet(path, numeric) }

// RandSanctioned reports whether the package at path may import
// math/rand or math/rand/v2.
func RandSanctioned(path string) bool { return inSet(path, randSanctioned) }

// Hot reports whether the package at path is a hot kernel package, i.e.
// subject to the hotalloc innermost-loop allocation rules.
func Hot(path string) bool { return inSet(path, hot) }

// HotPackages returns the module-relative paths of the hot kernel
// packages — the surface pgoptcheck compiles with diagnostic flags and
// holds to the bounds-check contract. Returned as a copy so callers
// cannot mutate the policy table.
func HotPackages() []string {
	out := make([]string, len(hot))
	copy(out, hot)
	return out
}

// Orchestration reports whether the package at path is kernel
// orchestration: not a numeric kernel (ambient time allowed for phase
// timings), but swept by the ctxflow loop-cancellation rule and the
// hotalloc loop-allocation rules all the same.
func Orchestration(path string) bool { return inSet(path, orchestration) }

// Deterministic reports whether the determinism-taint rules (detflow)
// bind at path: the numeric kernels (bitwise replayable per seed by
// contract), the orchestration layer (it assembles Result values and
// feeds the fingerprint referee), and the module-root API package whose
// Result types carry the reproducibility guarantee to callers. Binaries
// and examples stay out: they format and print, they do not produce
// contract-bearing values.
func Deterministic(path string) bool {
	if Numeric(path) || Orchestration(path) {
		return true
	}
	rel := Rel(path)
	return rel == path && Library(path)
}

// Library reports whether the package at path is library code, i.e. code
// that must receive its context from the caller rather than minting one
// with context.Background/TODO. Binaries (cmd/*) and runnable examples
// are the process entry points where a root context legitimately
// originates; everything else — the module root API and every internal
// package — is library.
func Library(path string) bool {
	rel := Rel(path)
	if strings.HasPrefix(rel, "cmd/") {
		return false
	}
	for _, seg := range strings.Split(path, "/") {
		if seg == "examples" {
			return false
		}
	}
	return true
}
