// Package policy names the hot kernel packages of this module: the
// surface pgoptcheck compiles with diagnostic flags and holds to the
// bounds-check contract (internal/lint/optcheck, DESIGN.md §13). It is
// the single place that says which packages are hot, so the gate and
// the documentation cannot drift apart.
package policy

import "strings"

// hot lists the numeric packages whose inner loops are the measured
// bottleneck of every solve: the sparse kernels, the factorizations, and
// the PCG iteration. Subpackages inherit the classification.
var hot = []string{
	"internal/chol",
	"internal/core",
	"internal/pcg",
	"internal/sparse",
}

// Rel reduces an import path to its module-relative form so the same
// policy table works for the real module ("powerrchol/internal/core") and
// for test fixtures ("example.com/internal/core"). Paths that do not
// contain an internal/ or cmd/ segment (the module root, examples) are
// returned unchanged.
func Rel(path string) string {
	for _, marker := range []string{"internal/", "cmd/"} {
		if i := strings.Index(path, marker); i >= 0 && (i == 0 || path[i-1] == '/') {
			return path[i:]
		}
	}
	return path
}

// Hot reports whether the package at path is a hot kernel package.
func Hot(path string) bool {
	rel := Rel(path)
	for _, p := range hot {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// HotPackages returns the module-relative paths of the hot kernel
// packages. Returned as a copy so callers cannot mutate the policy table.
func HotPackages() []string {
	out := make([]string, len(hot))
	copy(out, hot)
	return out
}
