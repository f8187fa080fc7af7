package powerrchol

import (
	"math"

	"powerrchol/internal/graph"
)

// Fingerprinting: stable 64-bit identities for systems, solver
// configurations and solutions. The hashes are FNV-64a over fixed
// little-endian encodings, so they are reproducible across processes,
// architectures and releases — the property the determinism golden suite
// (testdata/seedstate.golden) and the pgserved prepared-factor cache both
// rely on. They are identity keys, not cryptographic digests: use them to
// recognize a grid or a configuration, not to authenticate one.

// The FNV-64a parameters (hash/fnv's offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fpWriter is an FNV-64a state fed fixed-width little-endian words. It
// hashes inline, byte by byte exactly as hash/fnv's New64a does over
// the same encoding, without an interface call or a buffer per word.
type fpWriter struct{ h uint64 }

func newFPWriter() fpWriter { return fpWriter{h: fnvOffset64} }

func (w *fpWriter) u64(v uint64) {
	h := w.h
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	w.h = h
}

func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *fpWriter) i64(v int)     { w.u64(uint64(int64(v))) }
func (w *fpWriter) b(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}
func (w *fpWriter) tag(s string) {
	for i := 0; i < len(s); i++ {
		w.h = (w.h ^ uint64(s[i])) * fnvPrime64
	}
}

// FingerprintVector hashes the exact bit patterns of a float64 vector:
// FNV-64a over each element's little-endian encoding. Two vectors
// fingerprint equal iff they are bitwise identical, which is what the
// determinism suite pins its seed→result golden to and what the service
// soak tests compare served solutions against their one-shot referees
// with.
func FingerprintVector(x []float64) uint64 {
	w := newFPWriter()
	for _, v := range x {
		w.f64(v)
	}
	return w.h
}

// FingerprintSystem hashes an SDDM as stored: the dimension, every edge
// (endpoints and weight bits) in storage order, and the diagonal-surplus
// bits. It is a storage fingerprint, not a canonical form — the same
// mathematical matrix assembled in a different edge order hashes
// differently — which is exactly the right identity for a prepared-factor
// cache, where the factorization consumes the stored order.
func FingerprintSystem(sys *graph.SDDM) uint64 {
	w := newFPWriter()
	w.tag("powerrchol-system/1")
	w.i64(sys.N())
	w.i64(sys.G.M())
	for _, e := range sys.G.Edges {
		w.i64(e.U)
		w.i64(e.V)
		w.f64(e.W)
	}
	for _, d := range sys.D {
		w.f64(d)
	}
	return w.h
}

// Fingerprint returns the identity of a prepared solver before building
// it: the system fingerprint combined with every option that can change
// what NewSolver constructs or what Solve returns. Options are normalized
// first (zero values resolve to their documented defaults), so
// Options{} and Options{Tol: 1e-6, MaxIter: 500} fingerprint equal.
//
// Workers is deliberately excluded: the parallel kernels are bitwise
// identical to the serial ones, so solvers differing only in Workers are
// interchangeable — and a cache should treat them as one entry.
func Fingerprint(sys *graph.SDDM, opt Options) uint64 {
	return CombineFingerprint(FingerprintSystem(sys), opt)
}

// CombineFingerprint is the option half of Fingerprint: it folds opt
// into a system fingerprint already computed by FingerprintSystem, so
// CombineFingerprint(FingerprintSystem(sys), opt) == Fingerprint(sys, opt)
// without hashing the system a second time.
func CombineFingerprint(sysFP uint64, opt Options) uint64 {
	o := opt
	// Normalization cannot fail in a way that matters here: invalid
	// options produce a well-defined hash and NewSolver rejects them
	// before any cache could admit the entry.
	_ = o.validate()
	w := newFPWriter()
	w.tag("powerrchol-solver/1")
	w.u64(sysFP)
	w.i64(int(o.Method))
	w.i64(int(o.Ordering))
	w.i64(int(o.Transform))
	w.f64(o.Tol)
	w.i64(o.MaxIter)
	w.u64(o.Seed)
	w.i64(o.Buckets)
	w.i64(o.Samples)
	w.f64(o.HeavyFactor)
	w.f64(o.RecoverFrac)
	w.f64(o.DropTol)
	w.f64(o.MergeFactor)
	// The retired index-width option's slot: keys of persisted prepared
	// solvers must not drift, so it hashes as its old default forever.
	w.i64(0)
	w.i64(o.Retry.MaxAttempts)
	w.b(o.Retry.Escalate)
	return w.h
}

// Fingerprint reports the identity of this prepared solver — the
// Fingerprint(sys, opt) value of the system and options it was built
// from. It is computed on each call (a pass over the system), not at
// construction, so building a solver never pays for a hash nobody reads;
// callers that need the key repeatedly should keep it. Equal
// fingerprints mean bitwise interchangeable solvers (same setup stream,
// same solve results), the key contract of the pgserved prepared-factor
// cache.
func (s *Solver) Fingerprint() uint64 { return Fingerprint(s.sys, s.opt) }
