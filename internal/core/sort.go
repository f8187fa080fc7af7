package core

import "math"

// Neighbor sorting for the clique-sampling step. RChol (Alg. 1) sorts the
// eliminated node's neighbors exactly by edge weight, which costs
// O(d·log d). LT-RChol (Alg. 3) replaces this with an approximate counting
// sort: weights are normalized by their maximum and quantized into b
// buckets, and neighbors are emitted bucket by bucket in O(d + b) time.

// sortPairsExact sorts (w, id) pairs ascending by w using an in-place
// quicksort with insertion-sort cutoff. It avoids the allocation and
// interface dispatch of sort.Slice in the factorization inner loop.
func sortPairsExact(w []float64, id []int32) {
	for len(w) > 12 {
		// median-of-three pivot
		n := len(w)
		m := n / 2
		if w[0] > w[m] {
			w[0], w[m] = w[m], w[0]
			id[0], id[m] = id[m], id[0]
		}
		if w[0] > w[n-1] {
			w[0], w[n-1] = w[n-1], w[0]
			id[0], id[n-1] = id[n-1], id[0]
		}
		if w[m] > w[n-1] {
			w[m], w[n-1] = w[n-1], w[m]
			id[m], id[n-1] = id[n-1], id[m]
		}
		pivot := w[m]
		i, j := 0, n-1
		for i <= j {
			for w[i] < pivot {
				i++
			}
			for w[j] > pivot {
				j--
			}
			if i <= j {
				w[i], w[j] = w[j], w[i]
				id[i], id[j] = id[j], id[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < n-i {
			sortPairsExact(w[:j+1], id[:j+1])
			w, id = w[i:], id[i:]
		} else {
			sortPairsExact(w[i:], id[i:])
			w, id = w[:j+1], id[:j+1]
		}
	}
	// insertion sort for the tail
	for i := 1; i < len(w); i++ {
		wi, ii := w[i], id[i]
		j := i - 1
		for j >= 0 && w[j] > wi {
			w[j+1], id[j+1] = w[j], id[j]
			j--
		}
		w[j+1], id[j+1] = wi, ii
	}
}

// countingSorter holds the reusable state for the approximate counting
// sort of Section 3.1.
type countingSorter struct {
	buckets int
	count   []int
	wTmp    []float64
	idTmp   []int32
}

// newCountingSorter sizes nothing up front: sort uses at most 4·d
// buckets, so count grows with the degrees it meets and a huge Buckets
// setting costs no memory.
func newCountingSorter(buckets int) *countingSorter {
	if buckets < 1 {
		buckets = 1
	}
	return &countingSorter{buckets: buckets}
}

// sort reorders (w, id) approximately ascending: neighbor j lands in
// bucket ⌈w_j/m_k · b⌉ where m_k is the maximum weight, and buckets are
// emitted in order. Neighbors inside one bucket keep their relative order
// (the sort is stable), so the output is monotone up to 1/b relative
// quantization — exactly the approximation the paper proves sufficient.
//
// The effective bucket count is capped at ~4·d: the counting sort zeroes
// and prefix-scans the whole count array, so a fixed b would cost
// O(d + b) per elimination and silently turn the factorization into
// O(N·b) on low-degree meshes like power grids. Capping keeps every
// elimination O(d) while leaving the quantization at least as fine as
// one bucket per four neighbors of headroom.
func (cs *countingSorter) sort(w []float64, id []int32) {
	d := len(w)
	if d < 2 {
		return
	}
	if d <= 16 {
		// Exact insertion sort beats bucketing on tiny lists and its cost
		// is bounded by a constant, so linearity is preserved.
		for i := 1; i < d; i++ {
			wi, ii := w[i], id[i]
			j := i - 1
			for j >= 0 && w[j] > wi {
				w[j+1], id[j+1] = w[j], id[j]
				j--
			}
			w[j+1], id[j+1] = wi, ii
		}
		return
	}
	maxW := w[0]
	for _, v := range w[1:] {
		if v > maxW {
			maxW = v
		}
	}
	if !(maxW > 0) {
		return // all-zero weights: nothing to order
	}
	b := cs.buckets
	if lim := 4 * d; b > lim {
		b = lim
	}
	if cap(cs.wTmp) < d {
		cs.wTmp = make([]float64, d)
		cs.idTmp = make([]int32, d)
	}
	if len(cs.count) < b {
		cs.count = make([]int, b)
	}
	wt, it := cs.wTmp[:d], cs.idTmp[:d]
	cnt := cs.count
	for i := range cnt {
		cnt[i] = 0
	}
	scale := float64(b) / maxW
	// bucket index in [1, b]: ceil(w/m * b); stored shifted to [0, b-1]
	for _, v := range w {
		k := int(math.Ceil(v * scale))
		if k < 1 {
			k = 1
		} else if k > b {
			k = b
		}
		cnt[k-1]++
	}
	pos := 0
	for i := 0; i < b; i++ {
		c := cnt[i]
		cnt[i] = pos
		pos += c
	}
	for i, v := range w {
		k := int(math.Ceil(v * scale))
		if k < 1 {
			k = 1
		} else if k > b {
			k = b
		}
		p := cnt[k-1]
		cnt[k-1]++
		wt[p] = v
		it[p] = id[i]
	}
	copy(w, wt)
	copy(id, it)
}
