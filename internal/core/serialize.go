package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"powerrchol/internal/sparse"
)

// Binary factor serialization: factorize once, reuse across processes.
// Little-endian, versioned:
//
//	magic "PRCHOLF1" | n uint64 | nnz uint64 | hasPerm uint8 |
//	colPtr [n+1]uint64 | rowIdx [nnz]uint64 | val [nnz]float64 |
//	perm [n]uint64 (if hasPerm)

const factorMagic = "PRCHOLF1"

// WriteTo serializes the factor. It implements io.WriterTo.
func (f *Factor) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var written int64
	put := func(data interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		written += int64(binary.Size(data))
		return nil
	}
	if _, err := bw.WriteString(factorMagic); err != nil {
		return written, err
	}
	written += int64(len(factorMagic))
	nnz := f.NNZ()
	if err := put(uint64(f.N)); err != nil {
		return written, err
	}
	if err := put(uint64(nnz)); err != nil {
		return written, err
	}
	hasPerm := uint8(0)
	if f.perm != nil {
		hasPerm = 1
	}
	if err := put(hasPerm); err != nil {
		return written, err
	}
	// Indices are written as uint64 whatever the in-memory int width,
	// so the on-disk format (and its goldens) is index-width independent.
	buf := make([]uint64, 0, f.N+1)
	for _, v := range f.L.ColPtr {
		//pglint:hotalloc serialization path, runs once per factor; capacity reserved for ColPtr above
		buf = append(buf, uint64(v))
	}
	if err := put(buf); err != nil {
		return written, err
	}
	buf = buf[:0]
	for _, v := range f.L.RowIdx {
		//pglint:hotalloc serialization path, runs once per factor; growth to nnz is amortized doubling
		buf = append(buf, uint64(v))
	}
	if err := put(buf); err != nil {
		return written, err
	}
	if err := put(f.L.Val); err != nil {
		return written, err
	}
	if f.perm != nil {
		buf = buf[:0]
		for _, v := range f.perm {
			//pglint:hotalloc serialization path, runs once per factor; buf already sized by the RowIdx pass
			buf = append(buf, uint64(v))
		}
		if err := put(buf); err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadFactor deserializes a factor written by WriteTo, validating the
// header and structural invariants (monotone column pointers, in-range
// indices, finite values, valid permutation).
func ReadFactor(r io.Reader) (*Factor, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(factorMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading factor header: %w", err)
	}
	if string(magic) != factorMagic {
		return nil, fmt.Errorf("core: bad factor magic %q", magic)
	}
	var n64, nnz64 uint64
	var hasPerm uint8
	if err := binary.Read(br, binary.LittleEndian, &n64); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nnz64); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &hasPerm); err != nil {
		return nil, err
	}
	const limit = 1 << 40 // refuse absurd sizes outright
	if n64 > limit || nnz64 > limit {
		return nil, fmt.Errorf("core: implausible factor dimensions n=%d nnz=%d", n64, nnz64)
	}
	n, nnz := int(n64), int(nnz64)

	// Grow the destination slices in bounded chunks rather than allocating
	// len-from-header up front: a forged header claiming 2^39 entries over
	// a 100-byte body must fail at EOF, not OOM the process.
	const chunk = 1 << 16
	readU64s := func(k int) ([]uint64, error) {
		out := make([]uint64, 0, min(k, chunk))
		buf := make([]uint64, min(k, chunk))
		for len(out) < k {
			b := buf[:min(k-len(out), chunk)]
			if err := binary.Read(br, binary.LittleEndian, b); err != nil {
				return nil, err
			}
			//pglint:hotalloc deserialization path; chunked growth is the OOM guard documented above, not per-solve churn
			out = append(out, b...)
		}
		return out, nil
	}
	readF64s := func(k int) ([]float64, error) {
		out := make([]float64, 0, min(k, chunk))
		buf := make([]float64, min(k, chunk))
		for len(out) < k {
			b := buf[:min(k-len(out), chunk)]
			if err := binary.Read(br, binary.LittleEndian, b); err != nil {
				return nil, err
			}
			//pglint:hotalloc deserialization path; chunked growth is the OOM guard documented above, not per-solve churn
			out = append(out, b...)
		}
		return out, nil
	}
	cp, err := readU64s(n + 1)
	if err != nil {
		return nil, err
	}
	ri, err := readU64s(nnz)
	if err != nil {
		return nil, err
	}
	val, err := readF64s(nnz)
	if err != nil {
		return nil, err
	}

	colPtr := make([]int, n+1)
	prev := uint64(0)
	for i, v := range cp {
		if v < prev || v > nnz64 {
			return nil, fmt.Errorf("core: corrupt column pointer %d at %d", v, i)
		}
		colPtr[i] = int(v)
		prev = v
	}
	if colPtr[n] != nnz {
		return nil, fmt.Errorf("core: column pointers end at %d, want %d", colPtr[n], nnz)
	}
	rowIdx := make([]int, nnz)
	for i, v := range ri {
		if v >= n64 {
			return nil, fmt.Errorf("core: row index %d out of range", v)
		}
		rowIdx[i] = int(v)
	}
	for _, v := range val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite factor value")
		}
	}
	// Factor layout invariants (factor.go): each column stores its
	// diagonal first, and every remaining entry lies strictly below it —
	// unsorted beyond that, which the triangular kernels permit. A forged
	// file with an on- or above-diagonal entry after the leading diagonal
	// would silently corrupt the solve's substitution order, so reject it
	// here rather than trusting Check-less callers.
	for k := 0; k < n; k++ {
		if colPtr[k] >= colPtr[k+1] || rowIdx[colPtr[k]] != k {
			return nil, fmt.Errorf("core: column %d does not start with its diagonal", k)
		}
		for p := colPtr[k] + 1; p < colPtr[k+1]; p++ {
			if rowIdx[p] <= k {
				return nil, fmt.Errorf("core: row index %d in column %d is not strictly below the diagonal", rowIdx[p], k)
			}
		}
	}

	f := &Factor{
		N: n,
		L: &sparse.CSC{Rows: n, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val},
	}
	if hasPerm == 1 {
		pm, err := readU64s(n)
		if err != nil {
			return nil, err
		}
		perm := make([]int, n)
		for i, v := range pm {
			perm[i] = int(v)
		}
		if err := sparse.CheckPerm(perm, n); err != nil {
			return nil, fmt.Errorf("core: corrupt permutation: %w", err)
		}
		f.SetPerm(perm)
	}
	return f, nil
}
