package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix Market I/O for the "matrix coordinate real general|symmetric"
// subset, which covers every matrix this repository reads or writes.
// Symmetric files store the lower triangle; the readers mirror it so
// the returned CSC holds both triangles, matching the package convention.
//
// ReadMatrixMarket parses the header (readMMHeader), then streams the
// entries (scanMMEntries) into COO triplets that ToCSC sorts and merges
// by column.

// mmHeader is the parsed banner and size line of a Matrix Market file.
type mmHeader struct {
	rows, cols, nnz    int
	pattern, symmetric bool
}

// readMMHeader parses the banner and size line.
func readMMHeader(br *bufio.Reader) (mmHeader, error) {
	var h mmHeader
	header, err := br.ReadString('\n')
	if err != nil {
		return h, fmt.Errorf("sparse: reading MatrixMarket header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return h, fmt.Errorf("sparse: not a MatrixMarket matrix header: %q", strings.TrimSpace(header))
	}
	if fields[2] != "coordinate" {
		return h, fmt.Errorf("sparse: unsupported MatrixMarket format %q (only coordinate)", fields[2])
	}
	if fields[3] != "real" && fields[3] != "integer" && fields[3] != "pattern" {
		return h, fmt.Errorf("sparse: unsupported MatrixMarket field %q", fields[3])
	}
	h.pattern = fields[3] == "pattern"
	switch fields[4] {
	case "general":
	case "symmetric":
		h.symmetric = true
	default:
		return h, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", fields[4])
	}

	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return h, fmt.Errorf("sparse: missing MatrixMarket size line: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &h.rows, &h.cols, &h.nnz); err != nil {
			return h, fmt.Errorf("sparse: bad MatrixMarket size line %q: %w", line, err)
		}
		break
	}
	if h.rows < 0 || h.cols < 0 || h.nnz < 0 {
		return h, fmt.Errorf("sparse: negative MatrixMarket size %d %d %d", h.rows, h.cols, h.nnz)
	}
	if h.symmetric && h.rows != h.cols {
		// The mirrored entry (j,i) of a non-square "symmetric" file would
		// land out of range.
		return h, fmt.Errorf("sparse: symmetric MatrixMarket matrix is %dx%d, not square", h.rows, h.cols)
	}
	return h, nil
}

// scanMMEntries streams the data section, invoking emit for every
// stored entry (0-based) and, for symmetric files, its mirror — the
// exact call sequence the historical COO accumulator saw, which is what
// keeps every consumer byte-identical.
func scanMMEntries(br *bufio.Reader, h mmHeader, emit func(i, j int, v float64)) error {
	for k := 0; k < h.nnz; {
		line, err := br.ReadString('\n')
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "%") {
			f := strings.Fields(trimmed)
			if len(f) < 2 {
				return fmt.Errorf("sparse: bad MatrixMarket entry %q", trimmed)
			}
			i, err1 := strconv.Atoi(f[0])
			j, err2 := strconv.Atoi(f[1])
			v := 1.0
			var err3 error
			if !h.pattern {
				if len(f) < 3 {
					return fmt.Errorf("sparse: missing value in entry %q", trimmed)
				}
				v, err3 = strconv.ParseFloat(f[2], 64)
			}
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("sparse: bad MatrixMarket entry %q", trimmed)
			}
			if i < 1 || i > h.rows || j < 1 || j > h.cols {
				return fmt.Errorf("sparse: MatrixMarket entry (%d,%d) out of range", i, j)
			}
			emit(i-1, j-1, v)
			if h.symmetric && i != j {
				emit(j-1, i-1, v)
			}
			k++
		}
		if err != nil {
			if err == io.EOF && k == h.nnz {
				break
			}
			if err == io.EOF {
				return fmt.Errorf("sparse: MatrixMarket file truncated: got %d of %d entries", k, h.nnz)
			}
			return err
		}
	}
	return nil
}

// ReadMatrixMarket parses a Matrix Market stream.
func ReadMatrixMarket(r io.Reader) (*CSC, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	h, err := readMMHeader(br)
	if err != nil {
		return nil, err
	}
	// Cap the pre-allocation: the header's nnz is a claim, not data. The
	// triplet slices grow with the entries actually read, so a forged
	// count fails at the truncation check instead of exhausting memory.
	coo := NewCOO(h.rows, h.cols, min(h.nnz, 1<<20)*2)
	err = scanMMEntries(br, h, func(i, j int, v float64) {
		coo.Add(i, j, v)
	})
	if err != nil {
		return nil, err
	}
	return coo.ToCSC(), nil
}

// WriteMatrixMarket writes a in "coordinate real" format. If symmetric is
// true only the lower triangle is emitted with the symmetric header (the
// caller asserts the matrix is symmetric).
func WriteMatrixMarket(w io.Writer, a *CSC, symmetric bool) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	kind := "general"
	if symmetric {
		kind = "symmetric"
	}
	nnz := 0
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if !symmetric || a.RowIdx[p] >= j {
				nnz++
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n%d %d %d\n",
		kind, a.Rows, a.Cols, nnz); err != nil {
		return err
	}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if symmetric && i < j {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, a.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
