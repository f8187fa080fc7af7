package optcheck

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A Diag is one retained bounds check reported by
// `-d=ssa/check_bce/debug=1`: the compiler kept an IsInBounds or
// IsSliceInBounds check at this position.
type Diag struct {
	File    string // as printed by the compiler (cwd-relative when built from the module root)
	Line    int
	Col     int
	Message string // "Found IsInBounds" or "Found IsSliceInBounds"
}

// ParseDiagnostics reads the stderr of a `go build
// -gcflags='-m -d=ssa/check_bce/debug=1'` invocation and returns its
// retained bounds checks. Every other line — package headers, and the
// escape-analysis and inlining reports -m adds — is skipped.
func ParseDiagnostics(r io.Reader) ([]Diag, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var out []Diag
	for sc.Scan() {
		file, ln, col, msg, ok := splitDiagLine(sc.Text())
		if ok && (msg == "Found IsInBounds" || msg == "Found IsSliceInBounds") {
			out = append(out, Diag{File: file, Line: ln, Col: col, Message: msg})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("optcheck: reading compiler diagnostics: %w", err)
	}
	return out, nil
}

// splitDiagLine parses "path:line:col: message" (column optional —
// "path:line: message" also accepted). It refuses lines whose message
// would be empty.
func splitDiagLine(line string) (file string, ln, col int, msg string, ok bool) {
	// Scan for ": " separators from the left so Windows-style or message
	// text containing colons cannot confuse the position parse: the
	// position prefix is always the first run of path:num[:num]:.
	rest := line
	i := strings.Index(rest, ": ")
	for i >= 0 {
		prefix := rest[:i]
		if f, l, c, okp := splitPosn(prefix); okp {
			return f, l, c, rest[i+2:], true
		}
		j := strings.Index(rest[i+1:], ": ")
		if j < 0 {
			break
		}
		i = i + 1 + j
	}
	return "", 0, 0, "", false
}

// splitPosn parses "path/file.go:12:3" (column optional).
func splitPosn(posn string) (file string, line, col int, ok bool) {
	file = posn
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil && n > 0 {
			col = n
			file = file[:i]
		} else {
			return "", 0, 0, false
		}
	} else {
		return "", 0, 0, false
	}
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil && n > 0 {
			line = n
			file = file[:i]
		}
	}
	if line == 0 {
		// Only one numeric suffix was present: it was the line.
		line, col = col, 0
	}
	if file == "" || !strings.HasSuffix(file, ".go") && !strings.HasPrefix(file, "<") {
		return "", 0, 0, false
	}
	return file, line, col, true
}
