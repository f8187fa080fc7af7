package sparse

import (
	"errors"
	"math"
)

// MaxIndex32 is the largest node count the elimination graph and the
// level schedules can number: they store node and column indices as
// int32 to halve their working set.
const MaxIndex32 = math.MaxInt32

// ErrIndexOverflow reports a system with more nodes than the int32
// node numbering of the factorization can hold (MaxIndex32). Callers
// receive it wrapped with the offending size, before any work.
var ErrIndexOverflow = errors.New("sparse: matrix exceeds int32 index range")
