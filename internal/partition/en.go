package partition

import (
	"math"

	"repro/internal/congest"
)

// This file implements the random-shift clustering baseline discussed in
// §1.1 of the paper: the Elkin–Neiman/Miller–Peng–Xu style partition that
// yields parts of diameter O(log(n)/eps) with at most eps*m cut edges in
// expectation, in O(log(n)/eps) rounds. Replacing Stage I with it gives
// the O(log^2 n * poly(1/eps))-round tester the paper compares against
// (experiment E11).

// claimMsg floods a cluster claim: the claiming root and a tie-breaking
// priority (quantized fractional part of the exponential shift).
type claimMsg struct {
	Root int64
	Prio int64
}

func (m claimMsg) Bits() int {
	return 2 + congest.BitsForSigned(m.Root) + congest.BitsForSigned(m.Prio)
}

// ackMsg tells a neighbor it became this node's cluster-tree parent.
type ackMsg struct{}

func (ackMsg) Bits() int { return 2 }

// ENShiftCap returns the shift truncation bound: exponential shifts exceed
// (2/beta)*ln(n) with probability at most 1/n^2.
func ENShiftCap(n int, beta float64) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(2 * math.Log(float64(n)) / beta))
}
