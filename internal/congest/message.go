// Package congest simulates the CONGEST model of distributed computing
// (Peleg, 2000): a synchronous message-passing network over a graph where
// in every round each node may send one message of O(log n) bits over each
// incident edge.
//
// A node program is a StepProgram (DESIGN.md §2): an explicit state
// machine that the engine steps in a plain loop, with no goroutine per
// node and no channel operations. A node can hand itself over to another
// StepProgram mid-run (BecomeStep). The engine enforces the model: at
// most one message per edge per direction per round, and a hard
// per-message bit bound.
//
// Everything is deterministic for a fixed Config.Seed: nodes interact only
// at round barriers, inboxes are sorted by sender, and per-node randomness
// comes from seeded generators.
//
// The engine stores per-node hot state as struct-of-arrays slabs indexed
// by node id (plus one 64-byte array-of-structs dispatch line per node),
// sized for simulations in the 10⁵–10⁷-node range; DESIGN.md §8
// documents the memory model, and the README's scaling guide gives
// practical per-size limits.
package congest

import (
	"fmt"
	"math/bits"
)

// Message is a single CONGEST message. Implementations self-report their
// encoded size in bits; the engine checks it against the round bit bound.
type Message interface {
	Bits() int
}

// BitsForValue returns the number of bits needed to represent v >= 0
// (at least 1).
func BitsForValue(v int64) int {
	if v < 0 {
		panic(fmt.Sprintf("congest: negative value %d", v))
	}
	if v == 0 {
		return 1
	}
	return bits.Len64(uint64(v))
}

// BitsForSigned returns the encoded size of a signed integer field: one
// sign bit plus BitsForValue of its magnitude.
func BitsForSigned(v int64) int {
	if v < 0 {
		v = -v
	}
	return BitsForValue(v) + 1
}

// BitsForID returns the number of bits of a node identifier in an n-node
// network (identifiers are assumed polynomial in n; we charge 2*ceil(log n)).
func BitsForID(n int) int {
	if n < 2 {
		return 2
	}
	return 2 * bits.Len(uint(n-1))
}

// Verdict is a node's final output for property-testing algorithms.
type Verdict uint8

// Verdicts. Per the distributed property-testing definition, a graph is
// accepted iff every node accepts; it is rejected iff at least one node
// rejects.
const (
	VerdictNone Verdict = iota
	VerdictAccept
	VerdictReject
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "accept"
	case VerdictReject:
		return "reject"
	default:
		return "none"
	}
}

// Inbound is a received message.
type Inbound struct {
	// Port is the receiving node's port (index into its adjacency list)
	// on which the message arrived. CONGEST algorithms should use this.
	Port int
	// From is the sender's node index; exposed for tests and metrics
	// only — a faithful CONGEST algorithm learns identities via messages.
	From int
	Msg  Message
}
