package partition

import "repro/internal/congest"

// Message vocabulary of Stage I. Every type reports its size per the
// CONGEST O(log n)-bit discipline; list-valued messages are bounded by
// 3*alpha+1 entries (constant), so all messages are O(log n) bits.

// noneMsg is an explicit "no contribution" marker used in convergecasts.
type noneMsg struct{}

func (noneMsg) Bits() int { return 1 }

// valMsg carries a single value (color, level, weight, id).
type valMsg struct{ V int64 }

func (m valMsg) Bits() int { return 2 + congest.BitsForSigned(m.V) }

// smallVals interns boxed valMsg values for the dominant small payloads
// (colors, levels, flags, ids up to n) so that hot paths do not allocate
// on every interface conversion. vmsg(v) is behaviorally identical to
// congest.Message(valMsg{V: v}).
var smallVals = func() [1024]congest.Message {
	var a [1024]congest.Message
	for i := range a {
		a[i] = valMsg{V: int64(i)}
	}
	return a
}()

func vmsg(v int64) congest.Message {
	if v >= 0 && v < int64(len(smallVals)) {
		return smallVals[v]
	}
	return valMsg{V: v}
}

// pairMsg carries two values.
type pairMsg struct{ A, B int64 }

func (m pairMsg) Bits() int { return 2 + congest.BitsForSigned(m.A) + congest.BitsForSigned(m.B) }

// rootAnnounce is the phase-start boundary discovery message.
type rootAnnounce struct{ Root int64 }

func (m rootAnnounce) Bits() int { return 2 + congest.BitsForSigned(m.Root) }

// statusMsg is the per-super-round broadcast from a part root: the part's
// activity flag and the roots it needs activity reports for (at most
// 3*alpha entries).
type statusMsg struct {
	Active bool
	Watch  []int64
}

func (m statusMsg) Bits() int {
	b := 3
	for _, w := range m.Watch {
		b += congest.BitsForSigned(w)
	}
	return b
}

// statusInterned are the two watch-free status values, pre-boxed: most
// part roots broadcast an empty watch list every super-round, and the
// interned values keep that hot path allocation-free. An empty Watch
// and a nil Watch are indistinguishable to receivers (same Bits, same
// iteration), so the substitution does not change Results.
var statusInterned = [2]congest.Message{
	statusMsg{Active: false},
	statusMsg{Active: true},
}

// smsg boxes a statusMsg, reusing the interned watch-free values.
func smsg(active bool, watch []int64) congest.Message {
	if len(watch) == 0 {
		if active {
			return statusInterned[1]
		}
		return statusInterned[0]
	}
	return statusMsg{Active: active, Watch: watch}
}

// activityMsg crosses part boundaries each super-round.
type activityMsg struct {
	Root   int64
	Active bool
}

func (m activityMsg) Bits() int { return 3 + congest.BitsForSigned(m.Root) }

// rootWeight is one (neighbor part, edge count) entry.
type rootWeight struct {
	Root   int64
	Weight int64
}

// rootFlag is one (watched part, still-active) entry.
type rootFlag struct {
	Root   int64
	Active bool
}

// decompAgg is the convergecast message of a forest-decomposition
// super-round: the set of active neighbor parts with edge counts (capped),
// plus activity flags for the watched parts.
type decompAgg struct {
	TooMany bool
	Entries []rootWeight
	Watch   []rootFlag
}

func (m decompAgg) Bits() int {
	b := 4
	for _, e := range m.Entries {
		b += congest.BitsForSigned(e.Root) + congest.BitsForSigned(e.Weight)
	}
	for _, w := range m.Watch {
		b += congest.BitsForSigned(w.Root) + 1
	}
	return b
}

// selMsg announces the selected out-edge (target part and weight).
type selMsg struct {
	Target int64
	Weight int64
	HasOut bool
}

func (m selMsg) Bits() int {
	return 3 + congest.BitsForSigned(m.Target) + congest.BitsForSigned(m.Weight)
}

// fSelect notifies the designated neighbor v^j that this part selected an
// edge into v^j's part.
type fSelect struct{ ChildRoot int64 }

func (m fSelect) Bits() int { return 2 + congest.BitsForSigned(m.ChildRoot) }

// reportMsg carries the part's final color and out-edge weight to its
// designated node for cross-boundary reporting.
type reportMsg struct {
	Color  int64
	Weight int64
}

func (m reportMsg) Bits() int {
	return 2 + congest.BitsForSigned(m.Color) + congest.BitsForSigned(m.Weight)
}

// childReport crosses the boundary from u^j to v^j after coloring.
type childReport struct {
	Color  int64
	Weight int64
}

func (m childReport) Bits() int {
	return 2 + congest.BitsForSigned(m.Color) + congest.BitsForSigned(m.Weight)
}

// colorSums aggregates incoming-edge weights per child color (1..3).
type colorSums struct{ W [4]int64 }

func (m colorSums) Bits() int {
	return 2 + congest.BitsForSigned(m.W[1]) + congest.BitsForSigned(m.W[2]) + congest.BitsForSigned(m.W[3])
}

// markMsg is the root's marking decision broadcast.
type markMsg struct {
	MarkOut bool
	// InClass: 0 none, 1..3 mark in-edges from children of that color,
	// markAllIn marks all incoming edges.
	InClass int8
}

const markAllIn = int8(4)

func (markMsg) Bits() int { return 2 + 4 }

// edgeMarked crosses the boundary to tell the other endpoint of an aux
// edge that the edge is marked.
type edgeMarked struct{}

func (edgeMarked) Bits() int { return 2 }

// attachMsg tells v^j that u^j is now its tree child (contraction).
type attachMsg struct{}

func (attachMsg) Bits() int { return 2 }

// flipMsg reverses tree-edge orientation along the path to the old root.
type flipMsg struct{}

func (flipMsg) Bits() int { return 2 }

// trialMsg is one weighted-edge-selection candidate (randomized variant):
// the candidate node's id, its chosen target part, and the subtree's total
// cross-degree (for reservoir-style uniform sampling up the tree).
type trialMsg struct {
	NodeID int64
	Target int64
	Degree int64
}

func (m trialMsg) Bits() int {
	return 2 + congest.BitsForSigned(m.NodeID) + congest.BitsForSigned(m.Target) + congest.BitsForSigned(m.Degree)
}
