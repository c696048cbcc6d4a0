package core

import "repro/internal/congest"

// Message vocabulary of Stage II. Large logical payloads (node labels,
// sampled label pairs, part edge lists, rotations) are chunked into
// O(log n)-bit messages and pipelined.

// announceMsg is the Stage II boundary exchange: part root and node id.
type announceMsg struct {
	PartRoot int64
	ID       int64
}

func (m announceMsg) Bits() int {
	return 2 + congest.BitsForSigned(m.PartRoot) + congest.BitsForSigned(m.ID)
}

// valMsg carries one value in tree operations.
type valMsg struct{ V int64 }

func (m valMsg) Bits() int { return 2 + congest.BitsForSigned(m.V) }

// noneMsg is a no-contribution marker.
type noneMsg struct{}

func (noneMsg) Bits() int { return 1 }

// bfsMsg announces a BFS level (§2.2.1).
type bfsMsg struct{ Level int64 }

func (m bfsMsg) Bits() int { return 2 + congest.BitsForSigned(m.Level) }

// childMsg notifies the chosen BFS parent.
type childMsg struct{}

func (childMsg) Bits() int { return 2 }

// lvlMsg carries the final BFS level for edge assignment.
type lvlMsg struct{ Level int64 }

func (m lvlMsg) Bits() int { return 2 + congest.BitsForSigned(m.Level) }

// countsMsg aggregates (nodes, assigned edges) and broadcasts the Euler
// verdict back down.
type countsMsg struct {
	N, M   int64
	Reject bool
}

func (m countsMsg) Bits() int { return 3 + congest.BitsForSigned(m.N) + congest.BitsForSigned(m.M) }

// edgeItem is one part edge (by endpoint ids) in the embedding gather.
type edgeItem struct{ A, B int64 }

func (m edgeItem) Bits() int { return 2 + congest.BitsForSigned(m.A) + congest.BitsForSigned(m.B) }

// rotItem is one rotation entry in the embedding scatter: neighbor Nbr is
// at clockwise position Idx around node Node.
type rotItem struct {
	Node int64
	Idx  int32
	Nbr  int64
}

func (m rotItem) Bits() int {
	return 2 + congest.BitsForSigned(m.Node) + congest.BitsForSigned(int64(m.Idx)) + congest.BitsForSigned(m.Nbr)
}

// embedFail tells the part that the strict embedding step rejected.
type embedFail struct{}

func (embedFail) Bits() int { return 2 }

// labelChunk carries a slice of a node label down the BFS tree.
type labelChunk struct {
	Elems []int32
	Last  bool
}

func (m labelChunk) Bits() int {
	b := 4
	for _, e := range m.Elems {
		b += congest.BitsForSigned(int64(e))
	}
	return b
}

// sampleChunk carries a slice of a sampled edge's label pair, keyed by the
// owning node and the edge's index at that node. The payload flattens
// [len(u), u..., len(v), v...].
type sampleChunk struct {
	Owner int64
	EIdx  int32
	CIdx  int32
	Last  bool
	Elems []int32
}

func (m *sampleChunk) Bits() int {
	b := 5 + congest.BitsForSigned(m.Owner) + congest.BitsForSigned(int64(m.EIdx)) + congest.BitsForSigned(int64(m.CIdx))
	for _, e := range m.Elems {
		b += congest.BitsForSigned(int64(e))
	}
	return b
}

// depthVal is the budget agreement's depth probe: a node at depth d
// holds valMsg{d} and relays it to its children. Depth message kinds
// 64..95 are reserved for package core.
var depthVal = congest.RegisterDepthMessage(64, func(d int64) congest.Message { return valMsg{V: d} })

// The combiners of the part-context and Stage II convergecasts, both
// registered, so they run by reference. Combiner kinds 64..95 are
// reserved for package core.
var (
	cmbMaxVal = congest.RegisterCombiner(64, combineMaxVal)
	cmbCounts = congest.RegisterCombiner(65, combineCounts)
)

// combineMaxVal keeps the maximum valMsg (depth convergecast).
func combineMaxVal(_ int64, own congest.Message, ch []congest.Message) congest.Message {
	best := own.(valMsg).V
	for _, c := range ch {
		if v := c.(valMsg).V; v > best {
			best = v
		}
	}
	return valMsg{V: best}
}

// combineCounts sums (node, assigned-edge) counts up the BFS tree.
func combineCounts(_ int64, own congest.Message, ch []congest.Message) congest.Message {
	c := own.(countsMsg)
	for _, x := range ch {
		xc := x.(countsMsg)
		c.N += xc.N
		c.M += xc.M
	}
	return c
}

// labelElems flattens a label pair for chunking.
func labelElems(u, v Label) []int32 {
	out := make([]int32, 0, len(u)+len(v)+2)
	out = append(out, int32(len(u)))
	out = append(out, u...)
	out = append(out, int32(len(v)))
	out = append(out, v...)
	return out
}

// parseLabelPair reverses labelElems.
func parseLabelPair(elems []int32) (LabeledEdge, bool) {
	if len(elems) < 2 {
		return LabeledEdge{}, false
	}
	lu := int(elems[0])
	if len(elems) < 1+lu+1 {
		return LabeledEdge{}, false
	}
	u := Label(elems[1 : 1+lu])
	lv := int(elems[1+lu])
	if len(elems) != 2+lu+lv {
		return LabeledEdge{}, false
	}
	v := Label(elems[2+lu:])
	// The returned labels alias elems; callers pass freshly assembled
	// slices that are not reused afterwards.
	return NewLabeledEdge(u, v), true
}
