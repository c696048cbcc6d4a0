package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/planar"
)

// StageIIOptions configures the per-part planarity check.
type StageIIOptions struct {
	// Epsilon is the distance parameter (drives the sample size).
	Epsilon float64
	// SampleCoeff scales the Theta(log n / eps) sample size. Zero means 2.
	SampleCoeff float64
	// EmbedMode selects what the substituted embedding step does on
	// non-planar parts (paper-faithful "some ordering"); see
	// planar.EmbedOrFallback. Zero means FallbackArbitrary.
	EmbedMode planar.FallbackMode
	// StrictEmbedReject rejects a part as soon as the embedding algorithm
	// determines non-planarity, instead of producing a fallback ordering.
	// The default (false) matches the paper's model, where the embedding
	// black box may silently produce orderings on non-planar inputs.
	StrictEmbedReject bool

	// partCtxPhase and opsPhase are the obs phase IDs ("stage2/partctx",
	// "stage2/ops") that the step machines announce on entry; zero (no
	// probe configured) announces nothing. They are interned by
	// Options.withDefaults before the run starts, travel by value through
	// the Stage II handoff, and are deliberately not serialized in
	// checkpoints: ResumeTester re-derives them from the caller's Options,
	// so a resumed run attributes to the same IDs as the original.
	partCtxPhase obs.PhaseID
	opsPhase     obs.PhaseID
}

func (o StageIIOptions) withDefaults() StageIIOptions {
	if o.SampleCoeff == 0 {
		o.SampleCoeff = 2
	}
	if o.EmbedMode == 0 {
		o.EmbedMode = planar.FallbackArbitrary
	}
	if o.Epsilon <= 0 || o.Epsilon > 1 {
		panic("core: Epsilon must be in (0,1]")
	}
	return o
}

// embedRotationItems is the root-side embedding step: it builds the part graph from the gathered edge list,
// runs the (substituted) embedding, and flattens the rotation system into
// scatter items.
func embedRotationItems(collected []congest.Message, rootID int64, partN int64, opts StageIIOptions) (out []congest.Message, strictFail bool) {
	// Build the part graph on dense indices.
	idOf := make([]int64, 0, partN)
	idx := make(map[int64]int, partN)
	add := func(id int64) int {
		if i, ok := idx[id]; ok {
			return i
		}
		idx[id] = len(idOf)
		idOf = append(idOf, id)
		return len(idOf) - 1
	}
	add(rootID)
	type pair struct{ a, b int }
	pairs := make([]pair, 0, len(collected))
	for _, it := range collected {
		e := it.(edgeItem)
		pairs = append(pairs, pair{add(e.A), add(e.B)})
	}
	b := graph.NewBuilder(len(idOf))
	for _, p := range pairs {
		b.AddEdge(p.a, p.b)
	}
	pg := b.Build()
	res := planar.EmbedOrFallback(pg, opts.EmbedMode)
	if !res.Planar && opts.StrictEmbedReject {
		return nil, true
	}
	for v := 0; v < pg.N(); v++ {
		for i, w := range res.Embedding.Rotation(v) {
			out = append(out, rotItem{Node: idOf[v], Idx: int32(i), Nbr: idOf[w]})
		}
	}
	return out, false
}

// modeledEmbedRounds is the charged round cost O(D + min(log n, D)) of the
// Ghaffari–Haeupler embedding substitution.
func modeledEmbedRounds(n, maxDepth int) int {
	logn := int(math.Ceil(math.Log2(float64(n + 1))))
	mD := maxDepth
	if logn < mD {
		mD = logn
	}
	return 2*maxDepth + mD
}

// rotationIndex is the rotation scatter stream with, for each part
// node's id, the range [lo, hi) of its entries in it.
type rotationIndex struct {
	items []congest.Message
	at    map[int64][2]int
}

// indexRotation builds the rotation stream's index. embedRotationItems
// emits each node's entries contiguously, so one pass finds the ranges.
func indexRotation(items []congest.Message) any {
	idx := rotationIndex{items: items, at: map[int64][2]int{}}
	for lo := 0; lo < len(items); {
		r, ok := items[lo].(rotItem)
		hi := lo + 1
		for ok && hi < len(items) {
			if next, ok2 := items[hi].(rotItem); !ok2 || next.Node != r.Node {
				break
			}
			hi++
		}
		if ok {
			idx.at[r.Node] = [2]int{lo, hi}
		}
		lo = hi
	}
	return idx
}

// rotationPorts extracts this node's rotation from the scattered items,
// mapping neighbor ids back to ports.
func rotationPorts(got []congest.Message, id int64, intra []bool, nbrID []int64) []int {
	portOf := make(map[int64]int, len(intra))
	for p, ok := range intra {
		if ok {
			portOf[nbrID[p]] = p
		}
	}
	type entry struct {
		idx int32
		nbr int64
	}
	var mine []entry
	for _, it := range got {
		if r, ok := it.(rotItem); ok && r.Node == id {
			mine = append(mine, entry{r.Idx, r.Nbr})
		}
	}
	slices.SortFunc(mine, func(a, b entry) int { return cmp.Compare(a.idx, b.idx) })
	rotPorts := make([]int, 0, len(mine))
	for _, e := range mine {
		p, ok := portOf[e.nbr]
		if !ok {
			panic("core: rotation references unknown neighbor")
		}
		rotPorts = append(rotPorts, p)
	}
	return rotPorts
}

// labelElemsPerChunkFor is the per-element size used when chunking labels.
func labelElemsPerChunkFor(bitBound, n int) int {
	per := (bitBound - 16) / (congest.BitsForID(n) + 2)
	if per < 1 {
		per = 1
	}
	return per
}

// chunksPerLabelFor bounds the chunk count of any label in a part: label
// length equals BFS depth, which is at most the part diameter <= budget.
func chunksPerLabelFor(budget, per int) int {
	return (budget+2)/per + 1
}

// sampleWant is the Theta(log n / eps) sample-size target of §2.2.2.
func sampleWant(opts StageIIOptions, n int) float64 {
	return opts.SampleCoeff * (math.Log(float64(n)) + 1) / opts.Epsilon
}

func isIn(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// edgePositionsFromRotation computes, per intra-part port, the edge's
// attachment position: the counterclockwise walk order starting from the
// parent edge (the tree's outer-face walk order; see EdgePositions). All
// intra-part edges get positions; tree children extend vertex labels,
// non-tree edges extend attachment labels. The result is indexed by port
// (deg entries, -1 on ports without a position).
func edgePositionsFromRotation(rotPorts []int, parentPort, deg int) []int32 {
	edgePos := make([]int32, deg)
	for i := range edgePos {
		edgePos[i] = -1
	}
	start := 0
	if parentPort >= 0 {
		for i, p := range rotPorts {
			if p == parentPort {
				start = i
				break
			}
		}
	}
	for k := 0; k < len(rotPorts); k++ {
		p := rotPorts[((start-k)%len(rotPorts)+len(rotPorts))%len(rotPorts)]
		edgePos[p] = int32(k)
		if parentPort < 0 {
			edgePos[p] = int32(k) + 1
		}
	}
	return edgePos
}

// assignedNonTreeEdges is the shared implementation of assignedNonTree.
// All of this node's attachment labels (own label plus one position
// element) are carved out of a single backing array.
func assignedNonTreeEdges(assigned []int, tree congest.Tree, nbrLabels []Label, label Label, edgePos []int32) []LabeledEdge {
	cnt := 0
	for _, p := range assigned {
		if p == tree.ParentPort || isIn(tree.ChildPorts, p) {
			continue
		}
		cnt++
	}
	if cnt == 0 {
		return nil
	}
	out := make([]LabeledEdge, 0, cnt)
	llen := len(label) + 1
	backing := make([]int32, 0, cnt*llen)
	for _, p := range assigned {
		if p == tree.ParentPort || isIn(tree.ChildPorts, p) {
			continue
		}
		nl := nbrLabels[p]
		if nl == nil {
			panic("core: missing neighbor label on assigned non-tree edge")
		}
		backing = append(append(backing, label...), edgePos[p])
		mine := Label(backing[len(backing)-llen:])
		out = append(out, NewLabeledEdge(mine, nl))
	}
	return out
}

// buildSampleChunks samples each assigned non-tree edge with probability p
// and chunks the selected label pairs (the RNG draw order is part of the
// deterministic schedule).
func buildSampleChunks(mine []LabeledEdge, p float64, per int, id int64, rng *rand.Rand) []congest.Message {
	var items []congest.Message
	for ei, le := range mine {
		if p < 1 && rng.Float64() >= p {
			continue
		}
		elems := labelElems(le.U, le.V)
		total := (len(elems) + per - 1) / per
		for ci := 0; ci < total; ci++ {
			lo := ci * per
			hi := lo + per
			if hi > len(elems) {
				hi = len(elems)
			}
			items = append(items, &sampleChunk{
				Owner: id,
				EIdx:  int32(ei),
				CIdx:  int32(ci),
				Last:  ci == total-1,
				Elems: elems[lo:hi],
			})
		}
	}
	return items
}

// sampleScratch pools the chunk-reassembly scratch of reassembleSamples.
var sampleScratch = sync.Pool{
	New: func() any { return new([]*sampleChunk) },
}

// reassembleSamples reassembles the sample stream's chunks into label
// pairs. Every node of a part reads the same stream, so the part runs it
// once (StepAPI.Shared) and its nodes share the result:
// read-only data. Only the scratch is pooled; the returned edges own
// their label storage.
func reassembleSamples(down []congest.Message) []LabeledEdge {
	scratch := sampleScratch.Get().(*[]*sampleChunk)
	chunks := (*scratch)[:0]
	if cap(chunks) < len(down) {
		chunks = make([]*sampleChunk, 0, len(down))
	}
	for _, it := range down {
		if sc, ok := it.(*sampleChunk); ok {
			chunks = append(chunks, sc)
		}
	}
	defer func() {
		clear(chunks) // drop chunk references before pooling
		*scratch = chunks[:0]
		sampleScratch.Put(scratch)
	}()
	// One global (owner, edge, chunk) sort replaces the per-edge grouping
	// map; chunk keys are unique, so the grouped order is identical.
	slices.SortFunc(chunks, func(a, b *sampleChunk) int {
		if c := cmp.Compare(a.Owner, b.Owner); c != 0 {
			return c
		}
		if c := cmp.Compare(a.EIdx, b.EIdx); c != 0 {
			return c
		}
		return cmp.Compare(a.CIdx, b.CIdx)
	})
	// All reassembled label pairs share one backing array (the returned
	// edges alias it), so reassembly costs two allocations per call, not
	// two per sample.
	total := 0
	for _, c := range chunks {
		total += len(c.Elems)
	}
	backing := make([]int32, 0, total)
	var out []LabeledEdge
	for lo := 0; lo < len(chunks); {
		hi := lo + 1
		for hi < len(chunks) && chunks[hi].Owner == chunks[lo].Owner && chunks[hi].EIdx == chunks[lo].EIdx {
			hi++
		}
		cs := chunks[lo:hi]
		lo = hi
		if !cs[len(cs)-1].Last {
			continue // truncated edge; skip
		}
		start := len(backing)
		for _, c := range cs {
			backing = append(backing, c.Elems...)
		}
		if le, ok := parseLabelPair(backing[start:]); ok {
			out = append(out, le)
		}
	}
	return out
}
