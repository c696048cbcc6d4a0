package partition

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/congest"
)

// The combiners of Stage I's part-tree convergecasts. Each merges a
// node's own contribution with its children's, in ChildPorts order. All
// are registered, so every convergecast runs by reference; the
// randomized variant's reservoir pick (combineTrial) draws from the
// folded node's randomness. Combiner kinds 32..63 are reserved for
// package partition (the internal/congest tests use 1..31,
// internal/core 64..95, internal/spanner 96..127).
var (
	cmbFirst     = congest.RegisterCombiner(32, combineFirst)
	cmbSum       = congest.RegisterCombiner(33, combineSum)
	cmbMin       = congest.RegisterCombiner(34, combineMin)
	cmbOr        = congest.RegisterCombiner(35, combineOr)
	cmbPairSum   = congest.RegisterCombiner(36, combinePairSum)
	cmbColorSums = congest.RegisterCombiner(37, combineColorSums)
	cmbFD        = congest.RegisterCombiner(38, combineFD) // argument: the entry cap
	cmbTrial     = congest.RegisterRandomCombiner(39, combineTrial)
)

// combineFirst picks the first non-none contribution (used when exactly
// one node of the part holds the value, e.g. u^j).
func combineFirst(_ int64, own congest.Message, children []congest.Message) congest.Message {
	if _, none := own.(noneMsg); !none {
		return own
	}
	for _, c := range children {
		if _, none := c.(noneMsg); !none {
			return c
		}
	}
	return noneMsg{}
}

// combineSum adds valMsg contributions.
func combineSum(_ int64, own congest.Message, children []congest.Message) congest.Message {
	s := own.(valMsg).V
	for _, c := range children {
		s += c.(valMsg).V
	}
	return vmsg(s)
}

// combineMin keeps the minimum valMsg, treating noneMsg as +inf.
func combineMin(_ int64, own congest.Message, children []congest.Message) congest.Message {
	best, ok := int64(0), false
	if v, isVal := own.(valMsg); isVal {
		best, ok = v.V, true
	}
	for _, c := range children {
		if v, isVal := c.(valMsg); isVal {
			if !ok || v.V < best {
				best, ok = v.V, true
			}
		}
	}
	if !ok {
		return noneMsg{}
	}
	return vmsg(best)
}

// combineOr ORs boolean valMsg contributions (0/1).
func combineOr(_ int64, own congest.Message, children []congest.Message) congest.Message {
	v := own.(valMsg).V
	for _, c := range children {
		if c.(valMsg).V != 0 {
			v = 1
		}
	}
	if v != 0 {
		v = 1
	}
	return vmsg(v)
}

// combinePairSum adds pairMsg contributions componentwise.
func combinePairSum(_ int64, own congest.Message, children []congest.Message) congest.Message {
	p := own.(pairMsg)
	for _, c := range children {
		q := c.(pairMsg)
		p.A += q.A
		p.B += q.B
	}
	if p == (pairMsg{}) {
		return zeroPair
	}
	return p
}

// combineColorSums merges colorSums contributions: the total incoming
// aux-edge weight per child color.
func combineColorSums(_ int64, own congest.Message, children []congest.Message) congest.Message {
	sum := own.(colorSums)
	for _, c := range children {
		cc := c.(colorSums)
		for i := 1; i <= 3; i++ {
			sum.W[i] += cc.W[i]
		}
	}
	if sum == (colorSums{}) {
		return zeroColorSums
	}
	return sum
}

// combineFD merges forest-decomposition aggregates: the entries summed
// per neighbor part and kept sorted by root, at most limit of them (more
// set TooMany), and the watch flags sorted by root, the last
// contribution's flag winning (duplicates agree: they relay one
// broadcast flag). The lists are new: a published aggregate must not
// alias a buffer that a node reuses.
func combineFD(limit int64, own congest.Message, children []congest.Message) congest.Message {
	o := own.(decompAgg)
	tooMany, nE, nW := o.TooMany, len(o.Entries), len(o.Watch)
	for _, c := range children {
		if a, ok := c.(decompAgg); ok {
			tooMany = tooMany || a.TooMany
			nE += len(a.Entries)
			nW += len(a.Watch)
		}
	}
	if !tooMany && nE == 0 && nW == 0 {
		return emptyDecomp
	}
	out := decompAgg{TooMany: tooMany}
	if nE > 0 {
		e := append(make([]rootWeight, 0, nE), o.Entries...)
		for _, c := range children {
			if a, ok := c.(decompAgg); ok {
				e = append(e, a.Entries...)
			}
		}
		slices.SortStableFunc(e, func(a, b rootWeight) int { return cmp.Compare(a.Root, b.Root) })
		k := 0
		for _, x := range e {
			if k > 0 && e[k-1].Root == x.Root {
				e[k-1].Weight += x.Weight
			} else {
				e[k] = x
				k++
			}
		}
		if int64(k) > limit {
			out.TooMany, k = true, int(limit)
		}
		out.Entries = e[:k]
	}
	if nW > 0 {
		w := append(make([]rootFlag, 0, nW), o.Watch...)
		for _, c := range children {
			if a, ok := c.(decompAgg); ok {
				w = append(w, a.Watch...)
			}
		}
		slices.SortStableFunc(w, func(a, b rootFlag) int { return cmp.Compare(a.Root, b.Root) })
		k := 0
		for _, x := range w {
			if k > 0 && w[k-1].Root == x.Root {
				w[k-1].Active = x.Active
			} else {
				w[k] = x
				k++
			}
		}
		out.Watch = w[:k]
	}
	return out
}

// combineTrial is the weighted reservoir combiner of the tree-sampling
// procedure (§4.1): it picks one candidate with probability proportional to its subtree
// cross-degree and re-labels the winner with the subtree total. It draws
// once when there is a candidate.
func combineTrial(rng *rand.Rand, _ int64, o congest.Message, ch []congest.Message) congest.Message {
	cands := make([]trialMsg, 0, len(ch)+1)
	if tm, ok := o.(trialMsg); ok {
		cands = append(cands, tm)
	}
	for _, c := range ch {
		if tm, ok := c.(trialMsg); ok {
			cands = append(cands, tm)
		}
	}
	if len(cands) == 0 {
		return noneMsg{}
	}
	total := int64(0)
	for _, c := range cands {
		total += c.Degree
	}
	r := rng.Int63n(total)
	for _, c := range cands {
		if r < c.Degree {
			c.Degree = total
			return c
		}
		r -= c.Degree
	}
	panic("partition: weighted pick out of range")
}
