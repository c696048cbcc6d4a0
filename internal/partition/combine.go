package partition

import (
	"math/rand"

	"repro/internal/congest"
)

// The combiners of Stage I's part-tree convergecasts. Each merges a
// node's own contribution with its children's, in ChildPorts order.

// combineFirst picks the first non-none contribution (used when exactly
// one node of the part holds the value, e.g. u^j).
func combineFirst(own congest.Message, children []congest.Message) congest.Message {
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
func combineSum(own congest.Message, children []congest.Message) congest.Message {
	s := own.(valMsg).V
	for _, c := range children {
		s += c.(valMsg).V
	}
	return vmsg(s)
}

// combineMin keeps the minimum valMsg, treating noneMsg as +inf.
func combineMin(own congest.Message, children []congest.Message) congest.Message {
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
func combineOr(own congest.Message, children []congest.Message) congest.Message {
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
func combinePairSum(own congest.Message, children []congest.Message) congest.Message {
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

// combineTrial is the weighted reservoir combiner of the tree-sampling
// procedure (§4.1): it picks one candidate with probability proportional to its subtree
// cross-degree and re-labels the winner with the subtree total.
func combineTrial(rng *rand.Rand, o congest.Message, ch []congest.Message) congest.Message {
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
