package spanner

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
)

// This file implements the spanner construction as a StepProgram: after
// Stage I, each node runs the depth probe (broadcast, convergecast,
// broadcast on the part tree) for the stretch certificate and one
// boundary round that flags cross-part edges, then assembles its
// NodeSpanner view: the node's Stage I tree edges plus every cross-part
// edge.

type spOp uint8

const (
	spDepthDown  spOp = iota // bcast: depth probe (each node's own depth)
	spDepthUp                // cvg: max depth
	spDepthAgree             // bcast: agreed depth
	spBoundary               // cross: flag cross-part edges
	spFinish
)

type spannerNode struct {
	part   *partition.Outcome
	record func(api *congest.StepAPI, v *NodeSpanner) congest.Status

	pc   spOp
	inOp bool
	bd   congest.BroadcastDownStep
	cv   congest.ConvergecastStep
	reg  congest.Message

	stretch int
	ports   []bool
}

// newSpannerNode returns the post-partition continuation for one node.
func newSpannerNode(part *partition.Outcome, record func(api *congest.StepAPI, v *NodeSpanner) congest.Status) congest.StepProgram {
	return &spannerNode{part: part, record: record}
}

// Step implements congest.StepProgram.
func (s *spannerNode) Step(api *congest.StepAPI, inbox []congest.Inbound) congest.Status {
	probe := api.N() + 2
	for {
		switch s.pc {
		case spDepthDown:
			if !s.inOp {
				if !s.bd.BeginDepth(api, s.part.Tree, api.Round()+probe, depthProbe) {
					s.inOp = true
					return s.bd.Wake()
				}
			} else if !s.bd.Feed(api, inbox) {
				return s.bd.Wake()
			} else {
				s.inOp = false
			}
			d, ok := s.bd.Result()
			if !ok {
				panic("spanner: depth probe under-budgeted")
			}
			s.reg = d
			s.pc = spDepthUp

		case spDepthUp:
			if !s.inOp {
				if !s.cv.Begin(api, s.part.Tree, api.Round()+probe, s.reg, cmbMaxDepth) {
					s.inOp = true
					return s.cv.Wake()
				}
			} else if !s.cv.Feed(api, inbox) {
				return s.cv.Wake()
			} else {
				s.inOp = false
			}
			maxd, ok := s.cv.Result()
			if !ok {
				panic("spanner: depth convergecast under-budgeted")
			}
			s.reg = maxd
			s.pc = spDepthAgree

		case spDepthAgree:
			if !s.inOp {
				if !s.bd.Begin(api, s.part.Tree, api.Round()+probe, s.reg) {
					s.inOp = true
					return s.bd.Wake()
				}
			} else if !s.bd.Feed(api, inbox) {
				return s.bd.Wake()
			} else {
				s.inOp = false
			}
			agreed, ok := s.bd.Result()
			if !ok {
				panic("spanner: depth broadcast under-budgeted")
			}
			s.stretch = 2 * int(agreed.(depthMsg).D)
			s.pc = spBoundary

		case spBoundary:
			if !s.inOp {
				s.ports = make([]bool, api.Degree())
				api.SendAll(rootMsg{Root: s.part.RootID})
				s.inOp = true
				return congest.Running()
			}
			s.inOp = false
			for _, in := range inbox {
				if rm, ok := in.Msg.(rootMsg); ok && rm.Root != s.part.RootID {
					s.ports[in.Port] = true // cross-part edge: keep
				}
			}
			if s.part.Tree.ParentPort >= 0 {
				s.ports[s.part.Tree.ParentPort] = true
			}
			for _, c := range s.part.Tree.ChildPorts {
				s.ports[c] = true
			}
			s.pc = spFinish

		default: // spFinish
			return s.record(api, &NodeSpanner{
				Ports:        s.ports,
				PartRoot:     s.part.RootID,
				StretchBound: s.stretch,
			})
		}
	}
}

// Collect runs the construction on g and returns the spanner subgraph,
// the per-node views, and the run metrics. Panics on invalid Options
// (Epsilon outside (0,1]).
func Collect(g *graph.Graph, opts Options, seed int64) (*graph.Graph, []*NodeSpanner, congest.Metrics, error) {
	if opts.Epsilon <= 0 || opts.Epsilon > 1 {
		panic("spanner: Epsilon must be in (0,1]")
	}
	if opts.Partition.Epsilon == 0 {
		opts.Partition.Epsilon = opts.Epsilon
	}
	plan := partition.NewStageIPlan(opts.Partition, g.N())
	views := make([]*NodeSpanner, g.N())
	res, err := congest.RunStep(congest.Config{
		Graph:     g,
		Seed:      seed,
		MaxRounds: 1 << 40,
		Workers:   opts.Workers,
		Cancel:    opts.Cancel,
		Deadline:  opts.Deadline,
	}, func(node int) congest.StepProgram {
		return plan.NewNode(func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
			return congest.BecomeStep(newSpannerNode(po, func(api *congest.StepAPI, v *NodeSpanner) congest.Status {
				views[api.Index()] = v
				return congest.Done()
			}))
		})
	})
	if err != nil {
		return nil, nil, congest.Metrics{}, err
	}
	return assembleSpanner(g, views), views, res.Metrics, nil
}

// assembleSpanner materializes the spanner subgraph from the per-node
// views.
func assembleSpanner(g *graph.Graph, views []*NodeSpanner) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for p, keep := range views[v].Ports {
			if keep {
				b.AddEdge(v, int(g.Neighbors(v)[p]))
			}
		}
	}
	return b.Build()
}
