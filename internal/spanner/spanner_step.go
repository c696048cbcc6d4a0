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
	spStart      spOp = iota // entry: nothing begun yet
	spDepthDown              // bcast: depth probe (each node's own depth)
	spDepthUp                // cvg: max depth
	spDepthAgree             // bcast: agreed depth
	spBoundary               // cross: flag cross-part edges
	spFinish
)

type spannerNode struct {
	part   *partition.Outcome
	record func(api *congest.StepAPI, v *NodeSpanner) congest.Status

	pc  spOp // the op in flight (spStart: none begun)
	reg congest.Message

	stretch int
	ports   []bool
}

// newSpannerNode returns the post-partition continuation for one node.
func newSpannerNode(part *partition.Outcome, record func(api *congest.StepAPI, v *NodeSpanner) congest.Status) congest.StepProgram {
	return &spannerNode{part: part, record: record}
}

// Step implements congest.StepProgram: each wake ends the op in flight
// and begins the next.
func (s *spannerNode) Step(api *congest.StepAPI, inbox []congest.Inbound) congest.Status {
	switch s.pc {
	case spDepthDown, spDepthUp:
		s.reg = api.Result()
	case spDepthAgree:
		s.stretch = 2 * int(api.Result().(depthMsg).D)
	case spBoundary:
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
	}
	s.pc++
	dl := api.Round() + api.N() + 2
	switch s.pc {
	case spDepthDown:
		return api.BroadcastDepth(s.part.Tree, dl, depthProbe)
	case spDepthUp:
		return api.Convergecast(s.part.Tree, api.Round(), dl, s.reg, cmbMaxDepth)
	case spDepthAgree:
		return api.Broadcast(s.part.Tree, dl, s.reg)
	case spBoundary:
		s.ports = make([]bool, api.Degree())
		api.SendAll(rootMsg{Root: s.part.RootID})
		return congest.Running()
	}
	return s.record(api, &NodeSpanner{
		Ports:        s.ports,
		PartRoot:     s.part.RootID,
		StretchBound: s.stretch,
	})
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
