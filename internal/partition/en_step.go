package partition

import (
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
)

// This file implements the Elkin–Neiman-style random-shift clustering
// baseline (en.go) as a StepProgram: every node draws an exponential
// shift delta_v with rate beta = eps/2 and wakes at round
// cap-floor(delta_v); the first claim to reach a node (ties broken by
// priority, then root id) wins, and claims flood outward one hop per
// round. The node is a five-state machine around one wait-claim-flood
// loop, and draws its one ExpFloat64 at its first wake. Its Outcome has
// the shape of Stage I's, so Stage II runs unchanged on the parts.

type enState uint8

const (
	enUnclaimed enState = iota // parked until the shifted start or a claim
	enFlooded                  // claimed and flooded this round (NextRound)
	enClaimed                  // claimed, parked until the deadline
	enAcked                    // ack sent, collecting child notices
)

// enNode is the per-node interpreter state of the baseline clustering.
type enNode struct {
	eps    float64
	onDone func(api *congest.StepAPI, out *Outcome) congest.Status

	started  bool
	st       enState
	base     int
	start    int
	deadline int
	prio     int64

	rootID     int64
	bestPrio   int64
	parentPort int
	childPorts []int
}

// NewENNode returns the StepProgram for one node of the
// Elkin–Neiman baseline. onDone is invoked exactly once, at the round the
// clustering completes at this node, with the node's Outcome; its Status
// becomes the node's next scheduling instruction (Done for standalone
// runs, BecomeStep(stageII) for the full tester).
func NewENNode(eps float64, onDone func(api *congest.StepAPI, out *Outcome) congest.Status) congest.StepProgram {
	return &enNode{eps: eps, onDone: onDone}
}

// Step implements congest.StepProgram.
func (e *enNode) Step(api *congest.StepAPI, inbox []congest.Inbound) congest.Status {
	if !e.started {
		e.started = true
		e.init(api)
	}
	switch e.st {
	case enUnclaimed:
		// A SleepUntil wake: adopt the best incoming claim, if any.
		best := -1
		for i, in := range inbox {
			cm, ok := in.Msg.(claimMsg)
			if !ok {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			bc := inbox[best].Msg.(claimMsg)
			if cm.Prio > bc.Prio || (cm.Prio == bc.Prio && cm.Root < bc.Root) {
				best = i
			}
		}
		if best >= 0 {
			cm := inbox[best].Msg.(claimMsg)
			e.rootID = cm.Root
			e.bestPrio = cm.Prio
			e.parentPort = inbox[best].Port
			e.flood(api)
			e.st = enFlooded
			return congest.Running()
		}
		// Loop top.
		if api.Round() >= e.deadline {
			return e.ackPhase(api)
		}
		if api.Round() >= e.base+e.start {
			// Wake: claim self.
			e.rootID = api.ID()
			e.bestPrio = e.prio
			e.parentPort = -1
			e.flood(api)
			e.st = enFlooded
			return congest.Running()
		}
		until := e.base + e.start
		if until > e.deadline {
			until = e.deadline
		}
		return congest.Sleep(until)

	case enFlooded:
		// The NextRound after flooding; its inbox is discarded.
		if api.Round() >= e.deadline {
			return e.ackPhase(api)
		}
		e.st = enClaimed
		return congest.Sleep(e.deadline)

	case enClaimed:
		// Already decided; later claims are ignored.
		if api.Round() >= e.deadline {
			return e.ackPhase(api)
		}
		return congest.Sleep(e.deadline)

	default: // enAcked
		for _, in := range inbox {
			if _, ok := in.Msg.(ackMsg); ok {
				e.childPorts = append(e.childPorts, in.Port)
			}
		}
		out := &Outcome{
			RootID: e.rootID,
			Tree:   congest.Tree{ParentPort: e.parentPort, ChildPorts: e.childPorts},
		}
		return e.onDone(api, out)
	}
}

// init validates eps, draws the exponential shift, and derives the
// schedule constants.
func (e *enNode) init(api *congest.StepAPI) {
	if e.eps <= 0 || e.eps > 1 {
		panic("partition: eps must be in (0,1]")
	}
	beta := e.eps / 2
	shiftCap := ENShiftCap(api.N(), beta)
	delta := api.Rand().ExpFloat64() / beta
	if delta > float64(shiftCap) {
		delta = float64(shiftCap)
	}
	e.start = shiftCap - int(math.Floor(delta))
	e.prio = int64((delta - math.Floor(delta)) * (1 << 20))
	e.base = api.Round()
	e.deadline = e.base + 2*shiftCap + 2
	e.rootID = -1
	e.parentPort = -1
}

func (e *enNode) flood(api *congest.StepAPI) {
	api.SendAll(claimMsg{Root: e.rootID, Prio: e.bestPrio})
}

// ackPhase is the post-loop acknowledgement round: children notify their
// cluster-tree parents; child notices are collected at the next wake.
func (e *enNode) ackPhase(api *congest.StepAPI) congest.Status {
	if e.parentPort >= 0 {
		api.Send(e.parentPort, ackMsg{})
	}
	e.st = enAcked
	return congest.Running()
}

// CollectEN runs the Elkin–Neiman-style baseline partition on g and
// returns the per-node outcomes, the assigned ids, and the run result.
func CollectEN(g *graph.Graph, eps float64, seed int64) ([]*Outcome, []int64, *congest.Result, error) {
	ids := permIDs(g.N(), seed)
	outs := make([]*Outcome, g.N())
	res, err := congest.RunStep(congest.Config{Graph: g, Seed: seed, IDs: ids}, func(node int) congest.StepProgram {
		return NewENNode(eps, func(api *congest.StepAPI, out *Outcome) congest.Status {
			outs[api.Index()] = out
			return congest.Done()
		})
	})
	return outs, ids, res, err
}
