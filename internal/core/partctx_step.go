package core

import (
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// This file implements the per-part preprocessing of Stage II (§2.2.1):
// budget agreement, the boundary round, BFS tree construction, and edge
// assignment. It is the Stage II prelude (stage2_step.go) and is reused
// by the minor-free applications of §4.2 (cycle-freeness and
// bipartiteness testing, the hereditary tester), optionally followed by
// the gather-and-evaluate continuation: count the part, gather its graph
// at the root, evaluate a predicate there, and broadcast the verdict bit.

type pcOp uint8

const (
	pcStart      pcOp = iota // entry: nothing begun yet
	pcDepthDown              // bcast: depth probe (each node's own depth)
	pcDepthUp                // cvg: max depth
	pcDepthAgree             // bcast: agreed depth -> budget
	pcIdentity               // cross: part root + id exchange
	pcBFS                    // window: BFS tree construction
	pcLevels                 // cross: BFS levels -> edge assignment
	pcDone                   // context ready; hand over to the caller
)

// PartCtxStep is a StepProgram that builds this node's part context
// (round budget, intra-part ports, BFS tree, levels, and edge assignment)
// and then invokes the done callback, whose Status becomes the node's
// next scheduling instruction (typically Done after local checks, or
// BecomeStep of a continuation such as NewGatherEval's).
type PartCtxStep struct {
	part *partition.Outcome
	done func(api *congest.StepAPI, c *PartCtxStep) congest.Status

	pc    pcOp        // the op in flight (pcStart: none begun)
	phase obs.PhaseID // "stage2/partctx"; zero announces nothing
	reg   congest.Message

	budget   int
	maxDepth int
	intra    []bool
	nbrID    []int64
	nbrLvl   []int64
	tree     congest.Tree
	level    int64
	assigned []int

	// BFS window state.
	deadline   int
	adopted    bool
	parentPort int
	childPorts []int
}

// NewPartCtxStep returns the native part-context builder for one node with
// the given partition outcome.
func NewPartCtxStep(part *partition.Outcome, done func(api *congest.StepAPI, c *PartCtxStep) congest.Status) *PartCtxStep {
	return &PartCtxStep{part: part, done: done}
}

// Level returns this node's BFS level within its part.
func (c *PartCtxStep) Level() int64 { return c.level }

// NeighborLevel returns the BFS level of the intra-part neighbor on the
// given port.
func (c *PartCtxStep) NeighborLevel(port int) int64 { return c.nbrLvl[port] }

// AssignedPorts returns the ports of intra-part edges assigned to this
// node (the higher-level endpoint, ties by id).
func (c *PartCtxStep) AssignedPorts() []int { return c.assigned }

// IsTreePort reports whether the port carries a BFS-tree edge.
func (c *PartCtxStep) IsTreePort(port int) bool {
	return port == c.tree.ParentPort || isIn(c.tree.ChildPorts, port)
}

// NonTreeAssignedPorts returns the assigned ports that are not BFS-tree
// edges (each closes a cycle within the part).
func (c *PartCtxStep) NonTreeAssignedPorts() []int {
	var out []int
	for _, p := range c.assigned {
		if !c.IsTreePort(p) {
			out = append(out, p)
		}
	}
	return out
}

// Step implements congest.StepProgram: each wake ends the op in flight
// and begins the next, and the context, once complete, goes to the done
// callback.
func (c *PartCtxStep) Step(api *congest.StepAPI, inbox []congest.Inbound) congest.Status {
	if c.pc == pcStart {
		// The entry state is left within the first Step, so a checkpoint
		// never parks in it and a resumed run announces exactly once.
		if c.phase != 0 {
			api.PhaseEnter(c.phase)
		}
	} else if !c.absorb(api, inbox) {
		return congest.Sleep(c.deadline)
	}
	c.pc++
	return c.prepare(api)
}

// prepare begins the op at pc and returns the Status the node yields.
func (c *PartCtxStep) prepare(api *congest.StepAPI) congest.Status {
	dl := api.Round() + api.N() + 2
	switch c.pc {
	case pcDepthDown:
		return api.BroadcastDepth(c.part.Tree, dl, depthVal)
	case pcDepthUp:
		return api.Convergecast(c.part.Tree, api.Round(), dl, c.reg, cmbMaxVal)
	case pcDepthAgree:
		return api.Broadcast(c.part.Tree, dl, c.reg)
	case pcIdentity:
		api.SendAll(announceMsg{PartRoot: c.part.RootID, ID: api.ID()})
		return congest.Running()
	case pcBFS:
		c.deadline = api.Round() + c.budget + 3
		c.parentPort = -1
		c.childPorts = nil
		c.adopted = c.part.Tree.IsRoot()
		c.level = 0
		if c.adopted {
			for p, ok := range c.intra {
				if ok {
					api.Send(p, bfsMsg{Level: 0})
				}
			}
		}
		return congest.Sleep(c.deadline)
	case pcLevels:
		for p, ok := range c.intra {
			if ok {
				api.Send(p, lvlMsg{Level: c.level})
			}
		}
		return congest.Running()
	}
	return c.done(api, c)
}

// absorb ends the op at pc with this wake's inbox; it reports false
// while the BFS window runs.
func (c *PartCtxStep) absorb(api *congest.StepAPI, inbox []congest.Inbound) bool {
	switch c.pc {
	case pcDepthDown, pcDepthUp:
		c.reg = api.Result()
	case pcDepthAgree:
		c.maxDepth = int(api.Result().(valMsg).V)
		c.budget = 2*c.maxDepth + 2
		c.reg = nil
	case pcIdentity:
		deg := api.Degree()
		c.intra = make([]bool, deg)
		c.nbrID = make([]int64, deg)
		for _, in := range inbox {
			am, ok := in.Msg.(announceMsg)
			if !ok {
				// A neighboring part on a skewed schedule cannot
				// reach here, but stay tolerant.
				continue
			}
			c.intra[in.Port] = am.PartRoot == c.part.RootID
			c.nbrID[in.Port] = am.ID
		}
	case pcBFS:
		if !c.feedBFS(api, inbox) {
			return false
		}
		if !c.adopted {
			panic("core: BFS did not reach a part node (invalid partition)")
		}
		sort.Ints(c.childPorts)
		c.tree = congest.Tree{ParentPort: c.parentPort, ChildPorts: c.childPorts}
		if c.part.Tree.IsRoot() {
			c.tree.ParentPort = -1
		}
	case pcLevels:
		c.nbrLvl = make([]int64, api.Degree())
		for _, in := range inbox {
			if m, ok := in.Msg.(lvlMsg); ok {
				c.nbrLvl[in.Port] = m.Level
			}
		}
		for p, ok := range c.intra {
			if !ok {
				continue
			}
			if c.level > c.nbrLvl[p] || (c.level == c.nbrLvl[p] && api.ID() > c.nbrID[p]) {
				c.assigned = append(c.assigned, p)
			}
		}
	}
	return true
}

// feedBFS consumes one wake of the BFS tree construction; returns true at
// the deadline.
func (c *PartCtxStep) feedBFS(api *congest.StepAPI, inbox []congest.Inbound) bool {
	bestPort := -1
	for _, in := range inbox {
		switch m := in.Msg.(type) {
		case bfsMsg:
			if c.adopted || !c.intra[in.Port] {
				continue
			}
			if bestPort == -1 || c.nbrID[in.Port] < c.nbrID[bestPort] {
				bestPort = in.Port
				c.level = m.Level + 1
			}
		case childMsg:
			c.childPorts = append(c.childPorts, in.Port)
		}
	}
	if bestPort >= 0 {
		c.adopted = true
		c.parentPort = bestPort
		api.Send(c.parentPort, childMsg{})
		for p, ok := range c.intra {
			if ok && p != c.parentPort {
				api.Send(p, bfsMsg{Level: c.level})
			}
		}
	}
	return api.Round() >= c.deadline
}

type geOp uint8

const (
	geStart     geOp = iota // entry: nothing begun yet
	geCountUp               // cvg: (n, m) counts
	geCountDown             // bcast: counts back down
	geGather                // pipeline: assigned edges to the root
	geBit                   // bcast: the root's predicate bit
	geFinish
)

// gatherEvalNode counts the part, gathers its graph at the root, evaluates
// the predicate there, and broadcasts the verdict bit; the
// hereditary-property tester uses it.
type gatherEvalNode struct {
	c    *PartCtxStep
	pred func(g *graph.Graph) bool
	done func(api *congest.StepAPI, reject, rootEvaluated bool) congest.Status

	pc  geOp // the op in flight (geStart: none begun)
	pu  congest.PipelineUpStep
	reg congest.Message
	m   int64
	bad bool
}

// NewGatherEval returns the continuation that gathers the part graph at
// the root, evaluates pred on it, and broadcasts the verdict bit; done
// receives the part-wide reject bit and whether this node evaluated the
// predicate (i.e. is the part root holding the gathered graph).
func (c *PartCtxStep) NewGatherEval(pred func(g *graph.Graph) bool, done func(api *congest.StepAPI, reject, rootEvaluated bool) congest.Status) congest.StepProgram {
	return &gatherEvalNode{c: c, pred: pred, done: done}
}

// Step implements congest.StepProgram: each wake ends the op in flight
// and begins the next.
func (g *gatherEvalNode) Step(api *congest.StepAPI, inbox []congest.Inbound) congest.Status {
	c := g.c
	if g.pc != geStart && !g.absorb(api, inbox) {
		return g.pu.Wake()
	}
	g.pc++
	dl := api.Round() + c.budget + 2
	switch g.pc {
	case geCountUp:
		own := countsMsg{N: 1, M: int64(len(c.assigned))}
		return api.Convergecast(c.tree, api.Round(), dl, own, cmbCounts)
	case geCountDown:
		return api.Broadcast(c.tree, dl, g.reg)
	case geGather:
		items := make([]congest.Message, 0, len(c.assigned))
		for _, p := range c.assigned {
			items = append(items, edgeItem{A: api.ID(), B: c.nbrID[p]})
		}
		g.pu.Begin(api, c.tree, api.Round()+int(g.m)+c.budget+4, items)
		return g.pu.Wake()
	case geBit:
		v := int64(0)
		if g.bad {
			v = 1
		}
		return api.Broadcast(c.tree, dl, valMsg{V: v})
	}
	return g.done(api, g.reg.(valMsg).V == 1, c.tree.IsRoot())
}

// absorb ends the op at pc; it reports false while the gather runs.
func (g *gatherEvalNode) absorb(api *congest.StepAPI, inbox []congest.Inbound) bool {
	c := g.c
	switch g.pc {
	case geCountUp, geBit:
		g.reg = api.Result()
	case geCountDown:
		g.m = api.Result().(countsMsg).M
	case geGather:
		if !g.pu.Feed(api, inbox) {
			return false
		}
		collected, ok := g.pu.Result()
		g.bad = false
		if c.tree.IsRoot() {
			if !ok {
				panic("core: edge gather under-budgeted")
			}
			pg, _ := buildPartGraph(collected, api.ID())
			api.ChargeModeledRounds(2 * c.maxDepth)
			g.bad = !g.pred(pg)
		}
	}
	return true
}

// buildPartGraph assembles the gathered edge list into the part's induced
// graph on dense indices plus the index->id mapping.
func buildPartGraph(collected []congest.Message, rootID int64) (*graph.Graph, []int64) {
	idOf := make([]int64, 0, 16)
	idx := make(map[int64]int, 16)
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
	return b.Build(), idOf
}
