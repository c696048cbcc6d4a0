package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

func permIDs(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x7A31))
	ids := make([]int64, n)
	for i, p := range rng.Perm(n) {
		ids[i] = int64(p + 1)
	}
	return ids
}

// PartAssignment maps each node to its part root id.
func PartAssignment(outs []*Outcome) []int {
	part := make([]int, len(outs))
	for v, o := range outs {
		part[v] = int(o.RootID)
	}
	return part
}

// ValidateOutcomes checks the structural guarantees of a partition
// (Lemma 6 and the partitioning-algorithm contract): consistent root
// knowledge, valid rooted spanning trees over real intra-part edges, and
// connected parts. diamBound, when positive, also enforces the per-part
// induced-diameter bound.
func ValidateOutcomes(g *graph.Graph, ids []int64, outs []*Outcome, diamBound int) error {
	n := g.N()
	if len(outs) != n || len(ids) != n {
		return fmt.Errorf("partition: %d outcomes / %d ids for %d nodes", len(outs), len(ids), n)
	}
	idToNode := make(map[int64]int, n)
	for v, id := range ids {
		idToNode[id] = v
	}
	members := make(map[int64][]int)
	for v, o := range outs {
		members[o.RootID] = append(members[o.RootID], v)
	}
	for rootID, mem := range members {
		rootNode, ok := idToNode[rootID]
		if !ok {
			return fmt.Errorf("partition: part root id %d is not a node id", rootID)
		}
		if outs[rootNode].RootID != rootID {
			return fmt.Errorf("partition: root node %d not in its own part", rootNode)
		}
		inPart := make([]bool, n)
		for _, v := range mem {
			inPart[v] = true
		}
		// Tree structure: parent/child port consistency over real edges.
		childCount := 0
		for _, v := range mem {
			t := outs[v].Tree
			if t.ParentPort < 0 {
				if v != rootNode {
					return fmt.Errorf("partition: node %d is a tree root but part root is %d", v, rootNode)
				}
			} else {
				p := int(g.Neighbors(v)[t.ParentPort])
				if !inPart[p] {
					return fmt.Errorf("partition: node %d has parent %d outside its part", v, p)
				}
				// The parent must list v as a child.
				found := false
				for _, cp := range outs[p].Tree.ChildPorts {
					if int(g.Neighbors(p)[cp]) == v {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("partition: edge %d->%d not mirrored in parent's children", v, p)
				}
			}
			for _, cp := range t.ChildPorts {
				c := int(g.Neighbors(v)[cp])
				if !inPart[c] {
					return fmt.Errorf("partition: node %d has child %d outside its part", v, c)
				}
				cpp := outs[c].Tree.ParentPort
				if cpp < 0 || int(g.Neighbors(c)[cpp]) != v {
					return fmt.Errorf("partition: child %d does not point back to %d", c, v)
				}
				childCount++
			}
		}
		if childCount != len(mem)-1 {
			return fmt.Errorf("partition: part %d has %d tree edges for %d nodes", rootID, childCount, len(mem))
		}
		// Spanning: BFS from root along child ports reaches everyone
		// (childCount == n-1 plus reachability implies a tree).
		reached := 0
		stack := []int{rootNode}
		seen := make(map[int]bool)
		seen[rootNode] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			reached++
			for _, cp := range outs[v].Tree.ChildPorts {
				c := int(g.Neighbors(v)[cp])
				if seen[c] {
					return fmt.Errorf("partition: node %d reached twice in part %d", c, rootID)
				}
				seen[c] = true
				stack = append(stack, c)
			}
		}
		if reached != len(mem) {
			return fmt.Errorf("partition: tree of part %d spans %d of %d nodes", rootID, reached, len(mem))
		}
		// Connectivity and induced diameter.
		sub, _ := g.InducedSubgraph(mem)
		if !sub.IsConnected() {
			return fmt.Errorf("partition: part %d induces a disconnected subgraph", rootID)
		}
		if diamBound > 0 {
			if d := sub.Diameter(); d > diamBound {
				return fmt.Errorf("partition: part %d has diameter %d > bound %d", rootID, d, diamBound)
			}
		}
	}
	return nil
}

// CutEdges returns the number of edges crossing parts.
func CutEdges(g *graph.Graph, outs []*Outcome) int {
	return graph.CutSize(g, PartAssignment(outs))
}

// MaxPartDiameter returns the maximum induced diameter over all parts.
func MaxPartDiameter(g *graph.Graph, outs []*Outcome) int {
	members := make(map[int64][]int)
	for v, o := range outs {
		members[o.RootID] = append(members[o.RootID], v)
	}
	max := 0
	for _, mem := range members {
		sub, _ := g.InducedSubgraph(mem)
		if d := sub.Diameter(); d > max {
			max = d
		}
	}
	return max
}

// NumParts returns the number of distinct parts.
func NumParts(outs []*Outcome) int {
	seen := make(map[int64]bool)
	for _, o := range outs {
		seen[o.RootID] = true
	}
	return len(seen)
}

// AnyRejected reports whether some node holds Stage I failure evidence.
// Nodes terminated by a StopOnReject shutdown (nil outcome) do not count;
// consult Result.Rejected for the authoritative global verdict.
func AnyRejected(outs []*Outcome) bool {
	for _, o := range outs {
		if o != nil && o.Rejected {
			return true
		}
	}
	return false
}
