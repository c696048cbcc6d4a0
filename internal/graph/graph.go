// Package graph provides the graph substrate used throughout the
// reproduction of "Property Testing of Planarity in the CONGEST model"
// (Levi, Medina, Ron; PODC 2018): simple undirected graphs, weighted
// auxiliary multigraphs arising from part contraction, classic traversals,
// and the synthetic graph families the experiments run on.
//
// Nodes are dense indices 0..N()-1. The CONGEST simulator assigns
// (possibly non-contiguous) identifiers on top of these indices.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is an immutable simple undirected graph with nodes 0..n-1.
// Build one with a Builder. The zero value is an empty graph.
//
// Adjacency is stored in compressed sparse row (CSR) form: the
// neighbors of v are arcs[off[v]:off[v+1]], sorted, with no duplicates
// and no self-loops.
type Graph struct {
	n    int
	m    int
	off  []int   // len n+1 (nil for the zero value)
	arcs []int32 // len 2m

	revOnce sync.Once
	rev     [][]int32 // lazily built reverse port table (see RevPorts)
}

// Builder accumulates edges for a Graph. Duplicate edges and self-loops
// are silently dropped at Build time, keeping generator code simple.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Builder{n: n}
}

// GrowNodes raises the node count to n; a smaller n is a no-op. Readers
// whose node count is known only after the last edge (headerless edge
// lists) grow the Builder as endpoints arrive.
func (b *Builder) GrowNodes(n int) {
	if n > b.n {
		b.n = n
	}
}

// Reserve grows the edge buffer's capacity for m more AddEdge calls.
func (b *Builder) Reserve(m int) { b.edges = slices.Grow(b.edges, m) }

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalizes the Builder into an immutable Graph in O(n+m) time
// with four allocations, by a two-pass counting sort over the arcs
// (both orientations of every recorded edge). Pass one buckets each arc
// by its source. Pass two walks the sources in ascending order and
// appends each source to its targets' lists, so every list comes out
// sorted and repeated edges land next to each other, where they are
// dropped. The Builder is left unchanged.
func (b *Builder) Build() *Graph {
	n := b.n
	off := make([]int, n+1)
	for _, e := range b.edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Pass one: bucket arcs by source; cur[v] is v's next free slot.
	cur := make([]int, n)
	copy(cur, off)
	bySrc := make([]int32, off[n])
	for _, e := range b.edges {
		bySrc[cur[e[0]]] = e[1]
		cur[e[0]]++
		bySrc[cur[e[1]]] = e[0]
		cur[e[1]]++
	}
	// Pass two: sources in ascending order fill their targets' lists.
	copy(cur, off)
	arcs := make([]int32, off[n])
	dups := false
	for s := 0; s < n; s++ {
		for _, d := range bySrc[off[s]:off[s+1]] {
			c := cur[d]
			if c > off[d] && arcs[c-1] == int32(s) {
				dups = true
				continue
			}
			arcs[c] = int32(s)
			cur[d] = c + 1
		}
	}
	if dups {
		// Close the gaps the dropped repeats left behind.
		w := 0
		for v := 0; v < n; v++ {
			lo := off[v]
			off[v] = w
			w += copy(arcs[w:], arcs[lo:cur[v]])
		}
		off[n] = w
		arcs = arcs[:w:w]
	}
	return &Graph{n: n, m: off[n] / 2, off: off, arcs: arcs}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified; its capacity ends at
// its length, so appending to it copies instead of overwriting the next
// node's list.
func (g *Graph) Neighbors(v int) []int32 {
	lo, hi := g.off[v], g.off[v+1]
	return g.arcs[lo:hi:hi]
}

// RevPorts returns the reverse port table: RevPorts()[v][i] is the port
// of v in the adjacency list of its i-th neighbor. It is computed once in
// O(n+m) on first use and cached, so repeated simulation runs over the
// same graph share it. The returned slices are shared and must not be
// modified.
func (g *Graph) RevPorts() [][]int32 {
	g.revOnce.Do(func() {
		rev := make([][]int32, g.n)
		ports := make([]int32, len(g.arcs))
		cnt := make([]int32, g.n)
		// Processing nodes in ascending order, cnt[w] counts the directed
		// edges (x, w) seen so far; since adjacency lists are sorted, when
		// edge (u, w) is reached, cnt[w] equals the number of neighbors of
		// w smaller than u — exactly u's port in w's list.
		for u := 0; u < g.n; u++ {
			lo, hi := g.off[u], g.off[u+1]
			for i, w := range g.arcs[lo:hi] {
				ports[lo+i] = cnt[w]
				cnt[w]++
			}
			rev[u] = ports[lo:hi:hi]
		}
		g.rev = rev
	})
	return g.rev
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// Edge is an undirected edge with U <= V.
type Edge struct {
	U, V int32
}

// NormEdge returns the Edge for {u, v} with endpoints ordered.
func NormEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{int32(u), int32(v)}
}

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				es = append(es, Edge{int32(u), v})
			}
		}
	}
	return es
}

// Clone returns a deep copy of g as a Builder, allowing edge edits.
func (g *Graph) Clone() *Builder {
	b := NewBuilder(g.n)
	for _, e := range g.Edges() {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b
}

// RemoveEdges returns a copy of g with the given edges removed.
// Edges not present are ignored.
func (g *Graph) RemoveEdges(remove []Edge) *Graph {
	drop := make(map[Edge]bool, len(remove))
	for _, e := range remove {
		drop[NormEdge(int(e.U), int(e.V))] = true
	}
	b := NewBuilder(g.n)
	for _, e := range g.Edges() {
		if !drop[e] {
			b.AddEdge(int(e.U), int(e.V))
		}
	}
	return b.Build()
}

// AddEdges returns a copy of g with the given extra edges added.
func (g *Graph) AddEdges(add []Edge) *Graph {
	b := g.Clone()
	for _, e := range add {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

// InducedSubgraph returns the subgraph induced by nodes (which need not be
// sorted), together with the map from new indices to original indices.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	orig := make([]int, len(nodes))
	copy(orig, nodes)
	sort.Ints(orig)
	idx := make(map[int]int, len(orig))
	for i, v := range orig {
		if j, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: duplicate node %d at positions %d,%d", v, j, i))
		}
		idx[v] = i
	}
	b := NewBuilder(len(orig))
	for i, v := range orig {
		for _, w := range g.Neighbors(v) {
			if j, ok := idx[int(w)]; ok && i < j {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build(), orig
}

// BFSResult holds a breadth-first search tree from a root.
type BFSResult struct {
	Root   int
	Dist   []int // -1 when unreachable
	Parent []int // -1 for root and unreachable nodes
	Order  []int // visit order, starting with Root
}

// BFS runs breadth-first search from root over all of g.
func (g *Graph) BFS(root int) *BFSResult {
	return g.BFSWithin(root, nil)
}

// BFSWithin runs BFS from root restricted to nodes where allowed[v] is true.
// A nil allowed means all nodes are allowed.
func (g *Graph) BFSWithin(root int, allowed []bool) *BFSResult {
	res := &BFSResult{
		Root:   root,
		Dist:   make([]int, g.n),
		Parent: make([]int, g.n),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
	}
	if allowed != nil && !allowed[root] {
		return res
	}
	res.Dist[root] = 0
	queue := []int{root}
	res.Order = append(res.Order, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if allowed != nil && !allowed[v] {
				continue
			}
			if res.Dist[v] == -1 {
				res.Dist[v] = res.Dist[u] + 1
				res.Parent[v] = u
				res.Order = append(res.Order, v)
				queue = append(queue, v)
			}
		}
	}
	return res
}

// Components returns, for each node, its component index, plus the number
// of components. Component indices are assigned in order of lowest node.
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	for v := 0; v < g.n; v++ {
		if comp[v] != -1 {
			continue
		}
		res := g.BFS(v)
		for _, u := range res.Order {
			comp[u] = count
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether g is connected (true for the empty graph
// and single-node graphs).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	_, c := g.Components()
	return c == 1
}

// Eccentricity returns the maximum BFS distance from v to any reachable
// node.
func (g *Graph) Eccentricity(v int) int {
	res := g.BFS(v)
	ecc := 0
	for _, d := range res.Dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter computes the exact diameter of g (max over connected pairs) by
// running BFS from every node. Suitable for the part sizes arising in
// experiments; O(n·m).
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if e := g.Eccentricity(v); e > d {
			d = e
		}
	}
	return d
}

// IsTree reports whether g is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.IsConnected() && g.m == g.n-1
}

// IsForest reports whether g is acyclic.
func (g *Graph) IsForest() bool {
	_, c := g.Components()
	return g.m == g.n-c
}

// OddCycleEdge looks for an edge that closes an odd cycle. It returns the
// edge and true when g is not bipartite, and false otherwise.
func (g *Graph) OddCycleEdge() (Edge, bool) {
	color := make([]int8, g.n) // 0 unvisited, 1/2 sides
	for s := 0; s < g.n; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				v := int(w)
				if color[v] == 0 {
					color[v] = 3 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return NormEdge(u, v), true
				}
			}
		}
	}
	return Edge{}, false
}

// IsBipartite reports whether g has no odd cycle.
func (g *Graph) IsBipartite() bool {
	_, odd := g.OddCycleEdge()
	return !odd
}

// ShortestCycleThrough returns the length of a shortest cycle through edge
// {u,v} (computed as dist(u,v) in g minus that edge, plus one), or -1 if
// the edge lies on no cycle. maxLen bounds the search: cycles longer than
// maxLen report -1.
func (g *Graph) ShortestCycleThrough(u, v int, maxLen int) int {
	if !g.HasEdge(u, v) {
		return -1
	}
	// BFS from u avoiding the edge {u,v}, stop beyond maxLen-1.
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] >= maxLen-1 {
			continue
		}
		for _, w := range g.Neighbors(x) {
			y := int(w)
			if x == u && y == v {
				continue
			}
			if dist[y] == -1 {
				dist[y] = dist[x] + 1
				if y == v {
					return dist[y] + 1
				}
				queue = append(queue, y)
			}
		}
	}
	if dist[v] == -1 {
		return -1
	}
	return dist[v] + 1
}

// Girth returns the length of a shortest cycle in g, or -1 if acyclic.
// maxLen bounds the search; cycles longer than maxLen are not reported.
// O(m * m) in the worst case; fine at experiment scale.
func (g *Graph) Girth(maxLen int) int {
	best := -1
	for _, e := range g.Edges() {
		c := g.ShortestCycleThrough(int(e.U), int(e.V), maxLen)
		if c != -1 && (best == -1 || c < best) {
			best = c
			if best == 3 {
				return 3
			}
		}
	}
	return best
}

// MaxDegree returns the maximum degree in g (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.Neighbors(v)) > d {
			d = len(g.Neighbors(v))
		}
	}
	return d
}

// DegeneracyOrder returns a degeneracy ordering and the degeneracy of g
// (the maximum, over the ordering, of a node's remaining degree when
// removed). The arboricity of g lies in [ (degeneracy+1)/2, degeneracy ].
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	deg := make([]int, g.n)
	removed := make([]bool, g.n)
	buckets := make([][]int, g.n)
	for v := 0; v < g.n; v++ {
		deg[v] = len(g.Neighbors(v))
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	order = make([]int, 0, g.n)
	cur := 0
	for len(order) < g.n {
		for cur < len(buckets) && len(buckets[cur]) == 0 {
			cur++
		}
		if cur >= len(buckets) {
			break
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			continue // stale bucket entry
		}
		removed[v] = true
		order = append(order, v)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, w := range g.Neighbors(v) {
			u := int(w)
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
			}
		}
		if cur > 0 {
			cur--
		}
	}
	return order, degeneracy
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.m)
}

// CutSize returns the number of edges of g whose endpoints lie in
// different parts.
func CutSize(g *Graph, part []int) int {
	cut := 0
	for _, e := range g.Edges() {
		if part[e.U] != part[e.V] {
			cut++
		}
	}
	return cut
}
