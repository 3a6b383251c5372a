// Package cactus computes the set of ALL global minimum cuts of a weighted
// undirected graph and assembles their cactus representation, extending the
// paper's single-witness solver in the direction of Henzinger, Noe and
// Schulz's follow-up "Finding All Global Minimum Cuts in Practice".
//
// The pipeline is:
//
//  1. λ from the existing parallel exact solver (internal/core);
//  2. an all-cuts-preserving kernelization (core.KernelizeAllCuts):
//     CAPFOREST with fixed threshold λ+1 certifies pairs no minimum cut
//     separates, which the §3.2 parallel contraction merges;
//  3. enumeration on the kernel with the Karzanov–Timofeev recursion —
//     kernel vertices in an adjacency order, a residual network
//     (flow.Progressive) augmented per step with a λ cap, per-step cuts
//     read off as nested chains, each global minimum cut found exactly
//     once (at most n(n-1)/2 of them, by Dinitz–Karzanov–Lomonosov);
//     the steps shard across Options.Workers, one Progressive per
//     worker segment with the segment's prefix pre-absorbed, and the
//     per-segment chains concatenate in step order so the cut list is
//     identical for every worker count (the tests check it against a
//     quadratic reference: one Picard–Queyranne enumeration, flow.STEnum,
//     per kernel vertex, deduplicated in a shared set);
//  4. cactus construction, word- and worker-parallel: the C×n cut-side
//     matrix is transposed as cache-blocked 64×64 bit blocks
//     (transposeBits, sharded across Options.Workers) so per-vertex
//     cut-membership signatures cost O(C·n/64) word operations instead
//     of a per-set-bit scatter; vertices with equal signature rows are
//     grouped into atoms (never separated), crossing cuts are resolved
//     into circular partitions (cycles) by a single size-ascending
//     union-mask sweep (crossingClasses) with the per-class cycle
//     orderings fanned out over workers, non-crossing cuts into a
//     laminar forest (tree edges). The merge order is deterministic, so
//     the cactus encoding is byte-identical for every worker count.
//
// The resulting Cactus is an O(n)-size structure in which every minimum
// cut appears as the removal of one tree edge or of two edges of the same
// cycle, the classic representation of Dinitz, Karzanov and Lomonosov.
package cactus

import (
	"fmt"

	"repro/internal/graph"
)

// Cactus is the cactus representation of all minimum cuts of a graph:
// a connected graph over "node" ids in which every edge lies on at most
// one cycle. Graph vertices map onto nodes via VertexNode (several
// vertices per node; some nodes may be empty). Removing one tree edge, or
// two edges of the same cycle, splits the cactus in two and induces a
// minimum cut of the original graph; every minimum cut arises this way.
type Cactus struct {
	// Lambda is the minimum-cut value.
	Lambda int64
	// NumNodes is the number of cactus nodes.
	NumNodes int
	// VertexNode maps every graph vertex to its cactus node.
	VertexNode []int32
	// Edges lists the cactus edges (tree and cycle).
	Edges []Edge
	// NumCycles is the number of cycles.
	NumCycles int
}

// Edge is a cactus edge. Tree edges (Cycle < 0) carry weight λ; cycle
// edges carry λ/2 and are labeled with their cycle id in [0, NumCycles).
type Edge struct {
	A, B   int32
	Cycle  int32
	Weight int64
}

// IsTree reports whether e is a tree edge.
func (e Edge) IsTree() bool { return e.Cycle < 0 }

// NumTreeEdges returns the number of tree edges.
func (c *Cactus) NumTreeEdges() int {
	n := 0
	for _, e := range c.Edges {
		if e.IsTree() {
			n++
		}
	}
	return n
}

// NodeVertices groups the graph vertices by cactus node.
func (c *Cactus) NodeVertices() [][]int32 {
	out := make([][]int32, c.NumNodes)
	for v, node := range c.VertexNode {
		out[node] = append(out[node], int32(v))
	}
	return out
}

// String returns a short summary.
func (c *Cactus) String() string {
	return fmt.Sprintf("cactus{λ=%d nodes=%d tree=%d cycles=%d}",
		c.Lambda, c.NumNodes, c.NumTreeEdges(), c.NumCycles)
}

// EachMinCut calls fn once per distinct minimum cut encoded by the cactus,
// with the canonical side (vertex 0 on the false side). fn must not retain
// the slice; returning false stops the enumeration.
//
// Cuts realized by more than one edge removal are deduplicated in O(n)
// auxiliary state, with no per-cut allocations: two removals induce the
// same vertex partition exactly when their node partitions differ only by
// empty nodes, and in a valid cactus (both sides of every encoded cut hold
// at least one vertex) such coincidences are generated purely at empty
// nodes with exactly two incident units — a unit being one incident tree
// edge or one cycle passing through the node. At such a node x the removal
// severing one unit equals the removal severing the other (x switches
// sides carrying no vertices), so equivalence classes are chains of tree
// edges threaded through empty two-unit nodes, optionally ending in a
// "cycle pair at x" (the two edges of a cycle incident to x) on either
// side. One representative per class is emitted: the lowest-index tree
// edge if the class contains one, else the cycle pair of the
// lowest-numbered cycle.
func (c *Cactus) EachMinCut(fn func(side []bool) bool) {
	n := len(c.VertexNode)
	if c.NumNodes < 2 {
		return
	}
	adj := c.adjacency()
	d := newDeduper(c, adj)
	side := make([]bool, n)
	reach := make([]bool, c.NumNodes)
	stack := make([]int32, 0, c.NumNodes)

	emit := func(banned1, banned2 int) bool {
		// Component of node 0 with the banned edges removed; the cut side
		// is the complement (so vertex 0, living in some node of the
		// component... not necessarily node 0 — canonicalize at the end).
		for i := range reach {
			reach[i] = false
		}
		stack = append(stack[:0], 0)
		reach[0] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ae := range adj[v] {
				if ae.edge == banned1 || ae.edge == banned2 {
					continue
				}
				if !reach[ae.to] {
					reach[ae.to] = true
					stack = append(stack, ae.to)
				}
			}
		}
		far := 0
		for v := 0; v < n; v++ {
			side[v] = !reach[c.VertexNode[v]]
			if side[v] {
				far++
			}
		}
		if far == 0 || far == n {
			// Not split, or split along empty nodes only: not a cut.
			return true
		}
		if side[0] {
			for v := range side {
				side[v] = !side[v]
			}
		}
		return fn(side)
	}

	// Tree edges: one removal each, skipping non-representatives.
	for i, e := range c.Edges {
		if e.IsTree() && d.emitTree(i) {
			if !emit(i, -1) {
				return
			}
		}
	}
	// Cycles: every pair of same-cycle edges, skipping pairs whose cut is
	// already realized by a tree edge or by a lower-numbered cycle's pair.
	byCycle := make([][]int32, c.NumCycles)
	for i, e := range c.Edges {
		if !e.IsTree() {
			byCycle[e.Cycle] = append(byCycle[e.Cycle], int32(i))
		}
	}
	for _, ids := range byCycle {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if !d.emitPair(int(ids[i]), int(ids[j])) {
					continue
				}
				if !emit(int(ids[i]), int(ids[j])) {
					return
				}
			}
		}
	}
}

// Crosses reports whether some minimum cut separates u and v. Vertices
// mapped to the same cactus node are never separated (that is what atoms
// are), and vertices in distinct nodes are separated by the cut of any
// tree edge — or same-cycle edge pair — on the node path between them,
// which always exists since the cactus is connected; so the test is one
// array comparison.
func (c *Cactus) Crosses(u, v int32) bool {
	return c.VertexNode[u] != c.VertexNode[v]
}

// CrossingEdges returns the number of edges of g that some minimum cut
// crosses, i.e. whose endpoints lie in distinct cactus nodes. Edges with
// both endpoints in one atom can be deleted or reweighted without
// touching any minimum cut's value (they never contribute to one).
func (c *Cactus) CrossingEdges(g *graph.Graph) int {
	n := 0
	g.ForEachEdge(func(u, v int32, _ int64) {
		if c.Crosses(u, v) {
			n++
		}
	})
	return n
}

// CountCuts returns the number of distinct minimum cuts the cactus
// encodes.
func (c *Cactus) CountCuts() int {
	n := 0
	c.EachMinCut(func([]bool) bool { n++; return true })
	return n
}

type adjEntry struct {
	to   int32
	edge int
}

func (c *Cactus) adjacency() [][]adjEntry {
	adj := make([][]adjEntry, c.NumNodes)
	for i, e := range c.Edges {
		adj[e.A] = append(adj[e.A], adjEntry{e.B, i})
		adj[e.B] = append(adj[e.B], adjEntry{e.A, i})
	}
	return adj
}

// Validate checks the structural invariants of the cactus against the
// graph it was built from: every vertex mapped to a valid node, the cactus
// connected, every cycle a simple closed walk of ≥ 3 nodes whose edges
// appear exactly once, and — the expensive part — every encoded cut
// evaluating to exactly Lambda on g. Intended for tests and examples;
// costs O(#cuts · m).
func (c *Cactus) Validate(g *graph.Graph) error {
	n := g.NumVertices()
	if len(c.VertexNode) != n {
		return fmt.Errorf("cactus: VertexNode length %d != n %d", len(c.VertexNode), n)
	}
	for v, node := range c.VertexNode {
		if node < 0 || int(node) >= c.NumNodes {
			return fmt.Errorf("cactus: vertex %d mapped to invalid node %d", v, node)
		}
	}
	// Connectivity over nodes.
	if c.NumNodes > 0 {
		adj := c.adjacency()
		reach := make([]bool, c.NumNodes)
		stack := []int32{0}
		reach[0] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ae := range adj[v] {
				if !reach[ae.to] {
					reach[ae.to] = true
					stack = append(stack, ae.to)
				}
			}
		}
		for i, r := range reach {
			if !r {
				return fmt.Errorf("cactus: node %d unreachable", i)
			}
		}
	}
	// Cycle structure: each cycle's edges form one simple closed walk.
	byCycle := make([][]Edge, c.NumCycles)
	for _, e := range c.Edges {
		if e.IsTree() {
			continue
		}
		if e.Cycle >= int32(c.NumCycles) {
			return fmt.Errorf("cactus: edge cycle id %d out of range", e.Cycle)
		}
		byCycle[e.Cycle] = append(byCycle[e.Cycle], e)
	}
	for id, edges := range byCycle {
		if len(edges) < 3 {
			return fmt.Errorf("cactus: cycle %d has %d edges (< 3)", id, len(edges))
		}
		deg := map[int32]int{}
		for _, e := range edges {
			deg[e.A]++
			deg[e.B]++
		}
		if len(deg) != len(edges) {
			return fmt.Errorf("cactus: cycle %d covers %d nodes with %d edges", id, len(deg), len(edges))
		}
		for node, d := range deg {
			if d != 2 {
				return fmt.Errorf("cactus: cycle %d visits node %d %d times", id, node, d)
			}
		}
	}
	// Every encoded cut must evaluate to λ.
	var bad error
	c.EachMinCut(func(side []bool) bool {
		var val int64
		g.ForEachEdge(func(u, v int32, w int64) {
			if side[u] != side[v] {
				val += w
			}
		})
		if val != c.Lambda {
			bad = fmt.Errorf("cactus: encoded cut evaluates to %d, want λ=%d", val, c.Lambda)
			return false
		}
		return true
	})
	return bad
}
