package mincut

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cactus"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/pq"
)

// Graph is a weighted undirected graph in immutable CSR form. Construct
// one with NewBuilder or FromEdges.
type Graph = graph.Graph

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with n vertices (ids 0..n-1).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges assembles a graph from an edge list, aggregating parallel
// edges and dropping self loops.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// Algorithm selects a minimum-cut solver.
type Algorithm int

const (
	// AlgoParallel is the paper's shared-memory parallel exact algorithm
	// (Algorithm 2): parallel CAPFOREST + parallel contraction, with the
	// VieCut bound computed on the graph that the first round leaves
	// rather than on the whole input, where it mostly confirms the
	// minimum degree at a cost that grows with the input. A series
	// reduction folds chains of degree-2 vertices before every round, so
	// cycles and paths cost no round. The default.
	AlgoParallel Algorithm = iota
	// AlgoNOI is the engineered sequential solver NOIλ̂: bounded priority
	// queues, optionally seeded with a VieCut bound (§3.1), with the same
	// series reduction of degree-2 chains as AlgoParallel.
	AlgoNOI
	// AlgoNOIUnbounded is the reference NOI-HNSS implementation: binary
	// heap, no priority bounding, and the same series reduction as
	// AlgoNOI, so it differs from AlgoNOI only in the priority queue.
	AlgoNOIUnbounded
	// AlgoHaoOrlin is the flow-based exact algorithm of Hao and Orlin.
	AlgoHaoOrlin
	// AlgoStoerWagner is the exact algorithm of Stoer and Wagner.
	AlgoStoerWagner
	// AlgoKargerStein is the randomized Monte Carlo algorithm of Karger
	// and Stein; its result is exact with high probability (Options.Trials
	// controls repetitions).
	AlgoKargerStein
	// AlgoVieCut is the inexact multilevel algorithm; fast, near-optimal,
	// and the source of the exact solvers' bound λ̂.
	AlgoVieCut
	// AlgoMatula is Matula's (2+ε)-approximation (Options.Epsilon).
	AlgoMatula
)

// String returns the conventional name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoParallel:
		return "ParCut"
	case AlgoNOI:
		return "NOI"
	case AlgoNOIUnbounded:
		return "NOI-HNSS"
	case AlgoHaoOrlin:
		return "HO"
	case AlgoStoerWagner:
		return "StoerWagner"
	case AlgoKargerStein:
		return "KargerStein"
	case AlgoVieCut:
		return "VieCut"
	case AlgoMatula:
		return "Matula"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Exact reports whether the algorithm guarantees an exact result.
func (a Algorithm) Exact() bool {
	switch a {
	case AlgoParallel, AlgoNOI, AlgoNOIUnbounded, AlgoHaoOrlin, AlgoStoerWagner:
		return true
	default:
		return false
	}
}

// QueueKind selects the priority-queue implementation of CAPFOREST-based
// solvers (§3.1.3 of the paper). The zero value QueueAuto picks the
// paper's best per algorithm: FIFO buckets for the parallel solver,
// LIFO buckets for the sequential one.
type QueueKind int

const (
	// QueueAuto selects the per-algorithm best queue.
	QueueAuto QueueKind = iota
	// QueueBStack is the bucket queue with LIFO buckets.
	QueueBStack
	// QueueBQueue is the bucket queue with FIFO buckets.
	QueueBQueue
	// QueueHeap is the addressable bottom-up binary heap.
	QueueHeap
)

// String names the queue kind.
func (k QueueKind) String() string {
	switch k {
	case QueueAuto:
		return "Auto"
	case QueueBStack:
		return "BStack"
	case QueueBQueue:
		return "BQueue"
	case QueueHeap:
		return "Heap"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// toPQ resolves the kind against a per-algorithm default.
func (k QueueKind) toPQ(def pq.Kind) pq.Kind {
	switch k {
	case QueueBStack:
		return pq.KindBStack
	case QueueBQueue:
		return pq.KindBQueue
	case QueueHeap:
		return pq.KindHeap
	default:
		return def
	}
}

// Options configures Solve. The zero value requests the paper's default
// configuration: the parallel exact solver with a FIFO bucket queue,
// bounded priorities, a VieCut bound computed after the first CAPFOREST
// round, and GOMAXPROCS workers.
type Options struct {
	// Algorithm selects the solver (default AlgoParallel).
	Algorithm Algorithm
	// Workers bounds parallelism for AlgoParallel, AlgoVieCut and the
	// VieCut bound of AlgoNOI (≤ 0 means GOMAXPROCS).
	Workers int
	// Queue selects the priority queue for CAPFOREST-based solvers.
	// QueueAuto (the zero value) picks QueueBQueue for the parallel
	// solver — the paper's best parallel variant — and QueueBStack for
	// AlgoNOI, its best sequential variant.
	Queue QueueKind
	// DisableVieCut skips the inexact VieCut bound (ablation). AlgoParallel
	// computes that bound on the graph its first CAPFOREST round leaves,
	// AlgoNOI on the whole input.
	DisableVieCut bool
	// Trials is the repetition count for AlgoKargerStein (default
	// Θ(log² n)).
	Trials int
	// Epsilon is the approximation slack for AlgoMatula (default 0.5).
	Epsilon float64
	// Seed drives all randomized choices (default 1).
	Seed uint64
}

// Cut is the result of a minimum-cut computation.
type Cut struct {
	// Value is the total weight of the cut edges.
	Value int64
	// Side marks the vertices on one side of the cut; nil for graphs with
	// fewer than two vertices.
	Side []bool
	// Exact reports whether the value is guaranteed minimal (true for the
	// exact algorithms, false for VieCut, Matula and Karger–Stein).
	Exact bool
	// Algorithm is the solver that produced the cut.
	Algorithm Algorithm
}

// Solve computes a minimum cut of g according to opts. See Options for
// defaults; the zero Options value runs the paper's parallel exact solver.
//
// Solve is a convenience shim over the Snapshot API: it wraps g in a
// throwaway snapshot and queries it without a deadline. Callers that
// query the same graph repeatedly, need cancellation, or mutate the
// graph should hold a *Snapshot instead.
func Solve(g *Graph, opts Options) Cut {
	cut, _ := NewSnapshot(g, SnapshotOptions{Solve: opts}).MinCut(context.Background())
	return cut
}

// Cactus is the cactus representation of all minimum cuts: every minimum
// cut corresponds to removing one tree edge or two edges of the same
// cycle. See AllMinCuts.
type Cactus = cactus.Cactus

// CactusEdge is an edge of a Cactus (tree or cycle).
type CactusEdge = cactus.Edge

// AllCutsOptions configures AllMinCuts. The zero value runs the
// Karzanov–Timofeev enumeration after an all-cuts-preserving
// kernelization, with GOMAXPROCS workers for the kernelization and the
// enumeration alike.
type AllCutsOptions struct {
	// Workers bounds parallelism (≤ 0 means GOMAXPROCS) across the
	// pipeline: the λ solve, the kernelization, and the sharded KT cut
	// enumeration. The result is identical for every worker count.
	Workers int
	// Seed drives randomized choices (default 1).
	Seed uint64
	// MaxCuts aborts with an error if more cuts than this are found
	// (≤ 0 means a 2²⁰ safety default; the theory bounds the count by
	// n(n-1)/2 for connected graphs). Building the cactus materializes no
	// cut, so the cap bounds time, not memory, unless Cuts is filled.
	MaxCuts int
	// NoMaterialize skips building AllCuts.Cuts — Θ(C·n) bytes for C
	// cuts, Θ(n³) on cycle-heavy graphs. The cactus is still built (it
	// materializes no cut); stream the cuts from it with
	// Cactus.EachMinCut.
	NoMaterialize bool
}

// ErrTooManyCuts is wrapped by AllMinCuts when the number of minimum cuts
// exceeds AllCutsOptions.MaxCuts (check with errors.Is). Any other
// AllMinCuts error indicates an internal inconsistency and is a bug.
var ErrTooManyCuts = cactus.ErrTooManyCuts

// AllCuts is the result of an all-minimum-cuts computation: the value λ,
// every distinct minimum cut in canonical form (vertex 0 on the false
// side), and the cactus representation. For disconnected graphs Connected
// is false and no cuts are materialized (every grouping of whole
// components is a weight-0 cut; there are exponentially many).
type AllCuts = cactus.Result

// AllMinCuts computes every global minimum cut of g and their cactus
// representation. λ comes from the parallel exact solver (AlgoParallel);
// the graph is then contracted by CAPFOREST certificates strictly above λ
// (which preserves the full minimum-cut family), and the kernel's cuts
// are enumerated with the Karzanov–Timofeev recursion: kernel vertices
// are visited in an adjacency order, one shared residual network carries
// the flow across steps, each step augments to at most λ and reads its
// minimum cuts off as a nested chain. The steps shard across
// AllCutsOptions.Workers: each worker claims the next step from one
// shared counter and runs it on its own residual network. The chains are
// merged into the Dinitz–Karzanov–Lomonosov cactus, in which every
// minimum cut is the removal of one tree edge or of two edges of one
// cycle, by replaying them last step first and splitting one cactus
// node into a path per step — no cut is materialized or compared with
// another.
//
// AllMinCuts is a convenience shim over the Snapshot API, like Solve.
func AllMinCuts(g *Graph, opts AllCutsOptions) (*AllCuts, error) {
	return NewSnapshot(g, SnapshotOptions{AllCuts: opts}).AllMinCuts(context.Background())
}

// CutValue evaluates the cut described by side on g — the total weight of
// edges with endpoints on opposite sides.
func CutValue(g *Graph, side []bool) int64 {
	var total int64
	g.ForEachEdge(func(u, v int32, w int64) {
		if side[u] != side[v] {
			total += w
		}
	})
	return total
}

// ReadGraphFile reads a graph from path ("-" for stdin) in the named
// format: "metis", "edgelist", "matrixmarket", or "auto" to detect from
// the extension (.mtx → MatrixMarket, .txt/.el → edge list, anything
// else → METIS).
func ReadGraphFile(path, format string) (*Graph, error) { return graphio.ReadFile(path, format) }

// ReadMETIS parses a graph in METIS/DIMACS format.
func ReadMETIS(r io.Reader) (*Graph, error) { return graphio.ReadMETIS(r) }

// WriteMETIS writes g in METIS format with edge weights.
func WriteMETIS(w io.Writer, g *Graph) error { return graphio.WriteMETIS(w, g) }

// ReadEdgeList parses a graph in "n m" + "u v [w]" edge-list format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graphio.ReadEdgeList(r) }

// WriteEdgeList writes g in edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graphio.WriteEdgeList(w, g) }

// ReadMatrixMarket parses a graph in MatrixMarket coordinate format (the
// SuiteSparse collection format): pattern and real matrices are read
// structurally with unit weights, integer matrices carry edge weights.
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return graphio.ReadMatrixMarket(r) }

// WriteMatrixMarket writes g as a MatrixMarket "integer symmetric"
// coordinate file.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return graphio.WriteMatrixMarket(w, g) }
