// Package mincut computes exact minimum cuts of undirected weighted
// graphs, sequentially and in shared-memory parallel, reproducing
// "Shared-memory Exact Minimum Cuts" (Henzinger, Noe, Schulz; IPPS 2019).
//
// The minimum cut problem asks for a bipartition of the vertices
// minimizing the total weight of crossing edges.
//
// # Snapshots: the primary API
//
// The unit of work is the Snapshot: an immutable graph plus
// lazily-computed, cached certificates (λ with a witness cut, the
// all-minimum-cuts cactus, graph statistics). Queries take a
// context.Context and check cancellation at phase boundaries (CAPFOREST
// rounds, Dinic augmentations, Karzanov–Timofeev steps); results are
// computed once and served from the cache afterwards, so a Snapshot can
// be shared by any number of concurrent queriers:
//
//	b := mincut.NewBuilder(4)
//	b.AddEdge(0, 1, 3)
//	b.AddEdge(1, 2, 1)
//	b.AddEdge(2, 3, 4)
//	b.AddEdge(3, 0, 2)
//	g, _ := b.Build()
//	snap := mincut.NewSnapshot(g, mincut.SnapshotOptions{})
//	cut, _ := snap.MinCut(ctx)
//	fmt.Println(cut.Value, cut.Side) // 3 [true true false false] (or the mirror)
//	all, _ := snap.AllMinCuts(ctx)   // cactus of every minimum cut, cached too
//
// A cancelled query returns ctx.Err() without poisoning the cache: the
// failed computation is not stored and the next query simply retries.
//
// Snapshots are versioned by mutation, not mutated in place.
// Snapshot.Apply takes a batch of edge insertions and deletions and
// returns a NEW snapshot (epoch+1) sharing nothing mutable with the old
// one; old snapshots remain valid forever, which is what makes the
// atomic epoch swap in a server (see cmd/mincutd) safe under live
// traffic. Apply carries cached certificates across the mutation
// whenever the invalidation rules prove them still valid, and reports
// what it kept in the Reused result:
//
//   - an inserted edge never lowers λ, so an insertion whose endpoints
//     lie in the same cactus node (Cactus.Crosses(u,v) == false, i.e. the
//     edge crosses no minimum cut) invalidates nothing: λ, witness and
//     cactus all carry over;
//   - an insertion that crosses some minimum cut keeps λ and any cached
//     witness cut the new edge does not cross, but drops the cactus (the
//     cut family shrinks to the cuts not crossed by the new edge);
//   - a deleted edge changes λ only if it crosses a minimum cut of the
//     new graph. Apply first tries to certify connectivity λ+w+1 between
//     the endpoints (a few CAPFOREST rounds, no full solve); on success
//     everything carries over. Failing that, if the deleted edge provably
//     crosses a cached minimum cut, the new value is exactly λ−w: cuts
//     separating the endpoints lose exactly w, all others keep weight
//     ≥ λ, so Apply carries λ−w with a separating cached cut as witness
//     (Reused.DeleteReuses counts these) and drops only the cactus. Only
//     when neither argument applies are the certificates dropped and the
//     next query recomputes.
//
// Apply validates the whole batch before touching any certificate:
// out-of-range vertex ids, non-positive insert weights, self-loop
// deletes and unknown ops fail with an error wrapping ErrInvalidMutation
// and leave the receiver untouched. (Deleting an edge that is not
// present is a graph-state error, reported separately.)
//
// The free functions Solve and AllMinCuts remain as convenience shims
// over a throwaway snapshot — one-shot calls with no caching and no
// cancellation. Everything below is reachable through either surface.
//
// # Solvers
//
// This library provides:
//
//   - the paper's engineered solver: bounded priority queues, parallel
//     CAPFOREST, parallel contraction and a VieCut bound computed on the
//     graph the first round leaves (Solve with AlgoParallel, the
//     default);
//   - the sequential Nagamochi–Ono–Ibaraki variants NOI-HNSS and NOIλ̂
//     with BStack/BQueue/Heap priority queues (AlgoNOI, AlgoNOIUnbounded);
//   - in both, a series reduction before every round: each maximal chain
//     of degree-2 vertices folds into its lightest edge, and the sum of
//     its two lightest edges is a candidate cut, so a cycle left after
//     contraction costs no CAPFOREST round, where a scan at λ̂ = 2 would
//     certify about one cycle edge per round;
//   - exact baselines: Hao–Orlin (AlgoHaoOrlin), Stoer–Wagner
//     (AlgoStoerWagner), Karger–Stein (AlgoKargerStein);
//   - the inexact VieCut algorithm (AlgoVieCut) and Matula's
//     (2+ε)-approximation (AlgoMatula);
//   - ALL minimum cuts and their cactus representation (AllMinCuts),
//     following the same authors' "Finding All Global Minimum Cuts in
//     Practice": λ from the parallel solver, an all-cuts-preserving
//     kernelization (CAPFOREST certificates strictly above λ), the
//     Karzanov–Timofeev enumeration over one shared residual network,
//     and assembly into the Dinitz–Karzanov–Lomonosov cactus;
//   - graph construction, METIS/edge-list/MatrixMarket I/O, k-core
//     preprocessing and the paper's workload generators (random
//     hyperbolic, RMAT, Barabási–Albert, G(n,m), planted cuts,
//     stochastic block model, Watts–Strogatz).
//
// Graphs are stored in a flat CSR/SoA layout (prefix offsets, neighbor
// and weight arrays); internal/graph exports the raw view as Graph.CSR
// and every hot scan — CAPFOREST, Dinic residual construction, the KT
// chain extraction, Stoer–Wagner's MA ordering, label propagation —
// iterates the flat arrays directly. Apply rebuilds the CSR from the
// delta in O(m + k log k) for a k-mutation batch rather than
// re-normalizing the full edge list. A real-instance benchmark corpus
// (internal/datasets: vendored small instances such as the karate club
// plus SuiteSparse instances resolved from $REPRO_DATASETS with SHA-256
// verification) ties benchmark numbers to named graphs; `cmd/bench
// -experiment solve` regenerates the BENCH_solve.json baseline over it,
// and `cmd/bench -experiment service` does the same for the snapshot
// cache and mutation layer (BENCH_service.json).
//
// All solvers return a witness side along with the value; witnesses
// always re-evaluate to the reported value. Disconnected graphs have
// minimum cut 0; graphs with fewer than two vertices have no cut and
// report value 0 with a nil witness.
//
// # All minimum cuts and the cactus
//
// AllMinCuts enumerates every global minimum cut (for a connected graph
// there are at most n(n-1)/2) and assembles the cactus: a graph over
// contracted node classes in which every edge lies on at most one cycle,
// tree edges carry weight λ, cycle edges λ/2, and every minimum cut is
// the removal of one tree edge or of two edges of the same cycle:
//
//	all, err := mincut.AllMinCuts(g, mincut.AllCutsOptions{})
//	fmt.Println(all.Lambda, all.NumCuts(), all.Cactus)
//
// The cuts are enumerated with the Karzanov–Timofeev recursion: kernel
// vertices are visited in an adjacency order, a residual network
// carries the flow state across steps (each step only augments, capped
// at λ, instead of running a from-scratch max flow), and the minimum
// cuts of each step form a nested chain read off the residual
// strongly-connected components — every cut found exactly once,
// O(n·m)-flavored overall. The steps shard across
// AllCutsOptions.Workers: each worker walks a contiguous segment of the
// adjacency order on its own residual network with the segment's prefix
// pre-absorbed as its contracted source, and the per-segment chains
// concatenate in step order, so the output is identical for every
// worker count. The cactus assembly groups crossing cuts in one
// size-ascending sweep instead of a pairwise crossing test.
// AllCutsOptions.NoMaterialize skips the Θ(C·n) materialized cut list;
// stream the cuts with Cactus.EachMinCut instead (cmd/mincut -all does
// this by default). EachMinCut walks the cactus with O(n) auxiliary
// state: duplicate cuts arising from empty cactus nodes are suppressed
// structurally (equivalence classes of edges through empty two-unit
// nodes), not by hashing emitted cuts.
//
// Beyond enumeration, the cactus answers structural queries:
// Cactus.Crosses(u, v) reports whether any minimum cut separates u from
// v (u and v map to different cactus nodes), which is exactly the
// invalidation predicate Snapshot.Apply uses.
//
// Disconnected graphs have exponentially many weight-0 cuts (any grouping
// of whole components); AllMinCuts reports Connected=false and the
// component count instead of materializing them.
//
// # Serving
//
// cmd/mincutd is an HTTP/JSON daemon over one shared snapshot: it loads
// a graph once, serves /mincut, /allcuts, /cutvalue and /stats from a
// bounded worker pool, and accepts POST /mutate batches that Apply a
// delta and atomically swap the published epoch — in-flight queries keep
// reading the epoch they started on.
//
// The serving layer (internal/serve) adds admission control and request
// coalescing in front of the worker pool: concurrent identical queries
// (same endpoint, epoch and parameters) share one computation, a bounded
// wait queue sheds overload with 429, and cancellation while queued
// returns 503. /stats reports per-endpoint requests, honest cache hits,
// coalesced counts, sheds and live inflight/queue-depth gauges. Invalid
// mutation batches map ErrInvalidMutation to 400, oversized bodies to
// 413 (-max-mutate-bytes), and the daemon keeps serving in every case.
//
// With -wal the daemon is restartable: every acknowledged /mutate batch
// is appended to a JSON-lines write-ahead log and fsync'd before the new
// epoch is published, a checkpoint of the full graph is written every
// -checkpoint-every epochs (atomic tmp+rename, then WAL truncation), and
// -restore replays checkpoint plus WAL tail on boot — resuming at the
// exact pre-crash epoch even after SIGKILL, cutting a torn final WAL
// record off the log so that later appends stay replayable
// (internal/persist).
//
// # Differential testing strategy
//
// Every exact solver is cross-checked against independent
// implementations and against exhaustive oracles (internal/verify): the
// property suites assert ParCut == NOI == Stoer–Wagner on random graphs
// from every generator, the Karzanov–Timofeev enumeration is compared
// cut-for-cut against a quadratic per-vertex Picard–Queyranne reference
// (kept in internal/cactus's tests) on 1000+ random, cycle,
// clique-chain and star-of-cycles instances (weighted and unweighted)
// and against the λ-pruned branch-and-bound all-cuts oracle up to
// n = 16, the cactus must re-encode exactly the enumerated cut set, and
// native fuzz targets (FuzzFromEdges, FuzzReadMatrixMarket, FuzzMinCut,
// cmd/mincutd's FuzzMutateHTTP, and internal/cactus's FuzzAllMinCuts)
// feed arbitrary edge lists, format bytes and mutation request bodies
// through the public API, the daemon's POST /mutate path and the
// all-cuts pipeline, asserting construction, parsing and mutation
// handling never panic, every reported value matches its recomputed
// witness, and the KT and quadratic enumerations agree on cut-set
// fingerprints. The real-instance suite
// (internal/datasets) additionally pins known minimum-cut values for the
// vendored corpus. The snapshot layer is additionally exercised by a
// race-detector test that hammers one snapshot from many goroutines
// while Apply swaps epochs, cross-checking every answer against a fresh
// solve.
package mincut
