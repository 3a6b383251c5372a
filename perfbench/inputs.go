package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"

	mincut "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/persist"
)

// sizes fixes the input size of every workload. fullSizes is what the
// benchmark measures and what fingerprints.json records; the self-tests
// use smaller ones.
type sizes struct {
	SolveLog   int // log2 of the vertex count of the solve RHG
	ServeLog   int // log2 of the vertex count of the serve RHG
	Cliques    int // number of cliques in the allcuts ring
	CliqueSize int // vertices per clique
}

var fullSizes = sizes{SolveLog: 16, ServeLog: 13, Cliques: 512, CliqueSize: 16}

// RHG parameters of the paper's Figure 2 family.
const (
	rhgAvgDeg = 32
	rhgBeta   = 5
)

// fingerprintSeeds is the number of input seeds fingerprints.json
// records. Workload seeds are folded onto this range, so every run's
// inputs are checked against a recorded fingerprint.
const fingerprintSeeds = 128

// input is one workload's generated graph plus what the checks need.
type input struct {
	g *graph.Graph
	// cliqueOf maps every vertex of the allcuts ring to its clique's
	// position on the ring; nil for the RHG inputs.
	cliqueOf []int32
}

// mix is splitmix64's finalizer, used to derive independent seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// inputSeed folds a workload seed onto the recorded range.
func inputSeed(seed uint64) uint64 { return seed % fingerprintSeeds }

// opSeed is the solver seed of op i of a run with the given seed.
func opSeed(seed uint64, i int) uint64 { return mix(mix(seed) + uint64(i)) }

// buildInput returns a workload's input for an input seed. Every
// workload has one graph, whose vertex ids the input seed permutes: a
// fresh seed is a real re-test, while n, m, δ and λ, and so the work an
// op does, stay the same from seed to seed.
func buildInput(workload string, sz sizes, inSeed uint64) input {
	switch workload {
	case "solve":
		return input{g: permuted(largestRHG(sz.SolveLog, mix(0)), mix(inSeed+3<<32))}
	case "serve":
		return input{g: permuted(largestRHG(sz.ServeLog, mix(1<<32)), mix(inSeed+4<<32))}
	case "allcuts":
		return ringOfCliques(sz.Cliques, sz.CliqueSize, mix(inSeed+2<<32))
	}
	panic("unknown workload " + workload)
}

func largestRHG(logN int, seed uint64) *graph.Graph {
	g, _ := gen.RHG(1<<logN, rhgAvgDeg, rhgBeta, seed).LargestComponent()
	return g
}

// permuted returns g with its vertex ids permuted by the seed.
func permuted(g *graph.Graph, seed uint64) *graph.Graph {
	perm := gen.NewRNG(seed).Perm(g.NumVertices())
	b := graph.NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v int32, w int64) { b.AddEdge(perm[u], perm[v], w) })
	return b.MustBuild()
}

// ringOfCliques joins k cliques of s vertices into a ring by single
// edges, with vertex ids permuted by the seed. λ = 2, every minimum cut
// removes two ring edges, so there are k(k-1)/2 of them; the
// kernelization contracts each clique to one vertex and the cactus is
// one k-cycle of cliques.
func ringOfCliques(k, s int, seed uint64) input {
	perm := gen.NewRNG(seed).Perm(k * s)
	cliqueOf := make([]int32, k*s)
	b := graph.NewBuilder(k * s)
	for c := 0; c < k; c++ {
		for i := 0; i < s; i++ {
			cliqueOf[perm[c*s+i]] = int32(c)
			for j := i + 1; j < s; j++ {
				b.AddEdge(perm[c*s+i], perm[c*s+j], 1)
			}
		}
		b.AddEdge(perm[c*s+s-1], perm[(c+1)%k*s], 1)
	}
	return input{g: b.MustBuild(), cliqueOf: cliqueOf}
}

// fingerprint pins an input, so a generator change cannot quietly move
// a workload.
type fingerprint struct {
	N      int    `json:"n"`
	M      int    `json:"m"`
	Delta  int64  `json:"delta"`
	Lambda int64  `json:"lambda"`
	Hash   string `json:"hash"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("n=%d m=%d delta=%d lambda=%d edges-fnv64=%s", f.N, f.M, f.Delta, f.Lambda, f.Hash)
}

// fingerprintOf hashes the edge list (u < v, CSR order) with FNV-1a.
func fingerprintOf(g *graph.Graph, lambda int64) fingerprint {
	h := fnv.New64a()
	var buf [16]byte
	put := func(b []byte, x uint64, n int) {
		for i := 0; i < n; i++ {
			b[i] = byte(x >> (8 * i))
		}
	}
	g.ForEachEdge(func(u, v int32, w int64) {
		put(buf[0:], uint64(uint32(u)), 4)
		put(buf[4:], uint64(uint32(v)), 4)
		put(buf[8:], uint64(w), 8)
		h.Write(buf[:])
	})
	_, delta := g.MinDegreeVertex()
	return fingerprint{N: g.NumVertices(), M: g.NumEdges(), Delta: delta, Lambda: lambda,
		Hash: fmt.Sprintf("%016x", h.Sum64())}
}

// fingerprintFile is the recorded fingerprint of every workload input
// for input seeds 0..fingerprintSeeds-1, written by -record.
type fingerprintFile struct {
	Sizes  sizes                    `json:"sizes"`
	Inputs map[string][]fingerprint `json:"inputs"`
}

//go:embed fingerprints.json
var recorded embed.FS

// recordedFingerprint returns the fingerprint fingerprints.json holds
// for the workload's input at inSeed.
func recordedFingerprint(workload string, inSeed uint64) (fingerprint, error) {
	b, err := recorded.ReadFile("fingerprints.json")
	if err != nil {
		return fingerprint{}, err
	}
	var f fingerprintFile
	if err := json.Unmarshal(b, &f); err != nil {
		return fingerprint{}, fmt.Errorf("fingerprints.json: %w", err)
	}
	if f.Sizes != fullSizes {
		return fingerprint{}, fmt.Errorf("fingerprints.json records sizes %+v, benchmark uses %+v", f.Sizes, fullSizes)
	}
	fs := f.Inputs[workload]
	if inSeed >= uint64(len(fs)) {
		return fingerprint{}, fmt.Errorf("fingerprints.json has no %s input for seed %d", workload, inSeed)
	}
	return fs[inSeed], nil
}

// writeStream generates the write traffic: batches of 8 mutations that
// delete 4 present edges and re-insert the 4 the previous batch deleted,
// so no batch is a net no-op. Every fourth batch deletes an edge at a
// minimum-degree vertex, which lowers λ; that batch or the next, which
// re-inserts the edge, usually drops the cached λ, so the next read
// re-solves. The other deletions are ordinary edges: on an RHG input,
// edges between high-degree vertices, which CAPFOREST can usually
// certify; on the ring of cliques, edges inside a clique, so that no
// deletion touches the ring and λ stays 2.
type writeStream struct {
	ordinary []graph.Edge
	minDeg   []graph.Edge
	rng      *gen.RNG
	deleted  []graph.Edge // deleted by the last batch, re-inserted by the next
	batches  [][]mincut.Mutation
}

const (
	batchDeletes  = 4
	minDegreeEach = 4 // every minDegreeEach-th batch touches a minimum-degree vertex
)

// newWriteStream draws the first deletion set, which the benchmark
// removes before serving, so that batch 0 has edges to re-insert.
func newWriteStream(in input, seed uint64) *writeStream {
	g := in.g
	edges := g.Edges()
	_, delta := g.MinDegreeVertex()
	low := make([]int, len(edges))
	for i, e := range edges {
		low[i] = min(g.Degree(e.U), g.Degree(e.V))
	}
	sorted := slices.Clone(low)
	slices.Sort(sorted)
	floor := max(sorted[len(sorted)/2], int(delta)+1)
	ordinary := func(i int, e graph.Edge) bool {
		if in.cliqueOf != nil {
			return in.cliqueOf[e.U] == in.cliqueOf[e.V]
		}
		return low[i] >= floor
	}
	w := &writeStream{rng: gen.NewRNG(seed)}
	for i, e := range edges {
		if ordinary(i, e) {
			w.ordinary = append(w.ordinary, e)
		}
		if g.WeightedDegree(e.U) == delta || g.WeightedDegree(e.V) == delta {
			w.minDeg = append(w.minDeg, e)
		}
	}
	if len(w.ordinary) < 4*batchDeletes {
		w.ordinary = edges
	}
	w.deleted = w.pick(nil, false)
	return w
}

func (w *writeStream) pick(avoid []graph.Edge, touchMinDegree bool) []graph.Edge {
	out := make([]graph.Edge, 0, batchDeletes)
	taken := func(e graph.Edge) bool { return slices.Contains(avoid, e) || slices.Contains(out, e) }
	if touchMinDegree && len(w.minDeg) > 0 {
		for tries := 0; tries < 64 && len(out) == 0; tries++ {
			if e := w.minDeg[w.rng.Intn(len(w.minDeg))]; !taken(e) {
				out = append(out, e)
			}
		}
	}
	for len(out) < batchDeletes {
		if e := w.ordinary[w.rng.Intn(len(w.ordinary))]; !taken(e) {
			out = append(out, e)
		}
	}
	return out
}

// base returns g without the initial deletion set: the graph the writes
// start from.
func (w *writeStream) base(g *graph.Graph) (*graph.Graph, error) {
	del := make([][2]int32, len(w.deleted))
	for i, e := range w.deleted {
		del[i] = [2]int32{e.U, e.V}
	}
	return graph.ApplyDelta(g, nil, del)
}

// next returns the next batch and remembers it for replays.
func (w *writeStream) next() []mincut.Mutation {
	i := len(w.batches)
	cur := w.pick(w.deleted, i%minDegreeEach == minDegreeEach-1)
	batch := make([]mincut.Mutation, 0, 2*batchDeletes)
	for _, e := range cur {
		batch = append(batch, mincut.DeleteEdge(e.U, e.V))
	}
	for _, e := range w.deleted {
		batch = append(batch, mincut.InsertEdge(e.U, e.V, e.Weight))
	}
	w.deleted = cur
	w.batches = append(w.batches, batch)
	return batch
}

// wire converts a batch to the /mutate and WAL wire form.
func wire(batch []mincut.Mutation) []persist.Mutation {
	out := make([]persist.Mutation, len(batch))
	for i, m := range batch {
		out[i] = persist.Mutation{Op: m.Op.String(), U: m.U, V: m.V}
		if m.Op == mincut.MutInsert {
			out[i].Weight = m.Weight
		}
	}
	return out
}
