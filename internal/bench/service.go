package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	mincut "repro"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// ServiceMeasurement characterizes the snapshot/service layer on one
// instance: how much the certificate cache buys over cold solves, what a
// mutation costs to apply, and how often the invalidation rules manage
// to carry λ across a mutation. The collected slice is the
// BENCH_service.json baseline for cmd/mincutd's serving path.
type ServiceMeasurement struct {
	Instance string `json:"instance"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Lambda   int64  `json:"lambda"`
	// ColdQPS is fresh-snapshot MinCut throughput (every query solves).
	ColdQPS float64 `json:"cold_qps"`
	// CachedQPS is MinCut throughput against one warm snapshot.
	CachedQPS float64 `json:"cached_qps"`
	// CoalescedQPS is throughput when a herd of identical cold queries is
	// funneled through the HTTP-layer coalescer: one leader solves, the
	// rest share its answer. Sits between ColdQPS and CachedQPS.
	CoalescedQPS float64 `json:"coalesced_qps"`
	// ApplyMicros is the mean Apply latency over the mutation workload
	// (delete + re-insert rounds on random edges), certification included.
	ApplyMicros float64 `json:"apply_us"`
	// CacheHitRate is the fraction of post-mutation MinCut queries served
	// from a carried certificate (no recomputation).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Mutations is the number of Apply calls behind the two rates.
	Mutations int `json:"mutations"`
}

// serviceInstances is the workload: the vendored real instance plus two
// synthetic ones with very different cut structure (a sparse RHG
// component with λ from degree-1 fringes, and a ring with Θ(n²) minimum
// cuts where invalidation rarely saves anything).
func serviceInstances(s Scale) []Instance {
	var out []Instance
	for _, d := range datasets.All() {
		if !d.Vendored {
			continue
		}
		g, err := d.Load()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.Name, err)
			continue
		}
		out = append(out, Instance{Name: d.Name, G: g, Family: "real"})
	}
	rhg, _ := gen.RHG(1<<11, 1<<5, 5, s.Seed*7+3).LargestComponent()
	out = append(out, Instance{Name: "rhg_11_5", G: rhg, Family: "rhg"})
	out = append(out, Instance{Name: "ring_256", G: gen.Ring(256), Family: "ring"})
	return out
}

// ServiceBench measures the Snapshot serving layer: cold vs cached query
// throughput, Apply latency, and the certificate cache hit rate under a
// delete/re-insert mutation stream. Returns the rows for WriteJSON.
func ServiceBench(w io.Writer, s Scale) []ServiceMeasurement {
	header(w, "service: snapshot cache and mutation layer (cmd/mincutd serving path)")
	row(w, "instance", "n", "m", "lambda", "cold-qps", "coal-qps", "cached-qps", "apply-us", "hit-rate")
	ctx := context.Background()
	var out []ServiceMeasurement
	for _, inst := range serviceInstances(s) {
		if s.Cancelled() {
			fmt.Fprintln(w, "(interrupted: partial results above)")
			break
		}
		sm := ServiceMeasurement{Instance: inst.Name, N: inst.G.NumVertices(), M: inst.G.NumEdges()}

		// Cold: every query pays a full solve on a fresh snapshot.
		coldReps := s.Reps
		if coldReps < 2 {
			coldReps = 2
		}
		start := time.Now()
		for i := 0; i < coldReps; i++ {
			snap := mincut.NewSnapshot(inst.G, mincut.SnapshotOptions{Solve: mincut.Options{Seed: s.Seed + uint64(i)}})
			cut, err := snap.MinCut(ctx)
			if err != nil {
				panic(err)
			}
			sm.Lambda = cut.Value
		}
		sm.ColdQPS = float64(coldReps) / time.Since(start).Seconds()

		// Cached: one warm snapshot, repeated queries.
		warm := mincut.NewSnapshot(inst.G, mincut.SnapshotOptions{Solve: mincut.Options{Seed: s.Seed}})
		if _, err := warm.MinCut(ctx); err != nil {
			panic(err)
		}
		const cachedQueries = 1 << 12
		start = time.Now()
		for i := 0; i < cachedQueries; i++ {
			if _, err := warm.MinCut(ctx); err != nil {
				panic(err)
			}
		}
		sm.CachedQPS = float64(cachedQueries) / time.Since(start).Seconds()

		// Coalesced: a herd of identical queries hits a cold snapshot at
		// once. The coalescer elects one leader to solve; everyone else
		// rides along — the thundering-herd path in cmd/mincutd.
		const herd = 64
		coal := serve.NewCoalescer()
		coalReps := coldReps
		start = time.Now()
		for i := 0; i < coalReps; i++ {
			snap := mincut.NewSnapshot(inst.G, mincut.SnapshotOptions{Solve: mincut.Options{Seed: s.Seed + uint64(i)}})
			key := fmt.Sprintf("/mincut|%d|", i)
			var wg sync.WaitGroup
			for j := 0; j < herd; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := coal.Do(ctx, key, func() (serve.Response, error) {
						if _, err := snap.MinCut(ctx); err != nil {
							return serve.Response{Err: true}, err
						}
						return serve.Response{Status: 200}, nil
					}); err != nil {
						panic(err)
					}
				}()
			}
			wg.Wait()
		}
		sm.CoalescedQPS = float64(coalReps*herd) / time.Since(start).Seconds()

		// Mutation stream: delete + re-insert each sampled edge, querying
		// λ after every Apply. A query is a cache hit when the carried
		// certificate answered it (λ cached before the query ran).
		edges := sampleEdges(inst.G, 24)
		snap := warm
		var applyTotal time.Duration
		hits := 0
		for _, e := range edges {
			for _, m := range []mincut.Mutation{
				mincut.DeleteEdge(e.U, e.V),
				mincut.InsertEdge(e.U, e.V, e.Weight),
			} {
				start = time.Now()
				ns, _, err := snap.Apply(ctx, []mincut.Mutation{m})
				applyTotal += time.Since(start)
				if err != nil {
					panic(err)
				}
				snap = ns
				sm.Mutations++
				if _, ok := snap.LambdaCached(); ok {
					hits++
				}
				if _, err := snap.MinCut(ctx); err != nil {
					panic(err)
				}
			}
		}
		if sm.Mutations > 0 {
			sm.ApplyMicros = float64(applyTotal.Microseconds()) / float64(sm.Mutations)
			sm.CacheHitRate = float64(hits) / float64(sm.Mutations)
		}

		// The mutation walk must land back on the original graph.
		if got, _ := snap.MinCut(ctx); got.Value != sm.Lambda {
			panic(fmt.Sprintf("bench: %s: λ=%d after delete/re-insert walk, want %d", inst.Name, got.Value, sm.Lambda))
		}

		out = append(out, sm)
		row(w, sm.Instance, sm.N, sm.M, sm.Lambda, sm.ColdQPS, sm.CoalescedQPS, sm.CachedQPS, sm.ApplyMicros, sm.CacheHitRate)
	}
	return out
}

// sampleEdges picks up to k edges spread evenly over the edge stream.
func sampleEdges(g *graph.Graph, k int) []graph.Edge {
	m := g.NumEdges()
	if m == 0 {
		return nil
	}
	stride := m / k
	if stride < 1 {
		stride = 1
	}
	var out []graph.Edge
	i := 0
	g.ForEachEdge(func(u, v int32, w int64) {
		if i%stride == 0 && len(out) < k {
			out = append(out, graph.Edge{U: u, V: v, Weight: w})
		}
		i++
	})
	return out
}
