package flow

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bfsOrder returns a BFS vertex order from root: every vertex is adjacent
// to some earlier vertex, the KT adjacency-order requirement.
func bfsOrder(g *graph.Graph, root int32) []int32 {
	n := g.NumVertices()
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	seen[root] = true
	order = append(order, root)
	for head := 0; head < len(order); head++ {
		for _, w := range g.Neighbors(order[head]) {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	return order
}

// contractPrefix builds the graph with order[0..i-1] merged into one
// vertex (id 0) and returns it plus the map from original to contracted
// ids.
func contractPrefix(g *graph.Graph, order []int32, i int) (*graph.Graph, []int32) {
	n := g.NumVertices()
	labels := make([]int32, n)
	inPrefix := make([]bool, n)
	for _, v := range order[:i] {
		inPrefix[v] = true
	}
	next := int32(1)
	for v := 0; v < n; v++ {
		if inPrefix[v] {
			labels[v] = 0
		} else {
			labels[v] = next
			next++
		}
	}
	return g.Contract(graph.NewMappingFromLabels(labels)), labels
}

// TestProgressiveMatchesScratchFlows drives the KT step sequence on
// random connected graphs and checks every per-step max-flow value
// against a from-scratch Dinic on the prefix-contracted graph.
func TestProgressiveMatchesScratchFlows(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range []int{5, 9, 14} {
			g := gen.ConnectedGNM(n, 2*n, seed*97+uint64(n))
			order := bfsOrder(g, 0)
			if len(order) != n {
				t.Fatalf("graph not connected")
			}
			p := NewProgressive(g, 0)
			for i := 1; i < n; i++ {
				if i > 1 {
					p.AbsorbSources(order[i-1 : i])
				}
				tgt := order[i]
				cg, labels := contractPrefix(g, order, i)
				want, _ := minSTCut(cg, 0, labels[tgt])
				got, _ := p.MaxFlowTo(context.Background(), tgt, want) // cap = exact value: must reach it
				if got != want {
					t.Fatalf("seed %d n %d step %d: progressive flow %d, scratch %d", seed, n, i, got, want)
				}
			}
		}
	}
}

// TestProgressiveCapAborts checks the early-abort contract: with a cap
// below the true value the call reports a value strictly above the cap,
// and a later exact call on the same network still works.
func TestProgressiveCapAborts(t *testing.T) {
	g := gen.Complete(6) // min s-t cut = 5 for every pair
	p := NewProgressive(g, 0)
	if v, _ := p.MaxFlowTo(context.Background(), 1, 2); v <= 2 {
		t.Fatalf("capped flow reported %d, want > 2", v)
	}
	p.AbsorbSources([]int32{1})
	// S={0,1} vs vertex 2 in K_6: the minimum cut isolates {2} (5 unit
	// edges). The aborted step must not have corrupted the residual state.
	if v, _ := p.MaxFlowTo(context.Background(), 2, 100); v != 5 {
		t.Fatalf("post-abort exact flow reported %d, want 5", v)
	}
}

// TestProgressiveChainMatchesSTEnum compares the chain extraction with
// STEnum's general enumeration on the prefix-contracted graph, for steps
// whose cut value equals the global minimum (the KT use case).
func TestProgressiveChainMatchesSTEnum(t *testing.T) {
	checked := 0
	for seed := uint64(1); seed <= 25; seed++ {
		for _, n := range []int{6, 10, 13} {
			g := gen.ConnectedGNM(n, n+int(seed%uint64(n)), seed*131+uint64(n))
			lambda, _ := HaoOrlin(g)
			order := bfsOrder(g, 0)
			p := NewProgressive(g, 0)
			for i := 1; i < n; i++ {
				if i > 1 {
					p.AbsorbSources(order[i-1 : i])
				}
				tgt := order[i]
				v, _ := p.MaxFlowTo(context.Background(), tgt, lambda)
				if v < lambda {
					t.Fatalf("seed %d: step value %d below λ=%d", seed, v, lambda)
				}
				if v > lambda {
					continue
				}
				// Collect chain t-sides, checking the incremental deltas
				// reconstruct each side from its predecessor.
				var chain [][]bool
				var fromDelta []bool
				count, err := p.ChainCuts(tgt, func(side []bool, added []int32) bool {
					cp := make([]bool, len(side))
					copy(cp, side)
					chain = append(chain, cp)
					if added == nil {
						fromDelta = append([]bool(nil), side...)
					} else {
						for _, v := range added {
							fromDelta[v] = true
						}
					}
					for x := range side {
						if side[x] != fromDelta[x] {
							t.Fatalf("seed %d step %d: delta reconstruction differs at vertex %d", seed, i, x)
						}
					}
					return true
				})
				if err != nil {
					t.Fatalf("seed %d n %d step %d: %v", seed, n, i, err)
				}
				if count != len(chain) {
					t.Fatalf("count %d != emitted %d", count, len(chain))
				}
				// Chain must be strictly nested, every side containing the
				// target and no source-set vertex, and every side a cut of
				// value λ.
				for j, side := range chain {
					if !side[tgt] {
						t.Fatalf("chain side %d misses target", j)
					}
					for _, s := range order[:i] {
						if side[s] {
							t.Fatalf("chain side %d contains source %d", j, s)
						}
					}
					var val int64
					g.ForEachEdge(func(u, v int32, w int64) {
						if side[u] != side[v] {
							val += w
						}
					})
					if val != lambda {
						t.Fatalf("chain side %d evaluates to %d, want %d", j, val, lambda)
					}
					if j > 0 {
						grew := false
						for x := range side {
							if chain[j-1][x] && !side[x] {
								t.Fatalf("chain sides %d, %d not nested", j-1, j)
							}
							if side[x] && !chain[j-1][x] {
								grew = true
							}
						}
						if !grew {
							t.Fatalf("chain sides %d, %d identical", j-1, j)
						}
					}
				}
				// Cross-check the cut count against STEnum on the
				// contracted graph.
				cg, labels := contractPrefix(g, order, i)
				e := NewSTEnum(cg, 0, labels[tgt])
				if e.Value() != lambda {
					t.Fatalf("contracted value %d != λ %d", e.Value(), lambda)
				}
				if want := e.Count(0); want != len(chain) {
					t.Fatalf("seed %d n %d step %d: chain has %d cuts, STEnum %d", seed, n, i, len(chain), want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no λ-valued steps exercised")
	}
	t.Logf("verified %d KT steps against STEnum", checked)
}
