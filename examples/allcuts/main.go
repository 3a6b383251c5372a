// All-minimum-cuts reliability analysis — the scenario that motivates the
// cactus subsystem. A single witness (examples/reliability) tells you ONE
// most-likely disconnection event; hardening just those links is futile
// when other cuts of the same weight remain. Enumerating every minimum
// cut answers the questions operators actually ask:
//
//   - how many distinct weakest failure modes does the network have?
//   - which links participate in every one of them (true bottlenecks,
//     where one upgrade raises the connectivity of the whole network)?
//   - how many links must be reinforced before λ increases at all?
//
// The topology is a ring of dense availability zones joined by redundant
// inter-zone trunks — exactly the shape where minimum cuts are numerous
// (every pair of trunk groups is one) and where the cactus collapses the
// n(n-1)/2 cuts into a single cycle.
package main

import (
	"fmt"
	"log"

	mincut "repro"
)

func main() {
	const (
		zones    = 8  // availability zones arranged in a ring
		zoneSize = 12 // routers per zone
		seed     = 7
	)

	// Dense zones (weight-10 intra-zone mesh edges, randomly thinned),
	// consecutive zones joined by two weight-1 trunks.
	b := mincut.NewBuilder(zones * zoneSize)
	id := func(z, i int) int32 { return int32(z*zoneSize + i) }
	rng := seed
	for z := 0; z < zones; z++ {
		for i := 0; i < zoneSize; i++ {
			for j := i + 1; j < zoneSize; j++ {
				rng = rng*1103515245 + 12345
				if (rng>>16)%3 != 0 { // keep ~2/3 of the mesh
					b.AddEdge(id(z, i), id(z, j), 10)
				}
			}
		}
		next := (z + 1) % zones
		b.AddEdge(id(z, 0), id(next, 1), 1)
		b.AddEdge(id(z, 2), id(next, 3), 1)
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d routers, %d links in %d zones\n",
		g.NumVertices(), g.NumEdges(), zones)

	all, err := mincut.AllMinCuts(g, mincut.AllCutsOptions{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	if !all.Connected {
		log.Fatal("network disconnected")
	}
	fmt.Printf("edge connectivity λ: %d\n", all.Lambda)
	fmt.Printf("distinct weakest failure modes: %d (kernel: %d zones)\n",
		all.NumCuts(), all.KernelVertices)
	c := all.Cactus
	fmt.Printf("cactus: %d nodes, %d tree edges, %d cycles — %d cuts in O(n) space\n",
		c.NumNodes, c.NumTreeEdges(), c.NumCycles, c.CountCuts())

	// Per-link criticality: the fraction of minimum cuts a link crosses.
	type link struct{ u, v int32 }
	crossings := map[link]int{}
	for _, side := range all.Cuts {
		g.ForEachEdge(func(u, v int32, w int64) {
			if side[u] != side[v] {
				crossings[link{u, v}]++
			}
		})
	}
	inAll, inSome := 0, 0
	for _, n := range crossings {
		inSome++
		if n == all.NumCuts() {
			inAll++
		}
	}
	fmt.Printf("\nlinks participating in at least one weakest failure mode: %d\n", inSome)
	fmt.Printf("links participating in EVERY weakest failure mode: %d\n", inAll)
	if inAll > 0 {
		fmt.Println("=> upgrading any one of those links raises the connectivity of the whole network")
	} else {
		// No single upgrade helps; a hitting set over the cuts is needed.
		// Greedy: repeatedly reinforce the link crossing the most
		// still-unprotected cuts.
		remaining := make([][]bool, len(all.Cuts))
		copy(remaining, all.Cuts)
		reinforced := 0
		for len(remaining) > 0 {
			best, bestHits := link{}, 0
			counts := map[link]int{}
			for _, side := range remaining {
				g.ForEachEdge(func(u, v int32, w int64) {
					if side[u] != side[v] {
						l := link{u, v}
						counts[l]++
						if counts[l] > bestHits {
							best, bestHits = l, counts[l]
						}
					}
				})
			}
			var keep [][]bool
			for _, side := range remaining {
				if side[best.u] == side[best.v] {
					keep = append(keep, side)
				}
			}
			remaining = keep
			reinforced++
		}
		fmt.Printf("=> no single link helps; a greedy reinforcement plan touches %d links before λ can rise\n",
			reinforced)
	}

	// Sanity: the cactus must validate and re-encode the cut set.
	if err := c.Validate(g); err != nil {
		log.Fatalf("cactus validation failed: %v", err)
	}
	fmt.Println("\ncactus validated: every encoded cut evaluates to λ")
}
