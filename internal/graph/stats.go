package graph

// BFSDistances returns the unweighted BFS distance from src to every
// vertex (-1 = unreachable), a helper for diameter estimates and tests.
func (g *Graph) BFSDistances(src int32) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum BFS distance from src within its
// component.
func (g *Graph) Eccentricity(src int32) int32 {
	var ecc int32
	for _, d := range g.BFSDistances(src) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// PseudoDiameter estimates the diameter with the double-sweep heuristic:
// BFS from src, then BFS from the farthest vertex found. The result is a
// lower bound on the true diameter.
func (g *Graph) PseudoDiameter(src int32) int32 {
	if g.NumVertices() == 0 {
		return 0
	}
	dist := g.BFSDistances(src)
	far := src
	for v, d := range dist {
		if d > dist[far] {
			far = int32(v)
		}
	}
	return g.Eccentricity(far)
}
