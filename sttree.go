package mincut

import (
	"context"

	"repro/internal/flow"
)

// FlowTree answers minimum s-t cut *value* queries for every vertex pair
// after n-1 max-flow computations (a Gomory–Hu flow-equivalent tree in
// Gusfield's contraction-free construction). The global minimum cut is
// the lightest tree edge.
type FlowTree = flow.FlowTree

// BuildFlowTree constructs the flow-equivalent tree of g.
func BuildFlowTree(g *Graph) *FlowTree { return flow.GusfieldTree(g) }

// MinSTCut returns the minimum cut value separating s and t and a witness
// side containing s, via Dinic max-flow. s and t must be distinct
// vertices of g; MinSTCut panics otherwise. Snapshot.STMinCut reports
// invalid terminals as an error instead.
func MinSTCut(g *Graph, s, t int32) (int64, []bool) {
	v, side, err := flow.MinSTCut(context.Background(), g, s, t)
	if err != nil {
		panic(err)
	}
	return v, side
}
