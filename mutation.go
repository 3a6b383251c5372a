package mincut

import (
	"errors"
	"fmt"
)

// MutationOp is the kind of a single graph mutation.
type MutationOp int

const (
	// MutInsert adds an undirected edge (aggregating onto an existing
	// edge's weight, mirroring FromEdges).
	MutInsert MutationOp = iota
	// MutDelete removes an existing undirected edge entirely, whatever its
	// aggregated weight.
	MutDelete
)

// String names the operation.
func (op MutationOp) String() string {
	switch op {
	case MutInsert:
		return "insert"
	case MutDelete:
		return "delete"
	default:
		return fmt.Sprintf("MutationOp(%d)", int(op))
	}
}

// Mutation is one edge insertion or deletion in a Snapshot.Apply batch.
// Mutations are applied in order; a delete followed by an insert of the
// same pair replaces the edge.
type Mutation struct {
	Op     MutationOp
	U, V   int32
	Weight int64 // insert weight; ignored for deletes
}

// InsertEdge returns a mutation adding edge {u,v} with weight w (> 0).
func InsertEdge(u, v int32, w int64) Mutation {
	return Mutation{Op: MutInsert, U: u, V: v, Weight: w}
}

// DeleteEdge returns a mutation removing the edge {u,v}, which must
// exist when the mutation is applied.
func DeleteEdge(u, v int32) Mutation {
	return Mutation{Op: MutDelete, U: u, V: v}
}

// ErrInvalidMutation is wrapped by every error Snapshot.Apply returns
// for a structurally invalid batch (unknown op, vertex out of range,
// non-positive insert weight, self-loop delete). Servers map it to a
// client error (HTTP 400); it is always detected before any graph or
// certificate work, so a rejected batch has no effect.
var ErrInvalidMutation = errors.New("invalid mutation")

// validate checks the structural rules a mutation must satisfy against
// a graph of n vertices: a known op, both endpoints in [0,n), strictly
// positive weight for inserts, and no self-loop deletes (self-loop
// inserts are permitted no-ops, mirroring FromEdges). Whether a deleted
// edge exists depends on the graph state at its position in the batch
// and is checked during application, not here.
func (m Mutation) validate(i, n int) error {
	switch m.Op {
	case MutInsert, MutDelete:
	default:
		return fmt.Errorf("mincut: mutation %d has unknown op %d: %w", i, int(m.Op), ErrInvalidMutation)
	}
	if m.U < 0 || int(m.U) >= n || m.V < 0 || int(m.V) >= n {
		return fmt.Errorf("mincut: mutation %d %s(%d,%d) out of range [0,%d): %w",
			i, m.Op, m.U, m.V, n, ErrInvalidMutation)
	}
	if m.Op == MutInsert && m.Weight <= 0 {
		return fmt.Errorf("mincut: mutation %d insert(%d,%d) has non-positive weight %d: %w",
			i, m.U, m.V, m.Weight, ErrInvalidMutation)
	}
	if m.Op == MutDelete && m.U == m.V {
		return fmt.Errorf("mincut: mutation %d deletes self loop (%d,%d): %w", i, m.U, m.V, ErrInvalidMutation)
	}
	return nil
}

// errMissingEdge reports that mutation i deletes an edge absent from the
// graph at its position in the batch. It is a graph-state error, so it
// does not wrap ErrInvalidMutation.
func errMissingEdge(i int, m Mutation) error {
	return fmt.Errorf("mincut: mutation %d deletes nonexistent edge (%d,%d)", i, m.U, m.V)
}

// Reused reports which of a snapshot's cached certificates Apply proved
// still valid and carried into the new snapshot, so callers (and tests)
// can tell a certificate-preserving mutation from one that forces
// recomputation.
type Reused struct {
	// Lambda reports that the minimum-cut value and witness were carried
	// over without recomputation.
	Lambda bool `json:"lambda"`
	// Cactus reports that the entire all-minimum-cuts result (cut family
	// and cactus) was carried over without recomputation.
	Cactus bool `json:"cactus"`
	// DeleteReuses counts deletions answered by the λ−w rule: the deleted
	// edge provably crossed a cached minimum cut, so the new value λ−w
	// and that crossing witness were carried instead of recomputing.
	// Each such deletion also leaves Lambda true (the cactus is dropped —
	// the surviving cut family is unknown).
	DeleteReuses int `json:"delete_reuses"`
	// CertifyCalls counts the CAPFOREST connectivity-certification probes
	// run by the deletion rule.
	CertifyCalls int `json:"certify_calls"`
	// Rebuilds counts the CSR rebuilds performed. Mutations are batched:
	// the CSR is rebuilt before each certification probe, before a delete
	// that follows a queued insert, and once at the end, so a batch costs
	// at most CertifyCalls+1 rebuilds plus one per insert run that a
	// delete follows.
	Rebuilds int `json:"rebuilds"`
}
