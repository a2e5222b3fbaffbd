package core

import (
	"planarsi/internal/graph"
)

// VerifyOccurrence checks that occ is an injective map from the vertices
// of h to the vertices of g realizing every edge of h — the definition of
// a subgraph isomorphism from Section 1.1. It is the independent safety
// net the tests and the public API apply to every reported occurrence.
func VerifyOccurrence(g, h *graph.Graph, occ Occurrence) bool {
	if len(occ) != h.N() {
		return false
	}
	seen := make(map[int32]struct{}, len(occ))
	for _, v := range occ {
		if v < 0 || int(v) >= g.N() {
			return false
		}
		if _, dup := seen[v]; dup {
			return false
		}
		seen[v] = struct{}{}
	}
	for _, e := range h.Edges() {
		if !g.HasEdge(occ[e[0]], occ[e[1]]) {
			return false
		}
	}
	return true
}

// VerifySeparating checks that occ is a valid occurrence of h in g AND
// that removing its image disconnects at least two vertices of s
// (Section 5.1's separating-subgraph condition). A mask s without
// exactly one entry per vertex of g verifies nothing.
func VerifySeparating(g, h *graph.Graph, s []bool, occ Occurrence) bool {
	return len(s) == g.N() && VerifyOccurrence(g, h, occ) && assignmentSeparates(g, s, occ)
}
