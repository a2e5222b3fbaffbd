// Package match implements the partial-match machinery of Section 3 of
// the paper: the states (φ, C, U) of the bounded-treewidth subgraph
// isomorphism dynamic program, the bottom-up sequential engine
// (Eppstein's algorithm in the simplified form of Section 3.2, phrased
// over a nice tree decomposition), the extended separating states
// (I, O, ix, ox) of Section 5.2.2, and the top-down reconstruction of
// occurrences from valid states (Section 4.2.1).
//
// A partial match at a decomposition node with bag B is (φ, C): φ maps a
// subset M of pattern vertices injectively onto bag slots, and C marks the
// pattern vertices "matched in a child", i.e. matched to target vertices
// that were forgotten strictly below. The remaining pattern vertices are
// unmatched (the paper's U is implicit). The number of states per node is
// at most (τ+3)^k, the base of the paper's work bound.
//
// Mapping decisions happen exactly at introduce nodes, C-transitions at
// forget nodes, and C-merging at join nodes; the transition rules below
// enforce the paper's consistency and compatibility conditions:
//
//   - introduce-map u→v: v allowed, no H-neighbor of u in C (such an edge
//     could never be realized: the neighbor's image was forgotten and
//     shares no future bag with v), and every H-neighbor in M maps to a
//     G-neighbor of v (edge realization);
//   - forget of v with φ(u)=v: every H-neighbor of u must be in M ∪ C,
//     otherwise the edge to a still-unmatched neighbor could never be
//     realized once v leaves the bag;
//   - join: equal φ on the shared bag, disjoint C sets, and no H-edge
//     between the two C sets (images live in disjoint forgotten regions).
//
// In separating mode (Section 5.2.2) every bag vertex not mapped onto
// carries an inside/outside label; G-edges between two unmapped bag
// vertices force equal labels, labels agree across joins, and the booleans
// ix/ox remember whether some vertex of S was labeled inside/outside. A
// valid root state must have both, certifying that the occurrence
// separates S. Swapping the two sides (mirror) maps valid states to valid
// states and commutes with every transition, so separating node sets
// store one representative per mirror pair (pairRep); Enumerate reads
// them back through the same quotient.
package match

import (
	"fmt"
	"unsafe"

	"planarsi/internal/graph"
)

// MaxK caps the pattern size; states embed a fixed-size slot array so they
// can serve as map keys.
const MaxK = 16

// MaxBag caps bag sizes (slot label masks are uint32).
const MaxBag = 32

// State is a partial match. Phi[u] is the bag slot pattern vertex u maps
// to (-1 when unmatched or in C); C is the matched-in-a-child bitmask.
// In/Out are bag-slot masks carrying the separating labels, and IX/OX the
// "S seen inside/outside" booleans; all four stay zero in plain mode.
type State struct {
	Phi     [MaxK]int8
	C       uint16
	In, Out uint32
	IX, OX  bool
}

// StateBytes is the in-memory size of one State, the unit the cost
// accounting uses to price states read and written (an estimate of
// bytes touched, not allocator truth).
const StateBytes = int64(unsafe.Sizeof(State{}))

// emptyState returns the all-unmatched state.
func emptyState() State {
	var s State
	for i := range s.Phi {
		s.Phi[i] = -1
	}
	return s
}

// EmptyState returns the trivial all-unmatched partial match (the state of
// every leaf node; always valid).
func EmptyState() State { return emptyState() }

// MMask returns the bitmask of mapped pattern vertices.
func (s *State) MMask(k int) uint16 {
	var m uint16
	for u := 0; u < k; u++ {
		if s.Phi[u] >= 0 {
			m |= 1 << u
		}
	}
	return m
}

// OccupiedSlots returns the bitmask of bag slots that are images of
// mapped pattern vertices.
func (s *State) OccupiedSlots(k int) uint32 {
	var m uint32
	for u := 0; u < k; u++ {
		if s.Phi[u] >= 0 {
			m |= 1 << uint(s.Phi[u])
		}
	}
	return m
}

// mirror swaps the inside and outside sides of a separating state: In
// with Out and IX with OX. Every separating transition commutes with it
// and acceptance (IX && OX) is invariant under it, so a node's valid set
// is closed under mirror and the DP only needs one member of each pair.
func mirror(s State) State {
	s.In, s.Out = s.Out, s.In
	s.IX, s.OX = s.OX, s.IX
	return s
}

// pairRep returns the member of s's mirror pair that separating node sets
// store: the one whose highest label bit is inside (In > Out, the masks
// being disjoint), and without labels the one that does not have OX
// alone. pairRep(mirror(s)) == pairRep(s) for every state.
func pairRep(s State) State {
	if s.In < s.Out || (s.In == s.Out && s.OX && !s.IX) {
		return mirror(s)
	}
	return s
}

// String renders a state compactly for debugging.
func (s State) String() string {
	return fmt.Sprintf("state{phi=%v C=%b in=%b out=%b ix=%v ox=%v}", s.Phi[:4], s.C, s.In, s.Out, s.IX, s.OX)
}

// patternInfo precomputes adjacency bitmasks of the pattern graph.
type patternInfo struct {
	k   int
	adj []uint16 // adj[u] = bitmask of H-neighbors of u
}

func newPatternInfo(h *graph.Graph) patternInfo {
	k := h.N()
	if k > MaxK {
		panic(fmt.Sprintf("match: pattern has %d vertices, max %d", k, MaxK))
	}
	adj := make([]uint16, k)
	for u := int32(0); u < int32(k); u++ {
		for _, w := range h.Neighbors(u) {
			adj[u] |= 1 << uint(w)
		}
	}
	return patternInfo{k: k, adj: adj}
}

// allMatched returns the C mask meaning "every pattern vertex matched".
func (p *patternInfo) allMatched() uint16 {
	return uint16((1 << p.k) - 1)
}
