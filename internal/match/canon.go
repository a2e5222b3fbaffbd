package match

import (
	"fmt"
	"math/bits"
	"slices"

	"planarsi/internal/graph"
)

// Pattern canonicalization: isomorphic patterns map to one canonical
// labeled form, so a batched scan can dedupe isomorphic members before
// dispatching DP sweeps. The algorithm is the classic
// individualize-and-refine scheme sized for k <= MaxK: iterated degree
// (1-WL color) refinement narrows the candidate orderings, backtracking
// individualizes one vertex of the first non-singleton color class at a
// time, and among the discrete colorings reached the lexicographically
// minimal adjacency encoding wins. Refinement, class selection and branching are all
// isomorphism-invariant, so isomorphic inputs explore isomorphic search
// trees and pick identical minimal encodings.
//
// A node budget bounds pathological backtracking (refinement-resistant
// inputs like complete graphs at k = 16): on exhaustion the identity
// labeling is encoded instead. That fallback is still sound for every
// consumer here — equal encodings are equal labeled graphs, hence
// isomorphic — it only forfeits dedupe hits between distinct labelings
// of such patterns.

// canonBudget caps the number of refinement passes one canonicalization
// may spend before falling back to the identity labeling.
const canonBudget = 4096

// canonAdj extracts the adjacency bitmasks of h (k <= MaxK assumed).
func canonAdj(h *graph.Graph) []uint16 {
	k := h.N()
	adj := make([]uint16, k)
	for u := int32(0); u < int32(k); u++ {
		for _, w := range h.Neighbors(u) {
			adj[u] |= 1 << uint(w)
		}
	}
	return adj
}

// canonSearch carries the individualize-and-refine state.
type canonSearch struct {
	k       int
	adj     []uint16
	budget  int
	haveBst bool
	best    [MaxK]uint16
	bestPos [MaxK]int8 // bestPos[orig vertex] = canonical position
}

// refine runs iterated color refinement until the partition is stable,
// returning false when the node budget ran out. colors is recolored in
// place with invariant color values 0..c-1 ordered by signature.
func (cs *canonSearch) refine(colors []int32) bool {
	k := cs.k
	type sig struct {
		old int32
		nbr [MaxK]int32 // sorted neighbor colors, padded with -1
		deg int
		v   int32
	}
	sigs := make([]sig, k)
	for {
		if cs.budget <= 0 {
			return false
		}
		cs.budget--
		for v := 0; v < k; v++ {
			s := sig{old: colors[v], v: int32(v)}
			for i := range s.nbr {
				s.nbr[i] = -1
			}
			for nb := cs.adj[v]; nb != 0; nb &= nb - 1 {
				s.nbr[s.deg] = colors[bits.TrailingZeros16(nb)]
				s.deg++
			}
			slices.Sort(s.nbr[:s.deg])
			sigs[v] = s
		}
		slices.SortFunc(sigs, func(a, b sig) int {
			if a.old != b.old {
				return int(a.old - b.old)
			}
			if a.deg != b.deg {
				return a.deg - b.deg
			}
			for i := 0; i < a.deg; i++ {
				if a.nbr[i] != b.nbr[i] {
					return int(a.nbr[i] - b.nbr[i])
				}
			}
			return 0
		})
		changed := false
		color := int32(0)
		for i, s := range sigs {
			if i > 0 {
				prev := sigs[i-1]
				same := prev.old == s.old && prev.deg == s.deg
				for j := 0; same && j < s.deg; j++ {
					same = prev.nbr[j] == s.nbr[j]
				}
				if !same {
					color++
				}
			}
			if colors[s.v] != color {
				changed = true
			}
			colors[s.v] = color
		}
		if !changed {
			return true
		}
	}
}

// leaf records a discrete coloring's adjacency encoding, keeping the
// lexicographically smallest seen so far.
func (cs *canonSearch) leaf(colors []int32) {
	var pos [MaxK]int8
	for v := 0; v < cs.k; v++ {
		pos[v] = int8(colors[v])
	}
	var rows [MaxK]uint16
	for v := 0; v < cs.k; v++ {
		var row uint16
		for nb := cs.adj[v]; nb != 0; nb &= nb - 1 {
			row |= 1 << uint(pos[bits.TrailingZeros16(nb)])
		}
		rows[pos[v]] = row
	}
	if cs.haveBst {
		for i := 0; i < cs.k; i++ {
			if rows[i] != cs.best[i] {
				if rows[i] < cs.best[i] {
					cs.best, cs.bestPos = rows, pos
				}
				return
			}
		}
		return
	}
	cs.haveBst = true
	cs.best, cs.bestPos = rows, pos
}

// search recursively individualizes the first non-singleton color class.
// colors must already be refined. Returns false on budget exhaustion.
func (cs *canonSearch) search(colors []int32) bool {
	k := cs.k
	// Find the smallest color value held by more than one vertex.
	var count [MaxK]int8
	for _, c := range colors {
		count[c]++
	}
	target := int32(-1)
	for c := 0; c < k; c++ {
		if count[c] > 1 {
			target = int32(c)
			break
		}
	}
	if target < 0 {
		cs.leaf(colors)
		return true
	}
	child := make([]int32, k)
	var branched []int
	for v := 0; v < k; v++ {
		if colors[v] != target {
			continue
		}
		// Orbit pruning: if swapping v with an already-branched class
		// member is an automorphism, v's subtree is the automorphic image
		// of that member's — same leaf encodings, so exploring it again
		// cannot improve the minimum. This collapses the search on
		// refinement-resistant symmetric patterns (stars, cliques) from
		// factorial to linear.
		skip := false
		for _, u := range branched {
			if cs.swapAutomorphism(u, v) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		branched = append(branched, v)
		for u := 0; u < k; u++ {
			switch {
			case u == v:
				child[u] = target
			case colors[u] >= target:
				child[u] = colors[u] + 1
			default:
				child[u] = colors[u]
			}
		}
		// Individualizing v split its class; colors[u] == target && u != v
		// all moved to target+1 together, so re-split them by refinement.
		if !cs.refine(child) || !cs.search(child) {
			return false
		}
	}
	return true
}

// swapAutomorphism reports whether the transposition (u v) is a graph
// automorphism: adj[u] and adj[v] map onto each other under the swap,
// and every other vertex is adjacent to both of u, v or to neither.
// Callers only ask about same-color vertices, so a true answer means
// the swap also preserves any refinement-stable coloring.
func (cs *canonSearch) swapAutomorphism(u, v int) bool {
	if swapBits(cs.adj[u], u, v) != cs.adj[v] {
		return false
	}
	for w := 0; w < cs.k; w++ {
		if w == u || w == v {
			continue
		}
		if (cs.adj[w]>>uint(u))&1 != (cs.adj[w]>>uint(v))&1 {
			return false
		}
	}
	return true
}

// swapBits exchanges bits u and v of the mask.
func swapBits(m uint16, u, v int) uint16 {
	bu := (m >> uint(u)) & 1
	bv := (m >> uint(v)) & 1
	if bu != bv {
		m ^= 1<<uint(u) | 1<<uint(v)
	}
	return m
}

// canonicalPositions returns pos with pos[v] = v's canonical position,
// and ok = false when the budget forced the identity fallback.
func canonicalPositions(h *graph.Graph) ([MaxK]int8, bool) {
	k := h.N()
	cs := &canonSearch{k: k, adj: canonAdj(h), budget: canonBudget}
	colors := make([]int32, k)
	if cs.refine(colors) && cs.search(colors) && cs.haveBst {
		return cs.bestPos, true
	}
	var ident [MaxK]int8
	for v := 0; v < k; v++ {
		ident[v] = int8(v)
	}
	return ident, false
}

// CanonicalKey returns the canonical form of the pattern h as an opaque
// comparable string: isomorphic patterns (with k <= MaxK vertices) map
// to equal keys, and equal keys always denote isomorphic patterns. For
// rare refinement-resistant patterns the search budget may force a
// labeling-exact key — still sound for dedup and cache keying, merely
// missing cross-labeling hits.
func CanonicalKey(h *graph.Graph) string {
	k := h.N()
	if k > MaxK {
		panic(fmt.Sprintf("match: pattern has %d vertices, max %d", k, MaxK))
	}
	pos, _ := canonicalPositions(h)
	adj := canonAdj(h)
	var rows [MaxK]uint16
	for v := 0; v < k; v++ {
		var row uint16
		for nb := adj[v]; nb != 0; nb &= nb - 1 {
			row |= 1 << uint(pos[bits.TrailingZeros16(nb)])
		}
		rows[pos[v]] = row
	}
	b := make([]byte, 1+2*k)
	b[0] = byte(k)
	for i := 0; i < k; i++ {
		b[1+2*i] = byte(rows[i])
		b[2+2*i] = byte(rows[i] >> 8)
	}
	return string(b)
}

// Canonicalize returns a canonically relabeled copy of the pattern h
// together with the relabeling: perm[v] is the canonical position of
// h's vertex v. Isomorphic patterns yield identical copies (adjacency
// equality), up to the CanonicalKey budget caveat.
func Canonicalize(h *graph.Graph) (*graph.Graph, []int32) {
	k := h.N()
	if k > MaxK {
		panic(fmt.Sprintf("match: pattern has %d vertices, max %d", k, MaxK))
	}
	pos, _ := canonicalPositions(h)
	perm := make([]int32, k)
	for v := 0; v < k; v++ {
		perm[v] = int32(pos[v])
	}
	b := graph.NewBuilder(k)
	for _, e := range h.Edges() {
		b.AddEdge(perm[e[0]], perm[e[1]])
	}
	return b.Build(), perm
}
