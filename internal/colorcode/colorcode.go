// Package colorcode implements the color-coding technique of Alon, Yuster
// and Zwick (J. ACM 1995) for finding tree-shaped patterns, the first row
// of the paper's Table 1.
//
// The target graph's vertices are colored independently and uniformly with
// k colors; a dynamic program over the (rooted) pattern tree then finds a
// "colorful" occurrence — one using every color exactly once — in
// O(2^k k m) time per coloring. A fixed occurrence is colorful with
// probability k!/k^k > e^{-k}, so O(e^k log(1/δ)) independent colorings
// certify absence with probability 1-δ. Colorful occurrences are
// automatically injective: a target vertex reused by two pattern vertices
// would repeat its color.
//
// The DP state is D[h][v] = the set of color masks M such that the subtree
// of the pattern rooted at h embeds into the colored target with h mapped
// to v and M exactly the colors used. Children are merged one at a time
// with disjoint-mask unions.
package colorcode

import (
	"fmt"
	"math"
	"math/rand/v2"

	"planarsi/internal/graph"
	"planarsi/internal/par"
	"planarsi/internal/wd"
)

// MaxK caps the pattern size (masks are uint16).
const MaxK = 16

// Options configures a color-coding search.
type Options struct {
	// Reps is the number of independent colorings; 0 selects
	// ceil(e^k (ln n + 3)), which certifies absence w.h.p.
	Reps int
	// CountWork, when non-nil, accumulates mask-merge operations (the work
	// measure the Table 1 experiment reports).
	CountWork *int64
}

func (o Options) reps(k, n int) int {
	if o.Reps > 0 {
		return o.Reps
	}
	r := math.Exp(float64(k)) * (math.Log(float64(n)+1) + 3)
	return int(math.Ceil(r))
}

// patternTree is the pattern rooted and ordered for the DP.
type patternTree struct {
	k        int
	root     int32
	parent   []int32
	children [][]int32
	post     []int32 // post-order (children before parents)
}

// rootTree validates that h is a tree and roots it at vertex 0.
func rootTree(h *graph.Graph) (*patternTree, error) {
	k := h.N()
	if k == 0 {
		return nil, fmt.Errorf("colorcode: empty pattern")
	}
	if k > MaxK {
		return nil, fmt.Errorf("colorcode: pattern has %d vertices, max %d", k, MaxK)
	}
	if h.M() != k-1 || !graph.IsConnected(h) {
		return nil, fmt.Errorf("colorcode: pattern must be a tree (n=%d, m=%d)", k, h.M())
	}
	pt := &patternTree{
		k:        k,
		root:     0,
		parent:   make([]int32, k),
		children: make([][]int32, k),
	}
	for i := range pt.parent {
		pt.parent[i] = -1
	}
	// Iterative DFS from the root records parents and a post-order.
	type frame struct {
		v     int32
		stage int
	}
	visited := make([]bool, k)
	visited[0] = true
	stack := []frame{{0, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.stage == 0 {
			f.stage = 1
			for _, w := range h.Neighbors(f.v) {
				if !visited[w] {
					visited[w] = true
					pt.parent[w] = f.v
					pt.children[f.v] = append(pt.children[f.v], w)
					stack = append(stack, frame{w, 0})
				}
			}
			continue
		}
		pt.post = append(pt.post, f.v)
		stack = stack[:len(stack)-1]
	}
	return pt, nil
}

// colorfulSearch runs one coloring's DP. It returns the DP tables so a
// witness can be reconstructed; found reports whether some vertex admits a
// full-mask embedding of the whole pattern.
func colorfulSearch(g *graph.Graph, pt *patternTree, color []int8, work *int64) (dp [][][]uint16, found bool) {
	n := g.N()
	k := pt.k
	full := uint16(1<<k) - 1
	dp = make([][][]uint16, k)
	for h := 0; h < k; h++ {
		dp[h] = make([][]uint16, n)
	}
	var localWork int64
	for _, h := range pt.post {
		ch := pt.children[h]
		works := make([]int64, par.Parallelism())
		par.ForBlocks(0, n, max(1, n/(8*par.Parallelism())), func(lo, hi int) {
			var w int64
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				masks := []uint16{1 << uint(color[v])}
				for _, c := range ch {
					// Merge: extend every current mask by a disjoint mask
					// of child c rooted at any neighbor of v.
					var merged []uint16
					seen := make(map[uint16]struct{})
					for _, u := range g.Neighbors(v) {
						for _, cm := range dp[c][u] {
							for _, m := range masks {
								w++
								if m&cm != 0 {
									continue
								}
								nm := m | cm
								if _, dup := seen[nm]; !dup {
									seen[nm] = struct{}{}
									merged = append(merged, nm)
								}
							}
						}
					}
					masks = merged
					if len(masks) == 0 {
						break
					}
				}
				dp[h][v] = masks
			}
			// Accumulate into a per-worker-ish slot to avoid contention;
			// slot choice by block start is stable enough for a counter.
			works[lo%len(works)] += w
		})
		for _, w := range works {
			localWork += w
		}
	}
	if work != nil {
		*work += localWork
	}
	for v := 0; v < n; v++ {
		for _, m := range dp[pt.root][v] {
			if m == full {
				return dp, true
			}
		}
	}
	return dp, false
}

// reconstruct extracts one embedding from a successful DP: assign[h] is
// the target vertex of pattern vertex h.
func reconstruct(g *graph.Graph, pt *patternTree, color []int8, dp [][][]uint16) []int32 {
	k := pt.k
	full := uint16(1<<k) - 1
	assign := make([]int32, k)
	for i := range assign {
		assign[i] = -1
	}
	var rootV int32 = -1
	for v := int32(0); v < int32(g.N()); v++ {
		for _, m := range dp[pt.root][v] {
			if m == full {
				rootV = v
				break
			}
		}
		if rootV >= 0 {
			break
		}
	}
	if rootV < 0 {
		return nil
	}
	// place(h, v, mask) assigns the subtree at h rooted on v using exactly
	// the colors in mask; feasibility is guaranteed by the DP tables.
	var place func(h, v int32, mask uint16) bool
	place = func(h, v int32, mask uint16) bool {
		assign[h] = v
		rest := mask &^ (1 << uint(color[v]))
		ch := pt.children[h]
		// Split rest among the children by backtracking over DP masks.
		var split func(ci int, rem uint16) bool
		split = func(ci int, rem uint16) bool {
			if ci == len(ch) {
				return rem == 0
			}
			c := ch[ci]
			for _, u := range g.Neighbors(v) {
				for _, cm := range dp[c][u] {
					if cm&^rem != 0 {
						continue
					}
					if split(ci+1, rem&^cm) && place(c, u, cm) {
						return true
					}
				}
			}
			return false
		}
		return split(0, rest)
	}
	if !place(pt.root, rootV, full) {
		return nil
	}
	return assign
}

// Decide reports (w.h.p. for the default repetition count) whether the
// tree pattern h occurs in g. h must be a tree with at most MaxK vertices.
func Decide(g, h *graph.Graph, opts Options, rng *rand.Rand, tr *wd.Tracker) (bool, error) {
	occ, err := Find(g, h, opts, rng, tr)
	return occ != nil, err
}

// Find returns one occurrence of the tree pattern h in g (as a map from
// pattern vertex to target vertex), or nil when none was found across the
// configured repetitions.
func Find(g, h *graph.Graph, opts Options, rng *rand.Rand, tr *wd.Tracker) ([]int32, error) {
	pt, err := rootTree(h)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if n < pt.k {
		return nil, nil
	}
	reps := opts.reps(pt.k, n)
	color := make([]int8, n)
	for rep := 0; rep < reps; rep++ {
		for v := range color {
			color[v] = int8(rng.IntN(pt.k))
		}
		dp, found := colorfulSearch(g, pt, color, opts.CountWork)
		tr.AddPhaseRounds("colorcode", int64(pt.k))
		tr.AddPhaseWork("colorcode", int64(n))
		if found {
			if a := reconstruct(g, pt, color, dp); a != nil {
				return a, nil
			}
		}
	}
	return nil, nil
}

// VerifyOccurrence checks that assign is an injective homomorphism of h
// into g (used by tests and by Find's callers as a safety net).
func VerifyOccurrence(g, h *graph.Graph, assign []int32) bool {
	if len(assign) != h.N() {
		return false
	}
	seen := make(map[int32]struct{}, len(assign))
	for _, v := range assign {
		if v < 0 || int(v) >= g.N() {
			return false
		}
		if _, dup := seen[v]; dup {
			return false
		}
		seen[v] = struct{}{}
	}
	for _, e := range h.Edges() {
		if !g.HasEdge(assign[e[0]], assign[e[1]]) {
			return false
		}
	}
	return true
}
