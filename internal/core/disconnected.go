package core

import (
	"math"

	"planarsi/internal/graph"
	"planarsi/internal/par"
)

// decideDisconnected implements Lemma 4.1: color the target's vertices
// uniformly with l colors (one per pattern component) and search for the
// i-th component inside the i-th color class. A fixed occurrence assigns
// all its vertices the right colors with probability l^{-k}, so
// O(l^k log n) repetitions certify absence w.h.p.; each successful
// repetition is exact, so "yes" answers are always correct (component
// images are automatically disjoint because the color classes are).
// MaxRuns does not bound the colorings: it counts the cover runs of a
// connected search, and each inner search makes its own.
func decideDisconnected(g, h *graph.Graph, l int, opt Options) (bool, error) {
	comps := splitComponents(h)
	reps := colorRepetitions(l, h.N(), g.N())
	rng := opt.rng(2)
	n := g.N()
	color := make([]int8, n)
	// The inner searches reuse the connected pipeline with two runs: on
	// the default path that makes each one exact given the coloring, and
	// under PaperLoop it gives the constant success probability the outer
	// loop needs, since it already repeats. They charge Stats, Cost and
	// Trace like any other search.
	inner := opt
	inner.MaxRuns = 2
	for rep := 0; rep < reps; rep++ {
		if opt.Cancel.Cancelled() {
			return false, par.ErrCancelled
		}
		for v := range color {
			color[v] = int8(rng.IntN(l))
		}
		inner.Seed = rng.Uint64()
		ok := true
		for i := 0; i < l && ok; i++ {
			verts := make([]int32, 0, n/l+1)
			for v := 0; v < n; v++ {
				if color[v] == int8(i) {
					verts = append(verts, int32(v))
				}
			}
			gi, _ := graph.Induce(g, verts)
			hi := comps[i]
			if hi.N() > gi.N() {
				ok = false
				break
			}
			if hi.N() == 1 {
				continue // any vertex of the class hosts it
			}
			hits, err := witnessRuns(freshSource{gi, inner}, nil, gi.N(), []*graph.Graph{hi}, decideKind, inner)
			if err != nil {
				return false, err
			}
			ok = hits[0] != nil
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// colorRepetitions returns ceil(l^k · (log2 n + 2)), capped to keep
// pathological parameter choices from running forever (the cap is far
// beyond anything the experiments use; hitting it weakens the w.h.p.
// guarantee, not correctness of "yes" answers).
func colorRepetitions(l, k, n int) int {
	lk := math.Pow(float64(l), float64(k))
	r := lk * (math.Log2(float64(n)+2) + 2)
	const cap = 1 << 20
	if r > cap {
		return cap
	}
	return int(math.Ceil(r))
}

// splitComponents returns the connected components of h as standalone
// graphs with dense local ids, ordered by component label.
func splitComponents(h *graph.Graph) []*graph.Graph {
	comp, l := graph.Components(h)
	buckets := make([][]int32, l)
	for v := 0; v < h.N(); v++ {
		c := comp[v]
		buckets[c] = append(buckets[c], int32(v))
	}
	out := make([]*graph.Graph, l)
	for i, verts := range buckets {
		gi, _ := graph.Induce(h, verts)
		out[i] = gi
	}
	return out
}
