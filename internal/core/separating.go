package core

import (
	"planarsi/internal/cover"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/naive"
)

// DecideSeparating implements Lemma 5.3: it searches for an occurrence of
// the connected pattern h in g whose removal leaves at least two vertices
// of the terminal set s in different connected components. On success it
// returns a witness occurrence (which always verifies: yes-answers are
// exact); a nil occurrence means none was found, which is correct w.h.p.
// after the default run budget.
//
// The cover is the Section 5.2.1 separating variant — bands are minors of
// g whose merged vertices (contracted complement components) keep the
// separation structure intact while being excluded from the pattern's
// image — and the per-band engine is the Section 5.2.2 extension tracking
// inside/outside labels.
func DecideSeparating(g, h *graph.Graph, s []bool, opt Options) (Occurrence, error) {
	return DecideSeparatingFrom(freshSource{g, opt}, g, h, s, opt)
}

// DecideSeparatingFrom is DecideSeparating drawing its per-run separating
// covers from src.
func DecideSeparatingFrom(src CoverSource, g, h *graph.Graph, s []bool, opt Options) (Occurrence, error) {
	if trivial, res, err := validate(g, h); err != nil {
		return nil, err
	} else if trivial {
		// The empty pattern separates nothing; an oversized pattern cannot
		// occur at all.
		_ = res
		return nil, nil
	}
	if len(s) != g.N() {
		panic("core: terminal mask length must equal g.N()")
	}
	if _, l := graph.Components(h); l > 1 {
		return nil, ErrDisconnectedPattern
	}
	// Separation needs at least two surviving terminals.
	terminals := 0
	for _, in := range s {
		if in {
			terminals++
		}
	}
	if terminals < 2 {
		return nil, nil
	}
	hits, err := witnessRuns(src, s, g.N(), []*graph.Graph{h}, separatingWitness, opt)
	if err != nil {
		return nil, err
	}
	return hits[0], nil
}

// separatingBrute is the exact fallback for bands whose decomposition
// exceeds the engine capacity: enumerate occurrences naively, restrict to
// allowed vertices, and test the separation condition directly on the
// band minor.
func separatingBrute(b *cover.Band, h *graph.Graph) match.Assignment {
	for _, a := range naive.Search(b.G, h, naive.Options{}) {
		allowed := true
		for _, v := range a {
			if !b.Allowed[v] {
				allowed = false
				break
			}
		}
		if !allowed {
			continue
		}
		if assignmentSeparates(b.G, b.S, a) {
			return match.Assignment(a)
		}
	}
	return nil
}

// assignmentSeparates checks whether removing the assignment's image
// leaves two S-vertices in different components of bg.
func assignmentSeparates(bg *graph.Graph, s []bool, a []int32) bool {
	removed := make(map[int32]bool, len(a))
	for _, v := range a {
		removed[v] = true
	}
	keep := make([]int32, 0, bg.N()-len(a))
	for v := int32(0); v < int32(bg.N()); v++ {
		if !removed[v] {
			keep = append(keep, v)
		}
	}
	sub, orig := graph.Induce(bg, keep)
	comp, _ := graph.Components(sub)
	first := int32(-1)
	for i, ov := range orig {
		if s[ov] {
			if first < 0 {
				first = comp[i]
			} else if comp[i] != first {
				return true
			}
		}
	}
	return false
}
