package core

import (
	"fmt"

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
// after the default run budget. s must hold one entry per vertex of g;
// any other length is an ErrTerminalMask error.
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
	if len(s) != g.N() {
		return nil, fmt.Errorf("%w: the mask has %d entries, the graph %d vertices", ErrTerminalMask, len(s), g.N())
	}
	if trivial, res, err := validate(g, h); err != nil {
		return nil, err
	} else if trivial {
		// The empty pattern separates nothing; an oversized pattern cannot
		// occur at all.
		_ = res
		return nil, nil
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
	hits, err := witnessRuns(src, s, g.N(), []*graph.Graph{h}, separatingKind, opt)
	if err != nil {
		return nil, err
	}
	return hits[0], nil
}

// separatingBrute is the exact fallback for bands whose decomposition
// exceeds the engine capacity: enumerate occurrences naively, restrict to
// allowed vertices, and test the separation condition directly on the
// band minor. It returns the first separating occurrence found, if any.
func separatingBrute(b *cover.Band, h *graph.Graph) []match.Assignment {
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
			return []match.Assignment{a}
		}
	}
	return nil
}

// assignmentSeparates checks whether removing the assignment's image
// leaves two S-vertices in different components of bg.
func assignmentSeparates(bg *graph.Graph, s []bool, a []int32) bool {
	drop := make([]bool, bg.N())
	for _, v := range a {
		drop[v] = true
	}
	comp, _ := graph.ComponentsWithout(bg, drop)
	first := int32(-1)
	for v, c := range comp {
		if c < 0 || !s[v] {
			continue
		}
		if first < 0 {
			first = c
		} else if c != first {
			return true
		}
	}
	return false
}
