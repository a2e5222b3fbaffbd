package core

import (
	"planarsi/internal/graph"
)

// List returns (w.h.p.) every occurrence of the connected pattern h in g,
// implementing Theorem 4.2: repeat the cover-and-enumerate run, dedupe by
// hashing, and stop once log2(j) + Θ(log n) consecutive iterations find
// nothing new (Observation 2 bounds the probability that a long head
// streak hides an unfound occurrence). Every iteration finds each fixed
// occurrence with probability >= 1/2.
//
// Occurrences are injective maps from pattern vertices to target vertices;
// automorphic images of the same vertex set count separately, matching the
// paper's listing semantics.
func List(g, h *graph.Graph, opt Options) ([]Occurrence, error) {
	return ListFrom(freshSource{g, opt}, g, h, opt)
}

// ListFrom is List drawing its per-run covers from src.
func ListFrom(src CoverSource, g, h *graph.Graph, opt Options) ([]Occurrence, error) {
	if trivial, res, err := validate(g, h); err != nil {
		return nil, err
	} else if trivial {
		if !res {
			return nil, nil
		}
		// k == 0: the unique empty occurrence.
		return []Occurrence{{}}, nil
	}
	if _, l := graph.Components(h); l > 1 {
		return nil, ErrDisconnectedPattern
	}
	k := h.N()
	if k == 1 {
		out := make([]Occurrence, g.N())
		for v := range out {
			out[v] = Occurrence{int32(v)}
		}
		return out, nil
	}
	found, err := listRuns(src, g.N(), []*graph.Graph{h}, opt)
	if err != nil {
		return nil, err
	}
	out := make([]Occurrence, 0, len(found[0]))
	for _, o := range found[0] {
		out = append(out, o)
	}
	return out, nil
}

// Count returns (w.h.p.) the number of occurrences of the connected
// pattern h in g. As the paper's conclusion notes, counting via listing is
// not work-efficient — the work grows with the number of occurrences —
// but it is correct w.h.p.
func Count(g, h *graph.Graph, opt Options) (int, error) {
	occs, err := List(g, h, opt)
	return len(occs), err
}

// CountFrom is Count drawing its per-run covers from src.
func CountFrom(src CoverSource, g, h *graph.Graph, opt Options) (int, error) {
	occs, err := ListFrom(src, g, h, opt)
	return len(occs), err
}

// FindOne returns a single occurrence of the connected pattern h in g, or
// nil when none was found within the run budget.
func FindOne(g, h *graph.Graph, opt Options) (Occurrence, error) {
	return FindOneFrom(freshSource{g, opt}, g, h, opt)
}

// FindOneFrom is FindOne drawing its per-run covers from src.
func FindOneFrom(src CoverSource, g, h *graph.Graph, opt Options) (Occurrence, error) {
	if trivial, res, err := validate(g, h); err != nil {
		return nil, err
	} else if trivial {
		if res {
			return Occurrence{}, nil
		}
		return nil, nil
	}
	if _, l := graph.Components(h); l > 1 {
		return nil, ErrDisconnectedPattern
	}
	k := h.N()
	if k == 1 {
		return Occurrence{0}, nil
	}
	hits, err := witnessRuns(src, nil, g.N(), []*graph.Graph{h}, findWitness, opt)
	if err != nil {
		return nil, err
	}
	return hits[0], nil
}
