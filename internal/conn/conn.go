// Package conn decides the vertex connectivity of embedded planar graphs,
// implementing Section 5 of the paper.
//
// The reduction (Nishizeki, via Eppstein; Lemma 5.1) goes through the
// bipartite vertex-face incidence graph G': one side holds the original
// vertices, the other a vertex per face of the embedding, with edges
// between a face and the vertices on its boundary. For a 2-connected
// planar graph, the vertex connectivity of G equals c exactly when the
// shortest cycle of G' separating the original vertices has length 2c.
//
// Since every planar graph has a vertex of degree at most 5 (Euler),
// planar vertex connectivity is at most 5, so the whole decision reduces
// to a constant number of S-separating cycle searches — C4, C6, C8 — each
// solved by the paper's separating subgraph isomorphism (Lemma 5.3), for
// which the paper proves O(n log n) work and O(log² n) depth. 0-,
// 1-connectivity and completeness are handled by direct substrate checks
// first.
//
// The depth here is not polylogarithmic. Separating bands run the
// sequential DP engine, because the path-DAG engine (package pmdag)
// carries no separating labels. A search is therefore parallel only
// across its bands, and each band's depth is the full length of its
// decomposition: the rounds the wd tracker counts under "dp".
//
// Where the paper runs dedicated 2-/3-connectivity algorithms [38, 50]
// and only uses the C8 search to split 4 from 5, this implementation
// tests 2-connectivity via articulation points and then lets the
// separating-cycle chain distinguish 2, 3, 4 and 5 — the same Lemma 5.1
// characterization, exercised at every length (DESIGN.md discusses the
// substitution).
package conn

import (
	"fmt"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/par"
	"planarsi/internal/planarity"
	"planarsi/internal/wd"
)

// Result reports a connectivity decision.
type Result struct {
	// Connectivity is the vertex connectivity of the graph.
	Connectivity int
	// Cut is a witness vertex cut of size Connectivity when one was
	// identified (nil for complete graphs, connectivity 0, and
	// connectivity 5, where no small witness exists).
	Cut []int32
	// CycleChecks counts the separating-cycle searches performed.
	CycleChecks int
}

// Options configures the connectivity decision.
type Options struct {
	// Seed seeds the randomized separating-cycle searches.
	Seed uint64
	// MaxRuns bounds the cover repetitions per cycle search (0 = w.h.p.
	// default).
	MaxRuns int
	// Tracker accumulates work/depth counters when non-nil.
	Tracker *wd.Tracker
	// Cancel, when non-nil, aborts the separating-cycle searches
	// cooperatively: once it fires, VertexConnectivity returns
	// par.ErrCancelled instead of a result.
	Cancel *par.Canceller
}

// FaceIncidence builds the bipartite vertex-face incidence graph G' of an
// embedded graph g. Vertices 0..n-1 of G' are the original vertices of g;
// vertices n..n+f-1 are its faces. The returned mask marks the original
// vertices (the set S that separating cycles must separate).
func FaceIncidence(g *graph.Graph) (*graph.Graph, []bool, error) {
	if !g.Embedded() {
		return nil, nil, fmt.Errorf("conn: face incidence needs an embedded graph")
	}
	if err := graph.ValidateEmbedding(g); err != nil {
		return nil, nil, fmt.Errorf("conn: %w", err)
	}
	faces := graph.TraceFaces(g)
	n := g.N()
	f := faces.NumFaces()
	b := graph.NewBuilder(n + f)
	for fi, walk := range faces.Boundary {
		fv := int32(n + fi)
		// A boundary walk can repeat vertices (at cut vertices);
		// deduplicate so the graph stays simple.
		seen := make(map[int32]struct{}, len(walk))
		for _, v := range walk {
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			b.AddEdge(v, fv)
		}
	}
	s := make([]bool, n+f)
	for v := 0; v < n; v++ {
		s[v] = true
	}
	return b.Build(), s, nil
}

// VertexConnectivity decides the vertex connectivity of the planar graph
// g (Lemma 5.2). Graphs without an embedding are embedded first with the
// DMP planarity algorithm (non-planar inputs return its error). The
// result is exact for connectivity 0 and 1 and for complete graphs; for
// the separating-cycle chain, reported cuts always verify (yes-answers
// are exact) and the absence of a shorter cut holds w.h.p.
func VertexConnectivity(g *graph.Graph, opt Options) (Result, error) {
	n := g.N()
	if n <= 1 {
		return Result{Connectivity: 0}, nil
	}
	if !g.Embedded() {
		emb, err := planarity.Embed(g)
		if err != nil {
			return Result{}, err
		}
		g = emb
	}
	if g.IsComplete() {
		// K1..K4 are the only complete planar graphs; removal of all but
		// one vertex is the only "cut", with no witness separation.
		return Result{Connectivity: n - 1}, nil
	}
	if !graph.IsConnected(g) {
		return Result{Connectivity: 0}, nil
	}
	if art := articulationWitness(g); art >= 0 {
		return Result{Connectivity: 1, Cut: []int32{art}}, nil
	}
	// 2-connected from here on: Lemma 5.1 applies.
	gp, s, err := FaceIncidence(g)
	if err != nil {
		return Result{}, err
	}
	res := Result{}
	for _, c := range []int{2, 3, 4} {
		res.CycleChecks++
		occ, err := core.DecideSeparating(gp, graph.Cycle(2*c), s, core.Options{
			Seed:    opt.Seed + uint64(c),
			MaxRuns: opt.MaxRuns,
			Tracker: opt.Tracker,
			Cancel:  opt.Cancel,
		})
		if err != nil {
			return Result{}, err
		}
		if occ != nil {
			res.Connectivity = c
			res.Cut = verifiedCut(g, gp, s, occ, c, opt)
			// A cancelled resample reads as a miss there; never report
			// the cut it may have lost.
			if err := opt.Cancel.Err(); err != nil {
				return Result{}, err
			}
			return res, nil
		}
	}
	// No separating cycle of length <= 8: Euler's formula caps planar
	// connectivity at 5.
	res.Connectivity = 5
	return res, nil
}

// articulationWitness returns an articulation vertex of g, or -1 when g
// is 2-connected (g must be connected with n >= 2; a connected graph on 2
// vertices is K2 and is handled by the completeness check).
func articulationWitness(g *graph.Graph) int32 {
	arts := graph.ArticulationPoints(g)
	for v, is := range arts {
		if is {
			return int32(v)
		}
	}
	return -1
}

// originalVerticesOf extracts the original (non-face) vertices from a
// separating-cycle occurrence in G'. Cycles of the bipartite G' alternate
// original and face vertices, so a 2c-cycle yields exactly c original
// vertices — the vertex cut of Lemma 5.1.
func originalVerticesOf(occ core.Occurrence, n int) []int32 {
	var cut []int32
	for _, v := range occ {
		if int(v) < n {
			cut = append(cut, v)
		}
	}
	return cut
}

// verifiedCut turns a separating-cycle occurrence into a verified vertex
// cut of g, or nil when none of a few candidate cycles yields one.
//
// The subtlety: graph separation in G' is witnessed by *some* separating
// 2c-cycle whenever κ = c (the cycle tracing the minimum cut's closed
// curve), which is what the decision relies on — but not every separating
// cycle's original vertices form a cut of g. In thin 2-connected graphs
// two faces can share many edges (both faces of a long cycle graph touch
// every vertex), so the 4-cycle through an edge and its two faces
// disconnects G' outright without {u,v} cutting g. Once g is 3-connected
// this cannot happen — two faces of a 3-connected planar graph share at
// most one edge, so removing a 2c-cycle never strands vertices that are
// connected in g — but for the witness we simply re-check and resample a
// few cycles with fresh seeds. A failed witness never changes the
// connectivity value, which Lemma 5.1 ties to the cycle length alone.
func verifiedCut(g, gp *graph.Graph, s []bool, occ core.Occurrence, c int, opt Options) []int32 {
	n := g.N()
	cut := originalVerticesOf(occ, n)
	if VerifyCut(g, cut) {
		return cut
	}
	for try := uint64(1); try <= 8; try++ {
		occ2, err := core.DecideSeparating(gp, graph.Cycle(2*c), s, core.Options{
			Seed:    opt.Seed + uint64(c) + try*0x9e3779b9,
			MaxRuns: 2,
			Tracker: opt.Tracker,
			Cancel:  opt.Cancel,
		})
		if err != nil || occ2 == nil {
			continue
		}
		cut = originalVerticesOf(occ2, n)
		if VerifyCut(g, cut) {
			return cut
		}
	}
	return nil
}

// VerifyCut checks that removing the given vertices disconnects g — the
// witness validation tests apply to every reported cut.
func VerifyCut(g *graph.Graph, cut []int32) bool {
	drop := make([]bool, g.N())
	for _, v := range cut {
		if v >= 0 && int(v) < g.N() {
			drop[v] = true
		}
	}
	_, comps := graph.ComponentsWithout(g, drop)
	return comps > 1
}
