package core

// Shared-preprocessing support: the pipeline's target-side artifacts
// (ESTC clusterings, k-d covers, nice band decompositions) are split out
// of the query loops so they can be built once and served to many
// queries.
//
// Two properties make the split sound:
//
//  1. Per-run randomness is derived, not consumed. Run i's clustering is
//     a pure function of (Options.Seed, coverStream, i), so a cached
//     cover for run i is bit-identical to the one a fresh pipeline would
//     build — answers with and without a cache are the same for equal
//     Options.
//  2. Prepared artifacts are immutable. The engines only read the band
//     graph, the nice decomposition and the Allowed/S masks, so one
//     PreparedCover can serve any number of concurrent queries.

import (
	"math/rand/v2"
	"sync/atomic"

	"planarsi/internal/cover"
	"planarsi/internal/estc"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/par"
	"planarsi/internal/treedecomp"
)

// coverStream is the rng stream from which every cover construction
// derives its per-run randomness. All cover-based operations (Decide,
// FindOne, List, Count, DecideSeparating) draw from this one stream so
// that run i of any operation sees the same clustering — the property
// that lets an Index reuse one prepared cover across operation types.
const coverStream = 1

// runRNG returns the rng driving independent run `run` of the given
// stream. Unlike a sequentially consumed rng, the derivation is a pure
// function of (Seed, stream, run), so run i's cover can be rebuilt — or
// served from a cache — without replaying runs 0..i-1.
func (o Options) runRNG(stream uint64, run int) *rand.Rand {
	return rand.New(rand.NewPCG(o.Seed, 0x9e3779b97f4a7c15^(stream<<32)^uint64(run)))
}

// CoverBeta returns the effective clustering parameter for pattern size k:
// 2k per Theorem 2.4, unless Options.Beta overrides it.
func CoverBeta(k int, opt Options) float64 {
	if opt.Beta > 0 {
		return opt.Beta
	}
	return float64(2 * k)
}

// RunBudget returns the number of independent cover repetitions a
// negative answer needs for w.h.p. correctness on an n-vertex target
// (MaxRuns when set). Callers prewarming a cache use it to size the
// per-(k, d) run range.
func RunBudget(n int, opt Options) int { return opt.maxRuns(n) }

// ClusterRun builds run `run`'s ESTC clustering of g for the clustering
// parameter beta. Equal (Seed, beta, run) give equal clusterings.
func ClusterRun(g *graph.Graph, beta float64, run int, opt Options) *estc.Clustering {
	return estc.Cluster(g, beta, opt.runRNG(coverStream, run), opt.Tracker)
}

// PreparedBand couples a cover band with its nice tree decomposition,
// built once and reusable by any number of queries.
type PreparedBand struct {
	// Band is the underlying cover band (graph, Orig map, Allowed/S
	// masks, lowest-level marks).
	Band *cover.Band
	// ND is the band graph's nice tree decomposition; nil when the
	// decomposition exceeded the engine's bag capacity (Fallback).
	ND *treedecomp.Nice
	// Width is the width of the band's tree decomposition.
	Width int
	// Fallback marks bands that must be solved by the exact naive
	// baseline because their decomposition was too wide for the DP.
	Fallback bool
}

// PreparedCover is one independent run's cover with every band
// decomposition precomputed. It is immutable after construction and safe
// for concurrent use.
type PreparedCover struct {
	// Clustering is the ESTC clustering that induced the cover.
	Clustering *estc.Clustering
	// BFSRounds is the cover's largest in-cluster BFS round count.
	BFSRounds int
	// Bands lists the cover's bands in cover order.
	Bands []PreparedBand
}

// MemBytes returns the approximate heap footprint of the prepared band:
// the cover band plus its nice decomposition.
func (pb *PreparedBand) MemBytes() int64 {
	b := pb.Band.MemBytes()
	if pb.ND != nil {
		b += pb.ND.MemBytes()
	}
	return b
}

// MemBytes returns the approximate heap footprint of the prepared cover in
// bytes. The clustering that induced the cover is excluded: caches share
// one clustering across many covers and account for it separately.
func (pc *PreparedCover) MemBytes() int64 {
	var b int64
	for i := range pc.Bands {
		b += pc.Bands[i].MemBytes()
	}
	return b
}

// prepare decomposes every band of cov in parallel and returns the
// prepared cover with how many bands it kept from prev and how many it
// decomposed.
//
// prev is nil for a fresh build. After an edge edit it is the same key's
// cover on the old graph: the geometry (one in-cluster BFS per cluster)
// is cheap to recompute, the decompositions are not, so a band
// bit-identical to prev's band of the same (cluster, level) — the band
// identity within one clustering; cover.Band.Equal includes graph.Equal
// on the band graph — reuses prev's PreparedBand outright. Because reuse
// needs bit-identity and treedecomp.Build is deterministic in its input,
// the result equals a fresh build on the edited graph: same bands, same
// decompositions, same bytes.
//
// A fired Cancel token skips the remaining bands, leaving their
// PreparedBand entries zeroed (Band == nil): consumers observe the same
// monotonic token before touching any skipped band, and a cancelled
// prepare is never cached (an Index builds covers with its own
// token-free Options).
func prepare(cov *cover.Cover, prev *PreparedCover, opt Options) (*PreparedCover, int, int) {
	type bandID struct{ cluster, level int32 }
	var old map[bandID]*PreparedBand
	if prev != nil {
		old = make(map[bandID]*PreparedBand, len(prev.Bands))
		for i := range prev.Bands {
			if pb := &prev.Bands[i]; pb.Band != nil {
				old[bandID{pb.Band.Cluster, pb.Band.Level}] = pb
			}
		}
	}
	pc := &PreparedCover{Clustering: cov.Clustering, BFSRounds: cov.BFSRounds, Bands: make([]PreparedBand, len(cov.Bands))}
	var kept, rebuilt atomic.Int64
	par.ForGrain(0, len(cov.Bands), 1, func(i int) {
		injectBandFaults()
		if opt.Cancel.Cancelled() {
			return
		}
		b := cov.Bands[i]
		if pb, ok := old[bandID{b.Cluster, b.Level}]; ok && pb.Band.Equal(b) {
			// Share the old band object outright so entries kept across
			// a generation keep their exact pointers (and snapshot
			// encoders see one band, not two equal copies).
			pc.Bands[i] = *pb
			kept.Add(1)
			return
		}
		td := treedecomp.Build(b.G, opt.Heuristic)
		nd := treedecomp.MakeNice(td)
		pb := PreparedBand{Band: b, Width: td.Width()}
		if nd.Width+1 > match.MaxBag {
			pb.Fallback = true
		} else {
			pb.ND = nd
		}
		pc.Bands[i] = pb
		rebuilt.Add(1)
	})
	return pc, int(kept.Load()), int(rebuilt.Load())
}

// PrepareRun builds and decomposes run `run`'s plain cover of g for
// patterns of size k and diameter d — the fresh, uncached path.
func PrepareRun(g *graph.Graph, k, d, run int, opt Options) *PreparedCover {
	return freshSource{g, opt}.Prepared(nil, k, d, run)
}

// PrepareSeparatingRun is PrepareRun for the Section 5.2.1 separating
// covers (band minors carrying Allowed and S marks for terminal set s).
func PrepareSeparatingRun(g *graph.Graph, s []bool, k, d, run int, opt Options) *PreparedCover {
	return freshSource{g, opt}.Prepared(s, k, d, run)
}

// PrepareFromClustering decomposes the cover induced by an existing
// clustering (shared across pattern diameters by a cache): the plain
// cover when s is nil, else the separating cover for terminal mask s
// (cover.Cut). It reuses the unchanged bands of prev, the same key's
// cover before an edge edit, when prev is non-nil (see prepare), and
// also returns how many bands were kept and how many decomposed.
// Separating bands are minors of the whole graph, so an edit anywhere
// can change any of them; the bit-identity check reuses only the truly
// untouched ones.
func PrepareFromClustering(g *graph.Graph, cl *estc.Clustering, s []bool, prev *PreparedCover, k, d int, opt Options) (*PreparedCover, int, int) {
	cov := cover.Cut(g, cl, s, cover.Params{K: k, D: d, Beta: opt.Beta}, opt.Tracker)
	return prepare(cov, prev, opt)
}

// A CoverSource supplies the prepared cover for each independent run of
// a pipeline loop, keyed by terminal mask s (nil for a plain cover),
// pattern size k, pattern diameter d and run index. Implementations must
// be safe for concurrent use and must return the cover
// PrepareFromClustering would build from run `run`'s clustering
// (ClusterRun) for the same Options; an Index's generations return
// memoized instances.
type CoverSource interface {
	Prepared(s []bool, k, d, run int) *PreparedCover
}

// freshSource rebuilds every prepared cover on demand: the non-indexed
// single-query path.
type freshSource struct {
	g   *graph.Graph
	opt Options
}

func (f freshSource) Prepared(s []bool, k, d, run int) *PreparedCover {
	cl := ClusterRun(f.g, CoverBeta(k, f.opt), run, f.opt)
	pc, _, _ := PrepareFromClustering(f.g, cl, s, nil, k, d, f.opt)
	return pc
}
