// Package planarsi is a parallel library for subgraph isomorphism in
// planar graphs and planar vertex connectivity, reproducing
//
//	Gianinazzi, Hoefler: "Parallel Planar Subgraph Isomorphism and
//	Vertex Connectivity", SPAA 2020 (arXiv:2007.01199).
//
// The headline results: deciding whether a connected pattern H with k
// vertices occurs in a planar target G with n vertices takes
// O((3k)^{3k+1} n log n) work and O(k log² n) depth (Monte Carlo), and
// planar vertex connectivity is decided in O(n log n) work and
// O(log² n) depth via separating cycles in the vertex-face incidence
// graph.
//
// # Quick start
//
//	g := planarsi.Grid(32, 32)
//	h := planarsi.Cycle(4)
//	found, _ := planarsi.Decide(g, h, planarsi.Options{})           // true
//	occs, _ := planarsi.ListOccurrences(g, h, planarsi.Options{})   // all C4s
//	res, _ := planarsi.VertexConnectivity(g, planarsi.Options{})    // 2
//
// # Batch queries: the Index
//
// The pipeline spends most of its work on target-side preprocessing —
// ESTC clustering, the treewidth k-d cover, and nice tree decompositions
// of the cover's bands — while the per-pattern dynamic program is
// comparatively cheap. The package-level functions rebuild everything per
// call; when many patterns are matched against one target, build an Index
// instead:
//
//	ix := planarsi.NewIndex(g, planarsi.Options{Seed: 1})
//	found, _ := ix.Decide(h)                        // same answer as Decide(g, h, opt)
//	results := ix.Scan(ctx, []*planarsi.Graph{...}) // whole batch, concurrently
//
// Batched scans and the *Ctx query variants (DecideCtx, ScanCount, ...)
// honor a context.Context: cancellation or an expired deadline stops the
// in-flight per-band dynamic programs at their next checkpoint and
// returns the context's error. Cancellation never changes answers — a
// rerun with a live context returns exactly what an unwatched call
// would have.
//
// Lifecycle and cost model: NewIndex is O(1) — preprocessing artifacts
// are built lazily on first use and memoized for the Index's lifetime
// (Prewarm pays the cost up front). The first query for a pattern shape
// pays the usual preprocessing cost; every further query over the same
// shape — any pattern with equal vertex count k and diameter d — reuses
// the cached covers and decompositions and pays only for its dynamic
// programs. Prepared covers are memoized by (k, d, run); separating
// covers additionally key on the terminal set. Each cover build clusters
// the target for its run first, and only the cover is kept. Seed and
// Heuristic are fixed per Index.
//
// Determinism and correctness are unchanged: per-run randomness is
// derived purely from (Options.Seed, run), so an Index returns exactly
// the covers a fresh call would build — for equal Options, answers with
// and without an Index are identical, and the guarantees below carry
// over verbatim.
//
// Concurrency: an Index is safe for concurrent use by any number of
// goroutines. Cached artifacts are immutable and built exactly once per
// key (concurrent requesters of a missing artifact block until the single
// build finishes). Scan and ScanCount answer their batch's shape groups
// and ungroupable members concurrently, on as many plain goroutines as
// the runtime has workers, and every band loop beneath them runs on the
// internal fork-join runtime; no fork-join task ever waits on an
// artifact build. Index.Stats reports the
// cache contents and approximate memory footprint — the accounting the
// planarsid daemon's LRU eviction budgets against (see cmd/planarsid).
//
// Live graphs: Index.ApplyEdits mutates the target in place with a batch
// of edge insertions and deletions, advancing an edit epoch. Migration is
// copy-on-write and band-granular — artifacts the edit did not touch are
// retained verbatim, the rest rebuild through the fresh-build path — so
// post-edit answers are byte-identical to a fresh NewIndex on the edited
// graph, while queries already in flight drain consistently against the
// pre-edit generation. See EditBatch, EditResult, and Index.Epoch.
//
// Yes-answers (found occurrences, reported cuts) are always exact and can
// be re-checked with VerifyOccurrence / the returned witnesses. No-answers
// are exact too: a search its first (random) cover run leaves open ends
// with one run on a BFS-layered cover (Eppstein's layering), which holds
// every occurrence, and listing and counting make that one run alone.
// Only Options.MaxRuns 1 (one random run, no layered run) and the
// coloring loop of disconnected patterns (Lemma 4.1) leave negatives
// correct with high probability. The layered run pays for exactness in
// depth: its root sweep and its layering take ecc(root) rounds each,
// Θ(n) on paths and cycles and 127 + 127 on a 64×64 grid, against 26–46
// BFS rounds for a random cover run. The O(k log² n) depth bound above
// holds at MaxRuns 1 and under the paper's Monte Carlo loop (all random
// runs, which the paper experiments use), not for a run that ends layered.
//
// The implementation follows the paper's pipeline: Exponential Start Time
// Clustering decomposes the target into low-diameter clusters (Lemma
// 2.3), a parallel treewidth k-d cover cuts each cluster into
// bounded-treewidth bands (Theorem 2.4) — the layered run cuts each
// connected component the same way — and each band is solved by a
// dynamic program over a nice tree decomposition — either bottom-up
// (Section 3.2) or through the parallel path-DAG engine with shortcut
// reachability (Section 3.3). Extensions cover disconnected patterns
// (Lemma 4.1), listing every occurrence (Theorem 4.2), and S-separating
// occurrences (Lemma 5.3), which power the vertex connectivity decision
// (Lemma 5.2). See DESIGN.md for the architecture; cmd/paperbench
// reproduces the paper's tables and figures, and make paper-smoke runs
// their shape checks.
package planarsi

import (
	"io"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/index"
	"planarsi/internal/match"
	"planarsi/internal/planarity"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"
)

// Graph is an immutable simple undirected graph in CSR form; embedded
// graphs additionally carry a rotation system (combinatorial planar
// embedding). Construct with NewBuilder/FromEdges or the generators.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Tracker accumulates empirical work (operation counts) and depth
// (synchronous round counts), the PRAM quantities the paper's bounds are
// stated in. Pass one in Options to instrument a call; nil disables
// instrumentation.
type Tracker = wd.Tracker

// NewTracker returns an empty work/depth tracker.
func NewTracker() *Tracker { return wd.NewTracker() }

// Occurrence maps pattern vertices to target vertices; it certifies a
// subgraph isomorphism (check with VerifyOccurrence).
type Occurrence = core.Occurrence

// Engine selects the per-band bounded-treewidth solver.
type Engine = core.Engine

const (
	// EngineAuto runs the sequential dynamic program on every band: it
	// does 4–5x less work than the path-DAG engine, which by Brent's rule
	// (T_P ≈ W/P + D) is projected to win only past about 56 processors.
	// The choice never changes an answer or witness.
	EngineAuto = core.EngineAuto
	// EngineSequential forces the Section 3.2 bottom-up dynamic program.
	EngineSequential = core.EngineSequential
	// EnginePathDAG forces the Section 3.3 parallel path-DAG engine.
	EnginePathDAG = core.EnginePathDAG
)

// Heuristic selects the tree decomposition heuristic used on cover bands.
type Heuristic = treedecomp.Heuristic

const (
	// MinDegree eliminates minimum-degree vertices first (fast, default).
	MinDegree = treedecomp.MinDegree
	// MinFill eliminates minimum-fill-in vertices first (slower, often
	// narrower decompositions).
	MinFill = treedecomp.MinFill
)

// Options configures the randomized pipeline. The zero value is usable.
type Options struct {
	// Seed makes runs reproducible; equal seeds give equal results.
	Seed uint64
	// Engine selects the per-band solver (default EngineAuto).
	Engine Engine
	// MaxRuns bounds the cover runs of a search. Any value but 1 (0
	// included) allows the random run and the exact layered run; 1
	// makes one random run, whose negatives hold w.h.p. only. Listing
	// and counting make one layered run whatever the value. It does not
	// bound a disconnected pattern (Lemma 4.1): its components are first
	// searched in the whole target at the default budget, and the count
	// of its colorings depends on the pattern and the target alone.
	MaxRuns int
	// Heuristic selects the band tree-decomposition heuristic.
	Heuristic Heuristic
	// Beta overrides the clustering parameter (default 2k).
	Beta float64
	// Tracker records empirical work/depth when non-nil.
	Tracker *Tracker
	// Stats receives pipeline statistics when non-nil.
	Stats *Stats
}

// Stats reports what a pipeline call did.
type Stats = core.Stats

func (o Options) core() core.Options {
	return core.Options{
		Seed:      o.Seed,
		Engine:    o.Engine,
		MaxRuns:   o.MaxRuns,
		Heuristic: o.Heuristic,
		Beta:      o.Beta,
		Tracker:   o.Tracker,
		Stats:     o.Stats,
	}
}

// Decide reports whether the pattern h occurs in the target g as a
// subgraph (Theorem 2.1 for connected patterns, Lemma 4.1 for
// disconnected ones). True answers are exact; so are false ones, except
// at MaxRuns 1 and for disconnected patterns whose components each
// occur, where they hold w.h.p.
func Decide(g, h *Graph, opt Options) (bool, error) {
	return core.Decide(g, h, opt.core())
}

// FindOccurrence returns one occurrence of the connected pattern h in g,
// or nil when there is none (w.h.p. only at MaxRuns 1).
func FindOccurrence(g, h *Graph, opt Options) (Occurrence, error) {
	return core.FindOne(g, h, opt.core())
}

// ListOccurrences returns every occurrence of the connected pattern h in
// g, each once, from one run on the BFS-layered cover. Automorphic images
// of the same vertex set count as distinct occurrences.
func ListOccurrences(g, h *Graph, opt Options) ([]Occurrence, error) {
	return core.List(g, h, opt.core())
}

// CountOccurrences returns the number of occurrences of the connected
// pattern h in g, exact as ListOccurrences is.
func CountOccurrences(g, h *Graph, opt Options) (int, error) {
	return core.Count(g, h, opt.core())
}

// DecideSeparating searches for an occurrence of the connected pattern h
// whose removal disconnects at least two vertices of the terminal set s
// (Lemma 5.3). It returns a witness occurrence or nil; s must hold one
// entry per vertex of g (else ErrTerminalMask).
func DecideSeparating(g, h *Graph, s []bool, opt Options) (Occurrence, error) {
	return core.DecideSeparating(g, h, s, opt.core())
}

// Index preprocesses one target graph and serves repeated pattern
// queries (Decide, FindOccurrence, ListOccurrences, CountOccurrences,
// DecideSeparating) plus batched scans (Scan, ScanCount) over shared,
// memoized pipeline artifacts. See the package documentation ("Batch
// queries: the Index") for the lifecycle, memoization keys and
// concurrency guarantees.
type Index = index.Index

// ScanResult is one pattern's answer in an Index.Scan or Index.ScanCount
// batch.
type ScanResult = index.ScanResult

// IndexStats is a point-in-time snapshot of an Index's cache contents,
// approximate memory footprint, and query traffic (Index.Stats). Serving
// layers use it to drive cache-eviction policies against a memory budget.
type IndexStats = index.Stats

// NewIndex builds an Index over the target g. The options play the same
// role as in the package-level calls and are fixed for the Index's
// lifetime; for equal Options, Index answers are identical to the
// corresponding package-level call.
func NewIndex(g *Graph, opt Options) *Index {
	return index.New(g, opt.core())
}

// EditBatch is one atomic set of edge insertions and deletions for
// Index.ApplyEdits: removals apply before additions, validation is
// all-or-nothing, and the optional RequirePlanar / IfEpoch fields gate
// the batch on planarity and on optimistic epoch matching. See
// Index.ApplyEdits for the consistency contract.
type EditBatch = index.EditBatch

// EditResult describes one applied edit batch: the Index's new epoch and
// how much of the memoized artifact state the migration kept verbatim vs
// rebuilt, per artifact class and per band.
type EditResult = index.EditResult

// EditClassDelta is one artifact class's kept/rebuilt split in an
// EditResult.
type EditClassDelta = index.ClassDelta

// IndexInvalidationStats is one artifact class's lifetime tally of
// edit-migration invalidations vs retentions (Index.InvalidationStats).
type IndexInvalidationStats = index.InvalidationStats

// ErrEdit reports an edit batch that failed validation (unknown vertex,
// self-loop, adding a present edge, removing an absent one). The target
// is left unchanged.
var ErrEdit = graph.ErrEdit

// ErrEpochConflict reports an edit batch whose IfEpoch condition no
// longer matched the Index's epoch: a concurrent editor won the race.
var ErrEpochConflict = index.ErrEpochConflict

// ErrNonPlanarEdit reports an edit batch rejected because RequirePlanar
// was set and the edited graph would not be planar.
var ErrNonPlanarEdit = index.ErrNonPlanarEdit

// LoadIndex restores an Index from a snapshot previously written with
// Index.Save: the target graph, options and every completed cached
// artifact (prepared covers with their band decompositions) come back
// behind the same memoization keys, so queries that hit the
// snapshot's cache skip preprocessing entirely. A restored Index
// answers byte-identically to the Index that saved it — and to a fresh
// NewIndex with the same graph and Options. The snapshot format is
// versioned and checksummed; malformed or truncated input fails with an
// error, never a panic.
func LoadIndex(r io.Reader) (*Index, error) {
	return index.Load(r)
}

// CanonicalPattern returns a canonically relabeled copy of the pattern
// h: isomorphic patterns (up to MaxPatternSize vertices) yield
// identical copies, so the result serves as a canonical representative
// for deduplication. The Index canonicalizes internally — batched scans
// dedupe isomorphic members automatically — so this is for clients that
// want to dedupe or key on patterns themselves. For rare
// refinement-resistant patterns an internal search budget may keep the
// input labeling; the result is then still isomorphic to h, merely not
// cross-labeling canonical.
func CanonicalPattern(h *Graph) *Graph {
	c, _ := match.Canonicalize(h)
	return c
}

// CanonicalPatternKey returns the canonical form of the pattern h as an
// opaque comparable string: isomorphic patterns map to equal keys, and
// equal keys always denote isomorphic patterns (with the same budget
// caveat as CanonicalPattern — equal keys remain sound regardless).
// This is the key on which the Index's batched scans dedupe isomorphic
// members.
func CanonicalPatternKey(h *Graph) string {
	return match.CanonicalKey(h)
}

// VerifyOccurrence checks that occ is an injective map from h's vertices
// to g's vertices realizing every edge of h.
func VerifyOccurrence(g, h *Graph, occ Occurrence) bool {
	return core.VerifyOccurrence(g, h, occ)
}

// VerifySeparating additionally checks that removing occ's image
// disconnects two vertices of s.
func VerifySeparating(g, h *Graph, s []bool, occ Occurrence) bool {
	return core.VerifySeparating(g, h, s, occ)
}

// IsPlanar reports whether g admits a planar embedding (decided exactly
// by the Demoucron-Malgrange-Pertuiset algorithm).
func IsPlanar(g *Graph) bool { return planarity.IsPlanar(g) }

// EmbedPlanar returns a copy of g carrying a combinatorial planar
// embedding (rotation system), or ErrNotPlanar. Generators in this
// package already produce embedded graphs; use this for graphs built
// from raw edge lists.
func EmbedPlanar(g *Graph) (*Graph, error) { return planarity.Embed(g) }

// ErrNotPlanar reports that a graph has no planar embedding.
var ErrNotPlanar = planarity.ErrNotPlanar

// ConnectivityResult reports a vertex connectivity decision.
type ConnectivityResult = conn.Result

// VertexConnectivity decides the vertex connectivity of the planar graph
// g in O(n log n) work and O(log² n) depth (Lemma 5.2). Graphs without
// an embedding are embedded first (EmbedPlanar); non-planar inputs
// return ErrNotPlanar. Reported cuts always verify; the connectivity
// value is exact, except at MaxRuns 1, where it holds w.h.p.
func VertexConnectivity(g *Graph, opt Options) (ConnectivityResult, error) {
	return conn.VertexConnectivity(g, conn.Options{
		Seed:    opt.Seed,
		MaxRuns: opt.MaxRuns,
		Tracker: opt.Tracker,
	})
}

// VerifyCut checks that removing the given vertices disconnects g. A cut
// naming a vertex outside g or one vertex twice does not verify.
func VerifyCut(g *Graph, cut []int32) bool {
	return conn.VerifyCut(g, cut)
}

// ErrPatternTooLarge is returned when the pattern exceeds the engine
// capacity (MaxPatternSize vertices).
var ErrPatternTooLarge = core.ErrPatternTooLarge

// ErrDisconnectedPattern is returned by operations that require a
// connected pattern (listing, counting, separating search).
var ErrDisconnectedPattern = core.ErrDisconnectedPattern

// ErrTerminalMask is returned by DecideSeparating (package-level and on
// an Index) when the terminal mask's length is not the target's vertex
// count.
var ErrTerminalMask = core.ErrTerminalMask

// MaxPatternSize is the largest supported pattern (the DP packs pattern
// vertices into 16-bit masks).
const MaxPatternSize = 16
