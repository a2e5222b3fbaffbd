package index

// Artifact generations: the copy-on-write layer beneath live edge
// mutation (ApplyEdits). Everything derived from the target graph — the
// graph itself, its lazy planar embedding, and the three memoized
// artifact tables — lives in a generation. The Index holds an atomic
// pointer to the current one; a query pins exactly one generation for
// its whole life, so it always sees one consistent (graph, artifacts)
// world even while edits land concurrently. ApplyEdits builds a
// successor generation off to the side (migrating every completed entry
// either verbatim or rebuilt), swaps the pointer, and retires the old
// generation, which is then held alive only by the queries still
// draining on it.
//
// The generation carries the three memo tables (see memo.go) and the
// CoverSource implementation the core pipeline consumes.

import (
	"math"
	"sync"
	"sync/atomic"

	"planarsi/internal/core"
	"planarsi/internal/estc"
	"planarsi/internal/graph"
	"planarsi/internal/planarity"
)

// generation is one immutable-graph world: target graph, lazy embedding,
// and the memoized artifact tables built against that graph. epoch
// counts the edit batches applied before this generation existed; refs
// counts its pins (one for being current, plus one per in-flight query).
type generation struct {
	ix    *Index
	epoch uint64
	g     *graph.Graph

	// embedOnce computes the target's planar embedding at most once
	// (queries do not need it, so it is lazy). embedDone flags a
	// completed build so Reset can carry the embedding into its
	// replacement generation; embedBytes publishes the embedded copy's
	// footprint for Stats.
	embedOnce  sync.Once
	embedDone  atomic.Bool
	embedded   *graph.Graph
	embedErr   error
	embedBytes atomic.Int64

	clusters *memo[clusterKey, *estc.Clustering]
	plain    *memo[coverKey, *core.PreparedCover]
	sep      *memo[coverKey, *core.PreparedCover]

	// refs is the pin count; retired marks a generation that has been
	// swapped out. When a retired generation's last pin drops, drainOnce
	// decrements the Index's retired-generation gauge exactly once.
	refs      atomic.Int64
	retired   atomic.Bool
	drainOnce sync.Once
}

// newGeneration builds an empty generation for g at the given epoch,
// pre-pinned once for its tenure as the current generation.
func (ix *Index) newGeneration(epoch uint64, g *graph.Graph) *generation {
	gen := &generation{
		ix:       ix,
		epoch:    epoch,
		g:        g,
		clusters: newMemo[clusterKey, *estc.Clustering](&ix.memo[memoClustering]),
		plain:    newMemo[coverKey, *core.PreparedCover](&ix.memo[memoPlainCover]),
		sep:      newMemo[coverKey, *core.PreparedCover](&ix.memo[memoSepCover]),
	}
	gen.refs.Store(1)
	return gen
}

// acquire pins the current generation and returns it. The load-pin-check
// loop guarantees the returned generation was current at pin time, so a
// query that pins before an edit's swap drains on the pre-edit world and
// one that pins after sees the post-edit world — never a mixture.
func (ix *Index) acquire() *generation {
	for {
		gen := ix.cur.Load()
		gen.refs.Add(1)
		if ix.cur.Load() == gen {
			return gen
		}
		ix.release(gen)
	}
}

// release drops one pin. The last pin of a retired generation marks it
// drained (the artifacts themselves are reclaimed by the garbage
// collector once the query lets go of them).
func (ix *Index) release(gen *generation) {
	if gen.refs.Add(-1) == 0 && gen.retired.Load() {
		gen.drainOnce.Do(func() { ix.retiredGens.Add(-1) })
	}
}

// retire swaps gen out of currency: it is counted retired and its
// current-pin is dropped. Callers must already have published the
// successor via ix.cur.Store and hold editMu.
func (ix *Index) retire(gen *generation) {
	ix.retiredGens.Add(1)
	gen.retired.Store(true)
	ix.release(gen)
}

// embed computes the generation's planar embedding once.
func (gen *generation) embed() {
	gen.embedOnce.Do(func() {
		gen.embedded, gen.embedErr = planarity.Embed(gen.g)
		if gen.embedded != nil && gen.embedded != gen.g {
			gen.embedBytes.Store(gen.embedded.MemBytes())
		}
		gen.embedDone.Store(true)
	})
}

// adoptEmbedding installs a previously computed embedding result,
// pre-firing embedOnce. Reset uses it so replacing the artifact tables
// does not discard the (graph-determined) embedding.
func (gen *generation) adoptEmbedding(from *generation) {
	if !from.embedDone.Load() {
		return
	}
	gen.embedOnce.Do(func() {
		gen.embedded = from.embedded
		gen.embedErr = from.embedErr
		gen.embedBytes.Store(from.embedBytes.Load())
		gen.embedDone.Store(true)
	})
}

// completed visits every completed entry of the generation's tables:
// plain and separating covers first (cover), then clusterings (cluster).
// The tables lock separately, and a cover completes only after its
// clustering, so this order guarantees that every visited cover's
// clustering is visited too. Stats, MemoStats, Snapshot and migration
// all list the tables through here. Each visit runs under its table's
// lock (see memo.each).
func (gen *generation) completed(cover func(memoEntry[coverKey, *core.PreparedCover]), cluster func(memoEntry[clusterKey, *estc.Clustering])) {
	gen.plain.each(cover)
	gen.sep.each(cover)
	gen.clusters.each(cluster)
}

// clustering returns the memoized ESTC clustering for (beta, run).
func (gen *generation) clustering(beta float64, run int) *estc.Clustering {
	return gen.clusters.get(clusterKey{math.Float64bits(beta), run}, func() *estc.Clustering {
		return core.ClusterRun(gen.g, beta, run, gen.ix.opt)
	})
}

// Prepared implements core.CoverSource against this generation's graph:
// the memoized prepared cover for run `run` of pattern shape (k, d),
// plain when s is nil and separating for terminal set s otherwise,
// identical to the one core.PrepareRun (PrepareSeparatingRun) would
// build fresh. Both kinds share the memoized (beta, run) clustering.
//
// Runs past the decide budget are built fresh and not cached: the
// listing loop's adaptive stopping rule (Theorem 4.2) can push run
// indices arbitrarily far on occurrence-rich targets, and memoizing that
// tail would grow the cache without bound. Identity of answers is
// unaffected — a fresh build equals a cached one by construction.
// (Separating searches stop at the budget, so only plain runs get
// there.)
func (gen *generation) Prepared(s []bool, k, d, run int) *core.PreparedCover {
	key, t := coverKey{k: k, d: d, run: run, sep: s != nil, mask: packMask(s)}, gen.plain
	if key.sep {
		t = gen.sep
	}
	beta := core.CoverBeta(k, gen.ix.opt)
	if run >= core.RunBudget(gen.g.N(), gen.ix.opt) {
		return t.uncached(func() *core.PreparedCover {
			pc, _, _ := gen.prepare(key, core.ClusterRun(gen.g, beta, run, gen.ix.opt), nil)
			return pc
		})
	}
	return t.get(key, func() *core.PreparedCover {
		pc, _, _ := gen.prepare(key, gen.clustering(beta, run), nil)
		return pc
	})
}

// prepare builds key's cover on this generation's graph from the
// clustering cl, reusing the unchanged bands of prev, the key's cover
// before an edge edit, when prev is non-nil (see
// core.PrepareFromClustering).
func (gen *generation) prepare(key coverKey, cl *estc.Clustering, prev *core.PreparedCover) (*core.PreparedCover, int, int) {
	return core.PrepareFromClustering(gen.g, cl, unpackMask(key.mask, gen.g.N()), prev, key.k, key.d, gen.ix.opt)
}
