// Package index implements the shared-preprocessing batch-query engine:
// an Index preprocesses one target graph and serves many pattern queries
// over cached pipeline artifacts.
//
// The paper's pipeline spends almost all of its target-side work on
// preprocessing — ESTC clustering (Lemma 2.3), the treewidth k-d cover
// (Theorem 2.4) and the nice tree decompositions of its bands — while the
// per-pattern dynamic program is comparatively cheap. The one-shot API
// (core.Decide and friends) rebuilds all of it per call; an Index builds
// each artifact at most once and reuses it for every query against the
// same target, the preprocess-once/query-many shape of Eppstein's JGAA
// 1999 formulation.
//
// Caching is sound because core derives run i's randomness as a pure
// function of (Seed, stream, run) and all prepared artifacts are
// immutable: an Index returns exactly the covers a fresh pipeline would
// build, so answers with and without the Index are identical for equal
// Options.
//
// The Index memoizes prepared covers, nothing else. Covers are keyed
//
//   - plain prepared covers by (k, d, run);
//   - separating prepared covers by (k, d, run, terminal set).
//
// A cover build clusters the target for its run (core.ClusterRun) and
// cuts and decomposes the cover from that clustering, exactly as the
// one-shot path does; the clustering is O(n) and is not kept. On the
// default path run is 0 (ESTC) or 1 (the layered cover every miss and
// every listing ends with), so a shape holds at most two covers
// whatever the run budget (core.CoverRuns).
//
// Seed and Heuristic are fixed per Index (they are part of its Options),
// so they need not appear in the keys. All methods are safe for
// concurrent use: each cover class lives in one memo table (see
// memo.go) whose lookups take a short lock and whose builds run once per
// key, so two goroutines asking for the same cover build it once and
// share it.
//
// The target is live: ApplyEdits applies a batch of edge insertions and
// deletions, advancing the Index to a new epoch. Artifacts live in
// copy-on-write generations (see generation.go); every query pins one
// generation for its whole life, so in-flight scans finish against the
// consistent pre-edit world while new queries see the post-edit one.
// Invalidation is surgical — only artifacts the edit actually changed are
// rebuilt (see edits.go) — and the survivors are bit-identical to a
// fresh build on the edited graph.
package index

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"planarsi/internal/core"
	"planarsi/internal/fault"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// Index preprocesses a target graph and answers repeated subgraph
// isomorphism queries over shared, memoized pipeline artifacts. Build one
// with New; the zero value is not usable.
type Index struct {
	opt core.Options

	// cur points at the live artifact generation (graph + embedding +
	// memo tables). ApplyEdits and Reset replace it copy-on-write under
	// editMu; queries pin a generation via acquire/release and never mix
	// two of them. retiredGens gauges swapped-out generations still
	// pinned by draining queries.
	cur         atomic.Pointer[generation]
	editMu      sync.Mutex
	retiredGens atomic.Int64

	// queries counts answered queries (one per pattern, including each
	// pattern of a batched scan) for the Index's whole lifetime; Reset
	// does not clear it. sweeps counts physical DP dispatches: a batched
	// scan that groups p isomorphic patterns into one shared sweep adds p
	// to queries but 1 to sweeps, so queries/sweeps measures batching
	// leverage. Reset does not clear sweeps either.
	queries atomic.Uint64
	sweeps  atomic.Uint64

	// memo holds the per-artifact-class cache-traffic counters behind
	// MemoStats (hits, misses, build time); residency lives in the
	// generation's memo tables, which charge these counters.
	memo [numMemoClasses]memoCounters

	// inval holds the per-class invalidation counters ApplyEdits
	// advances: how many migrated artifacts were retained verbatim vs
	// rebuilt, cumulative over the Index's lifetime.
	inval [numInvalClasses]invalCounters
}

// coverKey keys both cover tables. sep marks a separating cover, whose
// terminal set mask is packed into a byte string (packMask): an exact
// key, so distinct terminal sets can never collide. Plain covers leave
// both zero.
type coverKey struct {
	k, d, run int
	sep       bool
	mask      string
}

// New builds an Index over the target g with the given pipeline options.
// Construction itself is O(1): covers and band decompositions are built
// lazily on first use and memoized for the
// Index's lifetime (use Prewarm to pay the cost up front). Options.Seed
// fixes the Index's randomness — an Index answers exactly as the one-shot
// API would with the same Options.
func New(g *graph.Graph, opt core.Options) *Index {
	ix := &Index{opt: opt}
	ix.cur.Store(ix.newGeneration(0, g))
	return ix
}

// Graph returns the Index's current target: the original graph passed to
// New, as edited by every ApplyEdits batch applied since.
func (ix *Index) Graph() *graph.Graph { return ix.cur.Load().g }

// Epoch returns the Index's edit-generation counter: 0 for a fresh
// build, +1 per applied edit batch. Snapshots persist it, so a restored
// Index resumes its mutation history.
func (ix *Index) Epoch() uint64 { return ix.cur.Load().epoch }

// RetiredGenerations reports how many superseded artifact generations
// are still pinned by draining queries. It is 0 whenever the Index is
// quiescent — old generations are released as soon as their last
// in-flight query finishes.
func (ix *Index) RetiredGenerations() int64 { return ix.retiredGens.Load() }

// Planar reports whether the target admits a planar embedding, computing
// (and caching) the embedding on first call. The query pipeline stays
// correct on non-planar targets — only the Theorem 2.4 treewidth bound,
// and with it the work guarantee, needs planarity.
func (ix *Index) Planar() bool {
	gen := ix.acquire()
	defer ix.release(gen)
	gen.embed()
	return gen.embedErr == nil
}

// Embedded returns the target carrying a combinatorial planar embedding
// (rotation system), or planarity.ErrNotPlanar. The embedding is computed
// once per generation and cached.
func (ix *Index) Embedded() (*graph.Graph, error) {
	gen := ix.acquire()
	defer ix.release(gen)
	gen.embed()
	return gen.embedded, gen.embedErr
}

// packMask renders a bool mask as a compact comparable string; a nil
// mask (a plain cover's) renders as "".
func packMask(s []bool) string {
	b := make([]byte, (len(s)+7)/8)
	for i, in := range s {
		if in {
			b[i/8] |= 1 << uint(i%8)
		}
	}
	return string(b)
}

// unpackMask inverts packMask for an n-vertex target.
func unpackMask(s string, n int) []bool {
	if s == "" {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		if i/8 < len(s) && s[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = true
		}
	}
	return out
}

// queryOptions derives one query's pipeline Options from the Index's,
// attaching a cancellation token watching ctx plus the ctx's span
// recorder (obs.WithRecorder) and cost counter (obs.WithCost) when the
// query carries them. The returned stop func must be deferred by the
// caller. Cached artifact builds always run with the Index's own
// token-free Options (see generation.Prepared), so a cancelled query can
// never leave a partial artifact behind — only the query's own dynamic
// programs are abandoned.
func (ix *Index) queryOptions(ctx context.Context) (core.Options, func()) {
	opt := ix.opt
	opt.Trace = obs.FromContext(ctx)
	opt.Cost = obs.CostFromContext(ctx)
	if ctx == nil || ctx.Done() == nil {
		return opt, func() {}
	}
	c, stop := par.WatchContext(ctx)
	opt.Cancel = c
	return opt, stop
}

// ctxErr translates the pipeline's cooperative-cancellation sentinel
// into the context's own error at the API boundary.
func ctxErr(ctx context.Context, err error) error {
	if errors.Is(err, par.ErrCancelled) && ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// query is the preamble of every single-pattern query: it charges one
// query and one sweep, passes the query fault checkpoint, pins the
// current generation and runs body with the query's Options, translating
// a cancellation into ctx's error.
func query[T any](ctx context.Context, ix *Index, body func(gen *generation, opt core.Options) (T, error)) (T, error) {
	ix.queries.Add(1)
	ix.sweeps.Add(1)
	fault.Check(fault.QueryPanic)
	gen := ix.acquire()
	defer ix.release(gen)
	opt, stop := ix.queryOptions(ctx)
	defer stop()
	v, err := body(gen, opt)
	return v, ctxErr(ctx, err)
}

// Decide reports whether the pattern h occurs in the target. Answers
// equal core.Decide's for the Index's Options: exact, except for false
// answers at MaxRuns 1, under PaperLoop or for disconnected patterns
// whose components each occur, which hold w.h.p.
func (ix *Index) Decide(h *graph.Graph) (bool, error) {
	return ix.DecideCtx(context.Background(), h)
}

// DecideCtx is Decide honoring ctx: when the context is cancelled or
// times out mid-query, the dynamic programs running across the cover's
// bands stop at their next checkpoint and the context's error is
// returned. Cancellation never changes answers — rerunning with a live
// context returns exactly what an unwatched Decide would.
func (ix *Index) DecideCtx(ctx context.Context, h *graph.Graph) (bool, error) {
	return query(ctx, ix, func(gen *generation, opt core.Options) (bool, error) {
		return core.DecideFrom(gen, gen.g, h, opt)
	})
}

// FindOccurrence returns one occurrence of the connected pattern h, or
// nil when the search found none (exact as Decide's negatives are).
func (ix *Index) FindOccurrence(h *graph.Graph) (core.Occurrence, error) {
	return ix.FindOccurrenceCtx(context.Background(), h)
}

// FindOccurrenceCtx is FindOccurrence honoring ctx (see DecideCtx).
func (ix *Index) FindOccurrenceCtx(ctx context.Context, h *graph.Graph) (core.Occurrence, error) {
	return query(ctx, ix, func(gen *generation, opt core.Options) (core.Occurrence, error) {
		return core.FindOneFrom(gen, gen.g, h, opt)
	})
}

// ListOccurrences returns every occurrence of the connected pattern h,
// each once, as core.List does.
func (ix *Index) ListOccurrences(h *graph.Graph) ([]core.Occurrence, error) {
	return ix.ListOccurrencesCtx(context.Background(), h)
}

// ListOccurrencesCtx is ListOccurrences honoring ctx (see DecideCtx).
func (ix *Index) ListOccurrencesCtx(ctx context.Context, h *graph.Graph) ([]core.Occurrence, error) {
	return query(ctx, ix, func(gen *generation, opt core.Options) ([]core.Occurrence, error) {
		return core.ListFrom(gen, gen.g, h, opt)
	})
}

// CountOccurrences returns the number of occurrences of the connected
// pattern h, as core.Count does.
func (ix *Index) CountOccurrences(h *graph.Graph) (int, error) {
	return ix.CountOccurrencesCtx(context.Background(), h)
}

// CountOccurrencesCtx is CountOccurrences honoring ctx (see DecideCtx).
func (ix *Index) CountOccurrencesCtx(ctx context.Context, h *graph.Graph) (int, error) {
	return query(ctx, ix, func(gen *generation, opt core.Options) (int, error) {
		return core.CountFrom(gen, gen.g, h, opt)
	})
}

// DecideSeparating searches for an occurrence of the connected pattern h
// whose removal disconnects at least two vertices of the terminal set s
// (Lemma 5.3), returning a witness occurrence or nil.
func (ix *Index) DecideSeparating(h *graph.Graph, s []bool) (core.Occurrence, error) {
	return ix.DecideSeparatingCtx(context.Background(), h, s)
}

// DecideSeparatingCtx is DecideSeparating honoring ctx (see DecideCtx).
func (ix *Index) DecideSeparatingCtx(ctx context.Context, h *graph.Graph, s []bool) (core.Occurrence, error) {
	return query(ctx, ix, func(gen *generation, opt core.Options) (core.Occurrence, error) {
		return core.DecideSeparatingFrom(gen, gen.g, h, s, opt)
	})
}

// ScanResult is one pattern's answer in a batched scan.
type ScanResult struct {
	// Found reports whether the pattern occurs (Decide semantics).
	Found bool
	// Count is the occurrence count; populated by ScanCount only.
	Count int
	// Err is the pattern's own failure (e.g. an oversized pattern); it
	// does not abort the rest of the batch.
	Err error
}

// Scan decides every pattern of the batch over the shared
// preprocessing. Results are positionally aligned with patterns, and
// each equals what Decide would return for that pattern alone. A
// cancelled or expired ctx stops the in-flight dynamic programs of every
// pattern at their next checkpoint; affected patterns carry the
// context's error in their ScanResult.Err.
//
// The whole batch pins one artifact generation: every member is answered
// against the same target graph even when ApplyEdits lands mid-scan.
//
// Batch members inside the group contract (core.GroupShape) are
// canonicalized (match.CanonicalKey): isomorphic members dedupe into
// one query, and distinct members sharing a (size, diameter) shape run
// as one multi-pattern DP sweep — every decomposition is walked once for
// the whole group rather than once per pattern (see Stats.Sweeps).
// Grouping never changes answers: a deduped member gets the first
// isomorph's answer (Decide is isomorphism-invariant), and the shared
// sweep maintains per-pattern state sets identical to the solo runs'.
//
// Each pattern runs under a panic Guard: a panic beneath one member
// (carried off pool workers by par's scopes) becomes that member's
// ScanResult.Err — a *QueryPanicError — and its batch-mates still get
// their answers. A panic inside a sweep shared by two or more patterns
// costs only that sweep: its group is retried pattern by pattern, so one
// poisoned member cannot take down its shape-mates.
func (ix *Index) Scan(ctx context.Context, patterns []*graph.Graph) []ScanResult {
	return ix.scanBatch(ctx, patterns, false)
}

// ScanCount counts every pattern of the batch over the shared
// preprocessing. Each result's Count (and Found = Count > 0) equals what
// CountOccurrences would return for that pattern alone. Deduplication,
// shared sweeps, cancellation and panic isolation behave as in Scan.
func (ix *Index) ScanCount(ctx context.Context, patterns []*graph.Graph) []ScanResult {
	return ix.scanBatch(ctx, patterns, true)
}

// scanUniq is one distinct canonical pattern of a batch: the first
// member's original graph (so its answer is byte-identical to a solo
// run) plus every batch position holding an isomorph of it.
type scanUniq struct {
	h       *graph.Graph
	members []int
}

// scanShape keys group formation: connected batch members with equal
// vertex count and diameter share prepared covers and decompositions,
// so they can share one DP sweep.
type scanShape struct {
	k, d int
}

// scanBatch is the shared Scan/ScanCount engine. It classifies every
// member once (charging queries and the per-member fault point),
// dedupes isomorphic members, groups the rest by (k, d) shape and
// dispatches the resulting units — solo queries and multi-pattern group
// sweeps — concurrently, all against one pinned generation. The units
// run off the pool (see offPool) because each fetches memoized
// artifacts.
func (ix *Index) scanBatch(ctx context.Context, patterns []*graph.Graph, count bool) []ScanResult {
	out := make([]ScanResult, len(patterns))
	gen := ix.acquire()
	defer ix.release(gen)
	opt, stop := ix.queryOptions(ctx)
	defer stop()

	// Classify sequentially. Each member is charged one query and passes
	// one fault checkpoint here, whatever unit it later joins; a member
	// that panics here fails alone. Members outside the group contract go
	// solo through the unbatched pipeline, which answers them exactly as
	// a singleton query would. The rest dedupe by canonical key and group
	// by shape, in first-appearance order so dispatch is deterministic.
	var solos []int
	groups := make(map[scanShape][]*scanUniq)
	uniqs := make(map[string]*scanUniq)
	var order []scanShape
	for i, h := range patterns {
		ix.queries.Add(1)
		var sh scanShape
		var key string
		var ok bool
		err := Guard(func() error {
			fault.Check(fault.QueryPanic)
			if sh.k, sh.d, ok = core.GroupShape(gen.g, h); ok {
				key = match.CanonicalKey(h)
			}
			return nil
		})
		switch {
		case err != nil:
			out[i].Err = ctxErr(ctx, err)
		case !ok:
			solos = append(solos, i)
		case uniqs[key] != nil:
			uniqs[key].members = append(uniqs[key].members, i)
		default:
			u := &scanUniq{h: h, members: []int{i}}
			uniqs[key] = u
			if len(groups[sh]) == 0 {
				order = append(order, sh)
			}
			groups[sh] = append(groups[sh], u)
		}
	}

	// Dispatch all units concurrently — one per solo member, one per
	// shape group.
	offPool(len(solos)+len(order), func(u int) {
		if u < len(solos) {
			i := solos[u]
			ix.scanSolo(ctx, gen, patterns[i], count, opt, &out[i])
			return
		}
		ix.scanGroup(ctx, gen, groups[order[u-len(solos)]], count, opt, out)
	})
	return out
}

// scanSolo answers one pattern through the unbatched pipeline under its
// own Guard, writing the result in place. The caller has already
// charged the query, passed the fault checkpoint and pinned gen.
func (ix *Index) scanSolo(ctx context.Context, gen *generation, h *graph.Graph, count bool, opt core.Options, res *ScanResult) {
	ix.sweeps.Add(1)
	err := Guard(func() error {
		if count {
			c, err := core.CountFrom(gen, gen.g, h, opt)
			res.Found, res.Count = c > 0, c
			return err
		}
		found, err := core.DecideFrom(gen, gen.g, h, opt)
		res.Found = found
		return err
	})
	res.Err = ctxErr(ctx, err)
}

// scanGroup answers one shape group with one multi-pattern sweep over
// the group's representatives, a group of one included. If a sweep
// shared by two or more patterns panics, the group decomposes into
// per-pattern solo queries so one poisoned member cannot fail its
// shape-mates; a one-pattern group's panic is its pattern's error. Each
// distinct pattern's answer is scattered to all of its isomorphs.
func (ix *Index) scanGroup(ctx context.Context, gen *generation, us []*scanUniq, count bool, opt core.Options, out []ScanResult) {
	ix.sweeps.Add(1)
	hs := make([]*graph.Graph, len(us))
	for j, u := range us {
		hs[j] = u.h
	}
	var founds []bool
	var counts []int
	err := Guard(func() error {
		var err error
		if count {
			counts, err = core.CountGroupFrom(gen, gen.g, hs, opt)
		} else {
			founds, err = core.DecideGroupFrom(gen, gen.g, hs, opt)
		}
		return err
	})
	if errors.Is(err, ErrQueryPanic) && len(us) > 1 {
		for _, u := range us {
			var res ScanResult
			ix.scanSolo(ctx, gen, u.h, count, opt, &res)
			for _, m := range u.members {
				out[m] = res
			}
		}
		return
	}
	if err != nil {
		err = ctxErr(ctx, err)
		for _, u := range us {
			for _, m := range u.members {
				out[m].Err = err
			}
		}
		return
	}
	for j, u := range us {
		for _, m := range u.members {
			if count {
				out[m].Found, out[m].Count = counts[j] > 0, counts[j]
			} else {
				out[m].Found = founds[j]
			}
		}
	}
}

// Prewarm materializes, in parallel, every prepared cover a search of
// pattern shape (k = pattern size, d = pattern diameter) can draw
// (core.CoverRuns: run 0 and the layered cover on the default path, the
// whole run budget under PaperLoop), moving the preprocessing cost out
// of the first queries.
func (ix *Index) Prewarm(k, d int) {
	gen := ix.acquire()
	defer ix.release(gen)
	offPool(core.CoverRuns(gen.g.N(), ix.opt), func(run int) {
		gen.Prepared(nil, k, d, run)
	})
}

// offPool runs f(0), ..., f(n-1) on min(n, par.Parallelism()) plain
// goroutines, the caller's among them, that take indices from a shared
// counter. That is a par loop's concurrency without making any f a pool
// task, so f may fetch memoized artifacts (a memo get must never run in
// a pool task; see memo). The band, estc and cover loops beneath f still
// share the pool. As in a par loop, the first panic of any f is
// re-raised on the caller once every goroutine has stopped.
func offPool(n int, f func(i int)) {
	var next atomic.Int64
	var first atomic.Pointer[par.PanicError]
	work := func() {
		defer func() {
			if v := recover(); v != nil {
				pe, ok := v.(*par.PanicError)
				if !ok {
					pe = &par.PanicError{Value: v, Stack: debug.Stack()}
				}
				first.CompareAndSwap(nil, pe)
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for range min(n, par.Parallelism()) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}

// Stats is a point-in-time snapshot of an Index's cache contents, memory
// footprint and query traffic. The serving layer's LRU eviction charges an
// Index MemBytes + GraphBytes against its memory budget.
type Stats struct {
	// PlainCovers and SeparatingCovers count fully built memoized
	// covers (covers still under construction are excluded, so counts
	// and bytes always describe completed state).
	PlainCovers      int `json:"plainCovers"`
	SeparatingCovers int `json:"separatingCovers"`
	// Bands is the total number of prepared band decompositions across
	// the cached covers.
	Bands int `json:"bands"`
	// MemBytes approximates the heap held by the cached prepared covers,
	// which Reset can reclaim, excluding the target graph and its
	// embedding.
	MemBytes int64 `json:"memBytes"`
	// GraphBytes approximates the heap held by the target graph itself,
	// plus its cached planar embedding once one has been computed. The
	// embedding lives for the Index's lifetime (Reset does not drop it),
	// so eviction policies must treat these bytes as irreducible.
	GraphBytes int64 `json:"graphBytes"`
	// Queries counts queries answered over the Index's lifetime (each
	// pattern of a batched scan counts once); Reset does not clear it.
	Queries uint64 `json:"queries"`
	// Sweeps counts physical DP dispatches: a batched scan that groups p
	// isomorphic patterns into one shared sweep adds p to Queries but 1
	// to Sweeps, so Queries/Sweeps measures batching leverage. Singleton
	// queries add 1 to both. Reset does not clear it, and snapshots
	// persist it alongside Queries.
	Sweeps uint64 `json:"sweeps"`
	// Epoch counts applied edit batches (see ApplyEdits); snapshots
	// persist it so a warm boot resumes the mutation history.
	Epoch uint64 `json:"epoch"`
}

// Stats returns a snapshot of the Index's cache accounting. Only fully
// built artifacts are counted, so MemBytes equals the sum of MemBytes over
// the artifacts a caller could obtain from the cache right now.
func (ix *Index) Stats() Stats {
	gen := ix.acquire()
	defer ix.release(gen)
	st := Stats{
		GraphBytes: gen.g.MemBytes() + gen.embedBytes.Load(),
		Queries:    ix.queries.Load(),
		Sweeps:     ix.sweeps.Load(),
		Epoch:      gen.epoch,
	}
	gen.completed(func(e memoEntry) {
		if e.key.sep {
			st.SeparatingCovers++
		} else {
			st.PlainCovers++
		}
		st.Bands += len(e.val.Bands)
		st.MemBytes += e.bytes
	})
	return st
}

// Reset drops every memoized artifact, returning the Index to its
// just-built state (same graph, same epoch, cached embedding kept).
// In-flight queries keep the generation — and with it the immutable
// artifacts — they already pinned, so Reset is safe to call concurrently
// with queries.
func (ix *Index) Reset() {
	ix.editMu.Lock()
	old := ix.cur.Load()
	next := ix.newGeneration(old.epoch, old.g)
	next.adoptEmbedding(old)
	ix.cur.Store(next)
	ix.retire(old)
	ix.editMu.Unlock()
}
