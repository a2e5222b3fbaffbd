package core

import (
	"fmt"
	"math"
	"sync"

	"planarsi/internal/cover"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/naive"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/pmdag"
)

// Band sweeps: every query runs the paper's loop — cover the target with
// bounded-treewidth bands, solve each band exactly, combine — for a group
// of connected patterns of one (k, d) shape, and a solo query is a group
// of one. Each cover repetition is prepared once per group and each
// band's decomposition is walked once for all of the group's open
// patterns (match.RunMulti / pmdag.RunMulti). Answers, Stats
// contributions, cost flushes and work counters are per pattern exactly
// what the pattern would produce alone; only the tree/path walks and the
// per-(G, ND) metadata are shared. Per-pattern band-local cancellers keep
// each pattern's early exit: a pattern certified in one band drops out of
// its sibling bands (and of later runs) without stopping its batch-mates.

// checkGroup enforces the group contract — connected patterns sharing one
// (k, d) shape, 2 <= k <= min(n, match.MaxK). The Index's batch grouping
// guarantees it and trivial patterns are the caller's; violations are
// caller bugs.
func checkGroup(g *graph.Graph, hs []*graph.Graph) {
	k, d := hs[0].N(), graph.Diameter(hs[0])
	if k < 2 || k > match.MaxK || k > g.N() {
		panic(fmt.Sprintf("core: group sweep requires 2 <= k <= min(n, %d), got k=%d n=%d", match.MaxK, k, g.N()))
	}
	for _, h := range hs {
		if _, l := graph.Components(h); l > 1 {
			panic("core: group sweep requires connected patterns")
		}
		if h.N() != k || graph.Diameter(h) != d {
			panic("core: group sweep requires patterns of one (k, d) shape")
		}
	}
}

// DecideGroupFrom decides every pattern of hs — connected, all of one
// (k, d) shape — against g in shared sweeps. The returned slice is
// positionally aligned with hs and each entry equals what DecideFrom
// would return for that pattern alone (true answers exact, false answers
// w.h.p.).
func DecideGroupFrom(src CoverSource, g *graph.Graph, hs []*graph.Graph, opt Options) ([]bool, error) {
	if len(hs) == 0 {
		return nil, nil
	}
	checkGroup(g, hs)
	hits, err := witnessRuns(src.Prepared, g.N(), hs, decideWitness, opt)
	if err != nil {
		return nil, err
	}
	found := make([]bool, len(hs))
	for j, occ := range hits {
		found[j] = occ != nil
	}
	return found, nil
}

// CountGroupFrom counts the occurrences of every pattern of hs —
// connected, one (k, d) shape — in shared listing sweeps. The returned
// counts (aligned with hs) equal CountFrom's solo answers.
func CountGroupFrom(src CoverSource, g *graph.Graph, hs []*graph.Graph, opt Options) ([]int, error) {
	if len(hs) == 0 {
		return nil, nil
	}
	checkGroup(g, hs)
	found, err := listRuns(src.Prepared, g.N(), hs, opt)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(hs))
	for j := range counts {
		counts[j] = len(found[j])
	}
	return counts, nil
}

// witnessKind selects what the witness sweep certifies per pattern.
type witnessKind uint8

const (
	// decideWitness answers Theorem 2.1's yes/no: the band DPs run
	// DecideOnly (the engines recycle consumed child sets, so peak memory
	// per band is the active decomposition frontier) and only the root's
	// Found is read.
	decideWitness witnessKind = iota
	// findWitness extracts one occurrence per pattern.
	findWitness
	// separatingWitness extracts one S-separating occurrence (Lemma 5.3)
	// from separating covers, with the Section 5.2.2 labelled DP. Like
	// find, its bands keep full sets for Enumerate: running them
	// DecideOnly would need a second full solve of the certifying band
	// to extract the witness.
	separatingWitness
)

// engineWitness reads a pattern's certificate off its solved band engine,
// nil when the band holds none. A decide hit is certified by an empty
// assignment: only its presence matters.
func (w witnessKind) engineWitness(eng *match.Result) match.Assignment {
	if w == decideWitness {
		if eng.Found() {
			return match.Assignment{}
		}
		return nil
	}
	if as := eng.Enumerate(1); len(as) > 0 {
		return as[0]
	}
	return nil
}

// fallbackWitness is engineWitness for a band too wide for the engines:
// the exact naive baseline on the band graph, with the separation
// condition tested directly on separating minors.
func (w witnessKind) fallbackWitness(b *cover.Band, h *graph.Graph) match.Assignment {
	if w == separatingWitness {
		return separatingBrute(b, h)
	}
	if as := naive.Search(b.G, h, naive.Options{Limit: 1}); len(as) > 0 {
		return as[0]
	}
	return nil
}

// witnessRuns is the run loop of decide (Theorem 2.1), find and
// separating (Lemma 5.3): up to MaxRuns covers from prepared, each swept
// once for every pattern of hs still without a witness. Entry j of
// the result is pattern j's witness in original vertex ids, or nil when
// the run budget found none (correct w.h.p.). The patterns must be
// connected and share one (k, d) shape.
func witnessRuns(prepared func(k, d, run int) *PreparedCover, n int, hs []*graph.Graph, kind witnessKind, opt Options) ([]Occurrence, error) {
	k, d := hs[0].N(), graph.Diameter(hs[0])
	hits := make([]Occurrence, len(hs))
	open := len(hs)
	for run, runs := 0, opt.maxRuns(n); run < runs && open > 0; run++ {
		if opt.Cancel.Cancelled() {
			return nil, par.ErrCancelled
		}
		t0 := opt.Trace.Begin()
		pc := prepared(k, d, run)
		tracePrepare(opt, run, t0, pc)
		// Stats stay per logical pattern: every pattern still searching
		// charges this repetition exactly as a solo run would.
		for _, occ := range hits {
			if occ == nil {
				opt.addRun(len(pc.Bands))
			}
		}
		open = witnessSweep(pc, hs, hits, kind, run, opt)
	}
	if open > 0 {
		// The last sweep may have been felled mid-flight: a negative
		// answer is only trustworthy when every band ran to completion.
		if err := opt.Cancel.Err(); err != nil {
			return nil, err
		}
	}
	return hits, nil
}

// witnessSweep solves every band of pc once for the patterns of hs still
// without a witness, records the first witness each pattern is certified
// by, and returns how many patterns remain open.
//
// Each open pattern owns a band-local child canceller: the band that
// certifies pattern j fires j's token, so j's DP in sibling bands
// abandons at its next node/path checkpoint (or never starts) while its
// batch-mates sweep on. The children inherit the request token, so a
// gone client fells every band the same way.
//
// Every band emits exactly one "band" trace span (skipped and cancelled
// ones included, with the outcome in the note), so a traced query's
// band-span count equals its Stats.Bands contribution.
func witnessSweep(pc *PreparedCover, hs []*graph.Graph, hits []Occurrence, kind witnessKind, run int, opt Options) int {
	cancels := make([]*par.Canceller, len(hs))
	for j, occ := range hits {
		if occ == nil {
			cancels[j] = par.NewChild(opt.Cancel)
		}
	}
	k := hs[0].N()
	var mu sync.Mutex
	bands := pc.Bands
	par.ForGrain(0, len(bands), 1, func(i int) {
		injectBandFaults()
		pb := &bands[i]
		t0 := opt.Trace.Begin()
		// Patterns still in play: open at the sweep's start, token unfired.
		// pb.Band is nil when a cancelled prepare skipped the band; the
		// token is observed fired before any such band is reached.
		var act []int
		for j, c := range cancels {
			if c != nil && !c.Cancelled() {
				act = append(act, j)
			}
		}
		if len(act) == 0 || pb.Band == nil || pb.Band.G.N() < k {
			opt.Trace.Span("band", run, i, t0, "skipped")
			return
		}
		engs, solved := solveBand(pb, hs, act, cancels, kind == separatingWitness, kind == decideWitness, opt)
		// Per-pattern cost snapshots feed the query sinks once each and
		// the band span carries their sum. Fallback bands cost zero: the
		// naive search is outside the state machinery the counters price.
		var total obs.Cost
		found, cancelled := 0, 0
		for idx, j := range act {
			if solved {
				// Felled DPs keep their partial cost: the work was done.
				cost := engs[idx].Problem().Cost.Snapshot()
				opt.addBandCost(cost)
				total.Accumulate(cost)
			}
			// A fired token means j's DP may have aborted mid-run (its
			// partial result must not be read), and j is already certified
			// elsewhere or the query is dying — so an uncancellable naive
			// fallback is not started either.
			if cancels[j].Cancelled() {
				cancelled++
				continue
			}
			var a match.Assignment
			if solved {
				a = kind.engineWitness(engs[idx])
			} else {
				a = kind.fallbackWitness(pb.Band, hs[j])
			}
			if a == nil {
				continue
			}
			found++
			occ := toOriginal(pb.Band, a)
			mu.Lock()
			if hits[j] == nil {
				hits[j] = occ
			}
			mu.Unlock()
			cancels[j].Cancel()
		}
		if opt.Trace != nil {
			opt.Trace.SpanCost("band", run, i, t0, witnessNote(solved, found, cancelled, len(act)), total)
		}
	})
	open := 0
	for _, occ := range hits {
		if occ == nil {
			open++
		}
	}
	return open
}

// witnessNote renders a witness band's span note: "cancelled" when every
// active pattern was felled, else "found" / "miss" for a single pattern
// and "found=F/A" for a group of A, prefixed "fallback:" on bands the
// naive baseline solved.
func witnessNote(solved bool, found, cancelled, active int) string {
	if cancelled == active {
		return "cancelled"
	}
	note := "miss"
	switch {
	case active > 1:
		note = fmt.Sprintf("found=%d/%d", found, active)
	case found > 0:
		note = "found"
	}
	if !solved {
		note = "fallback:" + note
	}
	return note
}

// solveBand runs the band solver once over pb's decomposition for the
// patterns act of hs, pattern j under token cancels[j]. The sequential
// engine serves separating mode (the path-DAG engine's state universes
// carry no separating labels) and EngineSequential; the path-DAG engine
// serves the rest. solved=false signals that the decomposition exceeded
// the engines' bag capacity and the caller must use the naive fallback;
// Stats are charged per pattern either way. The prepared band is only
// read, so concurrent queries may share it.
func solveBand(pb *PreparedBand, hs []*graph.Graph, act []int, cancels []*par.Canceller, separating, decideOnly bool, opt Options) ([]*match.Result, bool) {
	opt.noteWidth(pb.Width)
	if pb.Fallback {
		for range act {
			opt.noteFallback()
		}
		return nil, false
	}
	b := pb.Band
	ps := make([]*match.Problem, len(act))
	for idx, j := range act {
		// Each pattern gets its own cost counter so the band's cost can be
		// attributed to its span before folding into the query totals; nil
		// when no sink wants cost, keeping the engines' flush sites on the
		// single-nil-check path.
		var bc *obs.CostCounter
		if opt.costed() {
			bc = new(obs.CostCounter)
		}
		ps[idx] = &match.Problem{G: b.G, H: hs[j], ND: pb.ND, Allowed: b.Allowed, S: b.S,
			Separating: separating, DecideOnly: decideOnly, Cancel: cancels[j],
			Trace: opt.Trace, Cost: bc}
	}
	if separating || opt.Engine == EngineSequential {
		return match.RunMulti(ps, opt.Tracker), true
	}
	rs, _ := pmdag.RunMulti(ps, pmdag.Config{}, opt.Tracker)
	return rs, true
}

// listRuns is the Theorem 4.2 repetition loop: each run's cover is
// prepared once and enumerated in one sweep for every pattern still
// listing. Every pattern keeps its own dedupe set (entry j of the result,
// keyed by Occurrence.Key) and its own stopping streak, so it collects
// exactly what its solo listing would; a pattern stops once log2(j) +
// Θ(log n) consecutive iterations found nothing new (Observation 2
// bounds the probability that such a streak hides an unfound
// occurrence) or MaxRuns is reached, and drops out of later sweeps.
func listRuns(prepared func(k, d, run int) *PreparedCover, n int, hs []*graph.Graph, opt Options) ([]map[string]Occurrence, error) {
	k, d := hs[0].N(), graph.Diameter(hs[0])
	found := make([]map[string]Occurrence, len(hs))
	streak := make([]int, len(hs))
	act := make([]int, len(hs))
	for j := range hs {
		found[j] = make(map[string]Occurrence)
		act[j] = j
	}
	logN := math.Log2(float64(n) + 2)
	for run := 0; len(act) > 0; run++ {
		if opt.Cancel.Cancelled() {
			return nil, par.ErrCancelled
		}
		t0 := opt.Trace.Begin()
		pc := prepared(k, d, run)
		tracePrepare(opt, run, t0, pc)
		for range act {
			opt.addRun(len(pc.Bands))
		}
		occs := enumerateSweep(pc, hs, act, run, opt)
		// Every active pattern has run exactly run+1 iterations: all
		// start at run 0 and stop by dropping out.
		iters := run + 1
		threshold := int(math.Ceil(math.Log2(float64(iters)+1))) + int(math.Ceil(2*logN)) + 1
		next := act[:0]
		for idx, j := range act {
			added := 0
			for _, o := range occs[idx] {
				key := o.Key()
				if _, dup := found[j][key]; !dup {
					found[j][key] = o
					added++
				}
			}
			if added > 0 {
				streak[j] = 0
			} else {
				streak[j]++
			}
			if streak[j] < threshold && (opt.MaxRuns <= 0 || iters < opt.MaxRuns) {
				next = append(next, j)
			}
		}
		act = next
	}
	// A token that fired during the last iterations may have truncated
	// enumeration (bands silently skip when cancelled), so the stopping
	// rule could have fired on incomplete sets. Never return partial data
	// with a nil error.
	if err := opt.Cancel.Err(); err != nil {
		return nil, err
	}
	return found, nil
}

// enumerateSweep lists, per pattern of act (the result is aligned with
// it), every occurrence contained in some band of pc, in original vertex
// ids, walking each band's decomposition once for the whole group.
// Following Section 4.2.1, only occurrences touching a band's lowest BFS
// level are reported, so each occurrence inside a cluster is produced by
// exactly one band; this keeps the per-run work proportional to the
// number of occurrences rather than d times it.
func enumerateSweep(pc *PreparedCover, hs []*graph.Graph, act []int, run int, opt Options) [][]Occurrence {
	// Enumeration has no per-pattern early exit (all occurrences are
	// needed), so every pattern runs under the query token.
	cancels := make([]*par.Canceller, len(hs))
	for j := range cancels {
		cancels[j] = opt.Cancel
	}
	k := hs[0].N()
	bands := pc.Bands
	results := make([][][]Occurrence, len(bands))
	par.ForGrain(0, len(bands), 1, func(i int) {
		injectBandFaults()
		pb := &bands[i]
		t0 := opt.Trace.Begin()
		if opt.Cancel.Cancelled() || pb.Band == nil {
			opt.Trace.Span("band", run, i, t0, "skipped")
			return
		}
		b := pb.Band
		out := make([][]Occurrence, len(act))
		var total obs.Cost
		if b.G.N() >= k {
			engs, solved := solveBand(pb, hs, act, cancels, false, false, opt)
			for idx, j := range act {
				var local []match.Assignment
				if !solved {
					for _, a := range naive.Search(b.G, hs[j], naive.Options{}) {
						local = append(local, a)
					}
				} else {
					cost := engs[idx].Problem().Cost.Snapshot()
					opt.addBandCost(cost)
					total.Accumulate(cost)
					if opt.Cancel.Cancelled() {
						// Partial DP: Enumerate would be unsound, and the
						// caller's error path discards the sweep anyway.
						continue
					}
					local = engs[idx].Enumerate(0)
				}
				out[idx] = bandOccurrences(b, local)
			}
		}
		results[i] = out
		if opt.Trace != nil {
			// The occurrence count is only rendered on traced queries;
			// unexercised fmt stays off the untraced path.
			n := 0
			for _, o := range out {
				n += len(o)
			}
			opt.Trace.SpanCost("band", run, i, t0, fmt.Sprintf("occs=%d", n), total)
		}
	})
	out := make([][]Occurrence, len(act))
	for _, r := range results {
		for idx := range r {
			out[idx] = append(out[idx], r[idx]...)
		}
	}
	return out
}

// bandOccurrences translates a band's local assignments that touch its
// lowest level into original-id occurrences.
func bandOccurrences(b *cover.Band, local []match.Assignment) []Occurrence {
	var out []Occurrence
	for _, a := range local {
		if touchesLowest(b.LowestLevelLocal, a) {
			out = append(out, toOriginal(b, a))
		}
	}
	return out
}

// toOriginal translates a band-local assignment to original vertex ids.
func toOriginal(b *cover.Band, a match.Assignment) Occurrence {
	occ := make(Occurrence, len(a))
	for u, lv := range a {
		occ[u] = b.Orig[lv]
	}
	return occ
}

func touchesLowest(lowest []bool, a match.Assignment) bool {
	for _, lv := range a {
		if lv >= 0 && lowest[lv] {
			return true
		}
	}
	return false
}
