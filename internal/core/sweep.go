package core

import (
	"fmt"
	"math"
	"slices"
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
// contributions, cost records and work counters are per pattern exactly
// what the pattern would produce alone; only the tree/path walks and the
// per-(G, ND) metadata are shared. Per-pattern band-local cancellers keep
// each pattern's early exit: a pattern certified in one band drops out of
// its sibling bands (and of later runs) without stopping its batch-mates.

// GroupShape is the group contract. It reports ok when the pattern h
// may join a group sweep against g: h is connected, 2 <= k <= min(n,
// match.MaxK) for its vertex count k, and h has at most g's edge count.
// Then d is h's diameter, and patterns of one shape (k, d) share every
// prepared cover. Any other pattern is trivial, oversized or
// disconnected, and the per-pattern entry points (DecideFrom,
// CountFrom) answer it.
func GroupShape(g, h *graph.Graph) (k, d int, ok bool) {
	k = h.N()
	if k < 2 || k > match.MaxK || k > g.N() || h.M() > g.M() || !graph.IsConnected(h) {
		return k, 0, false
	}
	return k, graph.Diameter(h), true
}

// checkGroup enforces the group contract (GroupShape) on every pattern
// of hs, all of one shape. The Index's batch grouping guarantees it;
// violations are caller bugs.
func checkGroup(g *graph.Graph, hs []*graph.Graph) {
	k, d, _ := GroupShape(g, hs[0])
	for _, h := range hs {
		if hk, hd, ok := GroupShape(g, h); !ok || hk != k || hd != d {
			panic(fmt.Sprintf("core: group sweep requires connected patterns of one (k, d) shape with 2 <= k <= min(n, %d) and at most m edges, got k=%d d=%d n=%d", match.MaxK, hk, hd, g.N()))
		}
	}
}

// DecideGroupFrom decides every pattern of hs — connected, all of one
// (k, d) shape — against g in shared sweeps. The returned slice is
// positionally aligned with hs and each entry equals what DecideFrom
// would return for that pattern alone.
func DecideGroupFrom(src CoverSource, g *graph.Graph, hs []*graph.Graph, opt Options) ([]bool, error) {
	if len(hs) == 0 {
		return nil, nil
	}
	checkGroup(g, hs)
	hits, err := witnessRuns(src, nil, g.N(), hs, decideKind, opt)
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
	found, err := listRuns(src, g.N(), hs, opt)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(hs))
	for j := range counts {
		counts[j] = len(found[j])
	}
	return counts, nil
}

// queryKind selects what a band sweep reads off each solved band.
type queryKind uint8

const (
	// decideKind answers Theorem 2.1's yes/no: the band DPs run
	// DecideOnly (the engines recycle consumed child sets, so peak memory
	// per band is the active decomposition frontier) and only the root's
	// Found is read.
	decideKind queryKind = iota
	// findKind extracts one occurrence per pattern.
	findKind
	// separatingKind extracts one S-separating occurrence (Lemma 5.3)
	// from separating covers, with the Section 5.2.2 labelled DP. Like
	// find, its bands keep full sets for Enumerate: running them
	// DecideOnly would need a second full solve of the certifying band
	// to extract the witness.
	separatingKind
	// listKind reads every occurrence of every band (Theorem 4.2).
	listKind
)

// limit is how many band-local assignments the kind reads per pattern
// and band: one witness, or every occurrence (0) when listing.
func (k queryKind) limit() int {
	if k == listKind {
		return 0
	}
	return 1
}

// engineRead reads a pattern's band-local assignments off its solved
// band engine. A decide hit is certified by one empty assignment: only
// its presence matters.
func (k queryKind) engineRead(eng *match.Result) []match.Assignment {
	if k == decideKind {
		if eng.Found() {
			return []match.Assignment{{}}
		}
		return nil
	}
	return eng.Enumerate(k.limit())
}

// fallbackRead is engineRead for a band too wide for the engines: the
// exact naive baseline on the band graph, with the separation condition
// tested directly on separating minors.
func (k queryKind) fallbackRead(b *cover.Band, h *graph.Graph) []match.Assignment {
	if k == separatingKind {
		return separatingBrute(b, h)
	}
	var out []match.Assignment
	for _, a := range naive.Search(b.G, h, naive.Options{Limit: k.limit()}) {
		out = append(out, a)
	}
	return out
}

// runHead opens repetition run of a run loop with open patterns still
// searching: it observes the query token, takes the run's prepared
// cover from src (s is the terminal mask of a separating search, nil
// otherwise), traces the prepare span and charges the run to Stats once
// per open pattern, as that many solo runs would.
func runHead(src CoverSource, s []bool, k, d, run, open int, opt Options) (*PreparedCover, error) {
	if opt.Cancel.Cancelled() {
		return nil, par.ErrCancelled
	}
	t0 := opt.Trace.Begin()
	pc := src.Prepared(s, k, d, run)
	tracePrepare(opt, run, t0, pc)
	for range open {
		opt.addRun(len(pc.Bands))
	}
	return pc, nil
}

// witnessRuns is the run loop of decide (Theorem 2.1), find and
// separating (Lemma 5.3): covers from src, each swept once for every
// pattern of hs still without a witness, up to MaxRuns of them. Run 0
// is an ESTC cover and run 1, the last, the layered cover; under
// PaperLoop every run is an ESTC cover (CoverRuns). s is the terminal
// mask of a separating search and nil otherwise. Entry j of the result
// is pattern j's witness in original vertex ids, or nil when the runs
// found none: exact once the layered run has swept, correct w.h.p.
// otherwise. The patterns must be connected and share one (k, d) shape.
func witnessRuns(src CoverSource, s []bool, n int, hs []*graph.Graph, kind queryKind, opt Options) ([]Occurrence, error) {
	k, d := hs[0].N(), graph.Diameter(hs[0])
	hits := make([]Occurrence, len(hs))
	act := make([]int, len(hs))
	for j := range act {
		act[j] = j
	}
	for run, runs := 0, min(opt.maxRuns(n), CoverRuns(n, opt)); run < runs && len(act) > 0; run++ {
		pc, err := runHead(src, s, k, d, run, len(act), opt)
		if err != nil {
			return nil, err
		}
		// Each open pattern owns a band-local child token: the band that
		// certifies pattern j fires j's token, so j's DP in sibling bands
		// abandons at its next node/path checkpoint (or never starts)
		// while its batch-mates sweep on. The children inherit the
		// request token, so a gone client fells every band the same way.
		cancels := make([]*par.Canceller, len(hs))
		for _, j := range act {
			cancels[j] = par.NewChild(opt.Cancel)
		}
		var mu sync.Mutex
		sweepBands(pc, hs, act, cancels, kind, run, opt, func(j int, b *cover.Band, local []match.Assignment) int {
			if len(local) == 0 {
				return 0
			}
			occ := toOriginal(b, local[0])
			mu.Lock()
			if hits[j] == nil {
				hits[j] = occ
			}
			mu.Unlock()
			cancels[j].Cancel()
			return 1
		})
		next := act[:0]
		for _, j := range act {
			if hits[j] == nil {
				next = append(next, j)
			}
		}
		act = next
	}
	if len(act) > 0 {
		// The last sweep may have been felled mid-flight: a negative
		// answer is only trustworthy when every band ran to completion.
		if err := opt.Cancel.Err(); err != nil {
			return nil, err
		}
	}
	return hits, nil
}

// listRuns lists every occurrence of each pattern of hs, entry j of the
// result holding pattern j's. Following Section 4.2.1, a band reports
// only the occurrences touching its lowest BFS level, so each occurrence
// inside a cluster is produced by exactly one band, and the per-run work
// is proportional to the number of occurrences rather than d times it.
//
// On the default path that is one sweep of the layered cover: it holds
// every occurrence, each in exactly one band, so the run is exact and
// needs no dedupe. Under PaperLoop it is the Theorem 4.2 repetition
// loop: ESTC runs, each swept for every pattern still listing, with a
// dedupe set (keyed by Occurrence.Key) and a stopping streak per
// pattern, so each collects exactly what its solo listing would. A
// pattern stops once log2(j) + Θ(log n) consecutive iterations found
// nothing new (Observation 2 bounds the probability that such a streak
// hides an unfound occurrence) or MaxRuns is reached, and drops out of
// later sweeps.
func listRuns(src CoverSource, n int, hs []*graph.Graph, opt Options) ([][]Occurrence, error) {
	k, d := hs[0].N(), graph.Diameter(hs[0])
	found := make([][]Occurrence, len(hs))
	streak := make([]int, len(hs))
	act := make([]int, len(hs))
	// Listing has no per-pattern early exit (all occurrences are
	// needed), so every pattern runs under the query token.
	cancels := make([]*par.Canceller, len(hs))
	for j := range hs {
		act[j] = j
		cancels[j] = opt.Cancel
	}
	first, seen := layeredRun, []map[string]bool(nil)
	if opt.PaperLoop {
		first, seen = 0, make([]map[string]bool, len(hs))
		for j := range seen {
			seen[j] = make(map[string]bool)
		}
	}
	logN := math.Log2(float64(n) + 2)
	for run := first; len(act) > 0; run++ {
		pc, err := runHead(src, nil, k, d, run, len(act), opt)
		if err != nil {
			return nil, err
		}
		added := make([]int, len(hs))
		var mu sync.Mutex
		sweepBands(pc, hs, act, cancels, listKind, run, opt, func(j int, b *cover.Band, local []match.Assignment) int {
			kept := 0
			for _, a := range local {
				if !slices.ContainsFunc(a, func(lv int32) bool { return lv >= 0 && b.LowestLevelLocal[lv] }) {
					continue
				}
				kept++
				o := toOriginal(b, a)
				mu.Lock()
				if seen == nil {
					found[j] = append(found[j], o)
				} else if key := o.Key(); !seen[j][key] {
					seen[j][key] = true
					found[j] = append(found[j], o)
					added[j]++
				}
				mu.Unlock()
			}
			return kept
		})
		if !opt.PaperLoop {
			break
		}
		// Every active pattern has run exactly run+1 iterations: all
		// start at run 0 and stop by dropping out.
		iters := run + 1
		threshold := int(math.Ceil(math.Log2(float64(iters)+1))) + int(math.Ceil(2*logN)) + 1
		next := act[:0]
		for _, j := range act {
			if added[j] > 0 {
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

// sweepBands solves every band of pc once for the patterns act of hs,
// pattern j under token cancels[j]. For each live pattern j it passes
// what kind reads off the solved band, in band-local ids, to take(j,
// band, local). take keeps what its run loop asked for (the first
// witness, or the occurrences touching the band's lowest level) and
// returns how many it kept; it runs concurrently across bands.
//
// A pattern is live in a band while its token has not fired. A token
// that fires during the band means j's DP may have aborted mid-run (its
// partial result must not be read), and j is already certified
// elsewhere or the query is dying, so an uncancellable naive fallback is
// not started either.
//
// Every band emits exactly one "band" trace span (skipped and cancelled
// ones included, with the outcome in the note), so a traced query's
// band-span count equals its Stats.Bands contribution.
func sweepBands(pc *PreparedCover, hs []*graph.Graph, act []int, cancels []*par.Canceller, kind queryKind, run int, opt Options, take func(j int, b *cover.Band, local []match.Assignment) int) {
	k := hs[0].N()
	par.ForGrain(0, len(pc.Bands), 1, func(i int) {
		injectBandFaults()
		pb := &pc.Bands[i]
		t0 := opt.Trace.Begin()
		// pb.Band is nil when a cancelled prepare skipped the band; the
		// token is observed fired before any such band is reached.
		var live []int
		for _, j := range act {
			if !cancels[j].Cancelled() {
				live = append(live, j)
			}
		}
		if len(live) == 0 || pb.Band == nil || pb.Band.G.N() < k {
			opt.Trace.Span("band", run, i, t0, "skipped")
			return
		}
		engs, solved, cost := solveBand(pb, hs, live, cancels, kind, opt)
		kept, cancelled := 0, 0
		for idx, j := range live {
			if cancels[j].Cancelled() {
				cancelled++
				continue
			}
			var local []match.Assignment
			if solved {
				local = kind.engineRead(engs[idx])
			} else {
				local = kind.fallbackRead(pb.Band, hs[j])
			}
			kept += take(j, pb.Band, local)
		}
		if opt.Trace != nil {
			// The note is only rendered on traced queries; unexercised
			// fmt stays off the untraced path.
			opt.Trace.SpanCost("band", run, i, t0, kind.note(solved, kept, cancelled, len(live)), cost)
		}
	})
}

// note renders a band's span note. A listing band reports how many
// occurrences it kept, "occs=N". A witness band reads "cancelled" when
// every live pattern was felled, else "found" / "miss" for a single
// pattern and "found=F/A" for a group of A, prefixed "fallback:" on
// bands the naive baseline solved.
func (k queryKind) note(solved bool, found, cancelled, live int) string {
	if k == listKind {
		return fmt.Sprintf("occs=%d", found)
	}
	if cancelled == live {
		return "cancelled"
	}
	note := "miss"
	switch {
	case live > 1:
		note = fmt.Sprintf("found=%d/%d", found, live)
	case found > 0:
		note = "found"
	}
	if !solved {
		note = "fallback:" + note
	}
	return note
}

// solveBand runs the band solver once over pb's decomposition for the
// patterns act of hs, pattern j under token cancels[j]. The path-DAG
// engine serves plain bands under EnginePathDAG; the sequential engine
// serves the rest, separating mode included (the path-DAG engine's state
// universes carry no separating labels). solved=false signals that the
// decomposition exceeded the engines' bag capacity and the caller must
// use the naive fallback. Either way the band is charged to the call's
// sinks (noteBand), and its cost, the summed records of its DP runs, is
// returned for the band span. Fallback bands cost zero: the naive search
// is outside the state machinery the counters price. The prepared band
// is only read, so concurrent queries may share it.
func solveBand(pb *PreparedBand, hs []*graph.Graph, act []int, cancels []*par.Canceller, kind queryKind, opt Options) ([]*match.Result, bool, obs.Cost) {
	var cost obs.Cost
	if pb.Fallback {
		opt.noteBand(pb.Width, len(act), cost)
		return nil, false, cost
	}
	b := pb.Band
	separating := kind == separatingKind
	ps := make([]*match.Problem, len(act))
	for idx, j := range act {
		ps[idx] = &match.Problem{G: b.G, H: hs[j], ND: pb.ND, Allowed: b.Allowed, S: b.S,
			Separating: separating, DecideOnly: kind == decideKind, Cancel: cancels[j], Trace: opt.Trace}
	}
	var rs []*match.Result
	if separating || opt.Engine != EnginePathDAG {
		rs = match.RunMulti(ps, opt.Tracker)
	} else {
		rs, _ = pmdag.RunMulti(ps, pmdag.Config{}, opt.Tracker)
	}
	// Felled DPs keep their partial cost: the work was done.
	for _, r := range rs {
		cost.Accumulate(r.Cost())
	}
	opt.noteBand(pb.Width, 0, cost)
	return rs, true, cost
}

// toOriginal translates a band-local assignment to original vertex ids.
func toOriginal(b *cover.Band, a match.Assignment) Occurrence {
	occ := make(Occurrence, len(a))
	for u, lv := range a {
		occ[u] = b.Orig[lv]
	}
	return occ
}
