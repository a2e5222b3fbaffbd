// Package core assembles the paper's pipeline: the parallel treewidth
// k-d cover of Section 2 feeding the bounded-treewidth subgraph
// isomorphism engines of Section 3, with the extensions of Section 4
// (disconnected patterns, listing all occurrences) and Section 5
// (S-separating occurrences).
//
// One run of the decision algorithm covers the target with
// bounded-treewidth bands (each fixed occurrence survives into some band
// with probability >= 1/2, Theorem 2.4) and solves each band exactly, so
// "yes" answers are always correct. The paper certifies "no" answers
// w.h.p. after O(log n) independent runs, and lists (Theorem 4.2) by
// repeating runs until a streak finds nothing new.
//
// The default path ends that loop early. A search keeps run 0 on an ESTC
// cover, so hits cost one random run; a search run 0 leaves open makes
// one more run on the layered cover (estc.Layered, Eppstein's BFS
// layering), which holds every occurrence, and stops with an exact
// answer. Listing makes that layered run alone. Negatives are therefore
// exact except at MaxRuns 1, under Options.PaperLoop (the paper's loop,
// kept for the experiments) and in the coloring loop of disconnected
// patterns (Lemma 4.1), where they hold w.h.p.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"planarsi/internal/fault"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"
)

// Engine selects the bounded-treewidth solver used per band.
type Engine int

const (
	// EngineAuto runs the sequential engine on every band. The path-DAG
	// engine does 4–5x its work for about half its depth, so by Brent's
	// rule (T_P ≈ W/P + D) it is projected faster only past about 56
	// processors (DESIGN.md, "Engine choice"); EnginePathDAG selects it.
	// Both engines produce the same node sets, so the choice moves only
	// cost and work/depth counters.
	EngineAuto Engine = iota
	// EngineSequential forces the bottom-up DP of Section 3.2.
	EngineSequential
	// EnginePathDAG forces the Section 3.3 path-DAG engine.
	EnginePathDAG
)

// Options configures the pipeline. The zero value is usable: fresh
// deterministic seed 0, automatic engine, min-degree decompositions,
// automatic repetition counts.
type Options struct {
	// Seed seeds the run's randomness; equal seeds give equal results.
	Seed uint64
	// Engine selects the per-band solver.
	Engine Engine
	// MaxRuns is the paper's run budget; 0 selects 2·ceil(log2(n+2)) +
	// 3, enough to certify absence w.h.p. under PaperLoop. On the
	// default path any budget of 2 or more makes at most two runs, the
	// second one exact, and MaxRuns 1 makes one ESTC run. Listing makes
	// one exact run whatever the budget. It bounds the cover runs of a
	// connected search only: the Lemma 4.1 loop of a disconnected
	// pattern tries up to O(l^k log n) colorings whatever MaxRuns is.
	MaxRuns int
	// PaperLoop runs the source paper's Monte Carlo loop: every run on a
	// fresh ESTC cover, up to MaxRuns of them, and listing stopped by
	// Theorem 4.2's streak rule. Only the paper-claims experiments set
	// it.
	PaperLoop bool
	// Heuristic selects the tree decomposition heuristic for bands.
	Heuristic treedecomp.Heuristic
	// Beta overrides the clustering parameter (default 2k), for the beta
	// ablation experiment.
	Beta float64
	// Tracker accumulates work/depth counters when non-nil.
	Tracker *wd.Tracker
	// Stats receives run statistics when non-nil.
	Stats *Stats
	// Cancel, when non-nil, aborts the call cooperatively: the pipeline
	// polls it at run, band, node and path boundaries and returns
	// par.ErrCancelled once it fires. Cancellation never changes answers
	// — a rerun with the same Options (and an unfired token) returns
	// exactly what an uncancelled call would have.
	Cancel *par.Canceller
	// Trace, when non-nil, records the call's band timeline: one
	// "prepare" span per cover repetition (near-zero on a cache hit) and
	// one "band" span per band with its outcome, plus cancellation
	// events at the engines' checkpoints. Like Cancel, it is a per-call
	// attachment that never influences answers.
	Trace *obs.Recorder
	// Cost, when non-nil, accumulates the call's DP cost counters
	// (nodes, states, joins, emissions, bytes) across every band
	// solved: each band adds the summed cost records of its DP runs
	// once. Band spans on a traced call carry the same per-band sums,
	// so the span costs sum to this counter exactly. Another per-call
	// attachment that never influences answers.
	Cost *obs.CostCounter
}

// Config returns the value fields that feed the pipeline's randomness
// and shape (Seed, Engine, MaxRuns, PaperLoop, Heuristic, Beta), with
// the per-call attachments (Tracker, Stats, Cancel, Trace, Cost)
// stripped: they never influence results. It is the configuration a
// snapshot records.
func (o Options) Config() Options {
	return Options{Seed: o.Seed, Engine: o.Engine, MaxRuns: o.MaxRuns, PaperLoop: o.PaperLoop, Heuristic: o.Heuristic, Beta: o.Beta}
}

// SameConfig reports whether two option sets produce identical answers
// and identical cached artifacts: their Configs are equal. Snapshot
// restore uses it to refuse loading artifacts built under a different
// configuration.
func (o Options) SameConfig(p Options) bool { return o.Config() == p.Config() }

// Stats reports what a pipeline call did. For a disconnected pattern
// (Lemma 4.1) it counts the inner searches: the cover repetitions and
// bands of every color-class search that ran.
type Stats struct {
	// Runs is the number of cover repetitions executed.
	Runs int
	// Bands is the total number of bands solved across all runs.
	Bands int
	// FallbackBands counts bands whose decomposition exceeded the engine's
	// bag capacity and were solved by the naive baseline instead.
	FallbackBands int64
	// MaxBandWidth is the widest band decomposition observed.
	MaxBandWidth int
	// Cost totals the engines' per-band cost counters across every band
	// solved (fallback and skipped bands contribute zero).
	Cost obs.Cost
}

// Occurrence maps pattern vertices to target vertices.
type Occurrence []int32

// Key renders the occurrence as a comparable string (the paper
// deduplicates occurrences "by hashing").
func (o Occurrence) Key() string {
	b := make([]byte, 0, len(o)*4)
	for _, v := range o {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// ErrPatternTooLarge is returned when the pattern exceeds the engine
// capacity (match.MaxK vertices).
var ErrPatternTooLarge = errors.New("core: pattern exceeds MaxK vertices")

// ErrDisconnectedPattern is returned by operations defined only for
// connected patterns (List, Count, DecideSeparating).
var ErrDisconnectedPattern = errors.New("core: operation requires a connected pattern")

// ErrTerminalMask is returned by DecideSeparating when the terminal mask
// does not hold exactly one entry per target vertex.
var ErrTerminalMask = errors.New("core: terminal mask length must equal the target's vertex count")

func (o Options) maxRuns(n int) int {
	if o.MaxRuns > 0 {
		return o.MaxRuns
	}
	return 2*int(math.Ceil(math.Log2(float64(n)+2))) + 3
}

func (o Options) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(o.Seed, 0x9e3779b97f4a7c15^stream))
}

// statsMu guards every Stats update: band solves run in parallel loops,
// and an Index serves concurrent queries sharing one Stats. A global
// mutex is deliberate — it is only taken when Stats is non-nil
// (instrumentation mode), once per run and once per band, and embedding
// a lock in the public Stats struct would break callers that copy it.
var statsMu sync.Mutex

func (o Options) addRun(bands int) {
	if o.Stats == nil {
		return
	}
	statsMu.Lock()
	o.Stats.Runs++
	o.Stats.Bands += bands
	statsMu.Unlock()
}

// noteBand charges one band that reached the solver to the call's
// sinks: its cost (the summed cost records of its DP runs) to Cost and
// Stats.Cost, and its width and fallback patterns to Stats. The band's
// span carries the same cost, so span costs sum to both totals exactly.
func (o Options) noteBand(width, fallbacks int, c obs.Cost) {
	o.Cost.Add(c)
	if o.Stats == nil {
		return
	}
	statsMu.Lock()
	o.Stats.MaxBandWidth = max(o.Stats.MaxBandWidth, width)
	o.Stats.FallbackBands += int64(fallbacks)
	o.Stats.Cost.Accumulate(c)
	statsMu.Unlock()
}

// validate performs the shared pattern checks. It returns (decided,
// result) when the instance is trivial.
func validate(g, h *graph.Graph) (trivial bool, result bool, err error) {
	k := h.N()
	if k > match.MaxK {
		return false, false, fmt.Errorf("%w: k=%d", ErrPatternTooLarge, k)
	}
	if k == 0 {
		return true, true, nil
	}
	if k > g.N() {
		return true, false, nil
	}
	if h.M() > g.M() {
		return true, false, nil
	}
	return false, false, nil
}

// Decide reports whether h occurs in g as a subgraph, dispatching between
// the connected pipeline (Theorem 2.1) and the disconnected extension
// (Lemma 4.1). The answer is exact when true; when false it is exact on
// the default path and correct w.h.p. where the package doc says.
func Decide(g, h *graph.Graph, opt Options) (bool, error) {
	return DecideFrom(freshSource{g, opt}, g, h, opt)
}

// DecideFrom is Decide drawing its per-run covers from src; an Index
// passes the generation its query pinned, to reuse preprocessing across
// queries. For equal Options, answers are identical to Decide's
// regardless of the source.
func DecideFrom(src CoverSource, g, h *graph.Graph, opt Options) (bool, error) {
	if trivial, res, err := validate(g, h); trivial || err != nil {
		return res, err
	}
	if _, l := graph.Components(h); l > 1 {
		// The Lemma 4.1 extension searches color-class induced subgraphs
		// of g, which no target-side cache can serve.
		return decideDisconnected(g, h, l, opt)
	}
	if h.N() == 1 {
		return g.N() >= 1, nil
	}
	hits, err := witnessRuns(src, nil, g.N(), []*graph.Graph{h}, decideKind, opt)
	if err != nil {
		return false, err
	}
	return hits[0] != nil, nil
}

// tracePrepare emits one "prepare" span for a cover repetition, pricing
// the prepared artifact's resident bytes into the span cost. The bytes
// are span-only attribution — cache economics, not DP work — so they
// stay out of the query cost totals the band spans sum to.
func tracePrepare(opt Options, run int, t0 time.Time, pc *PreparedCover) {
	if opt.Trace == nil {
		return
	}
	opt.Trace.SpanCost("prepare", run, -1, t0, "", obs.Cost{Bytes: pc.MemBytes()})
}

// injectBandFaults is the chaos hook at the head of every per-band
// loop body: the band decompositions of prepare and the band dynamic
// programs of decide, enumerate, find and separating. It runs on a
// pool worker mid-query, which is exactly where the fault plan wants
// injected latency (band.latency) and panics (dp.panic) to originate:
// a fired dp.panic must cross par's fork-join scopes to the query's
// goroutine without wedging the shared pool — and, when it fires under
// a memoized artifact build, without poisoning the Index's cache slot.
// No plan installed means one atomic load per band.
func injectBandFaults() {
	fault.Sleep(fault.BandLatency)
	fault.Check(fault.DPPanic)
}
