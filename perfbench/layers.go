package main

import (
	"fmt"
	"sync"
	"time"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/cover"
	"planarsi/internal/estc"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/planarity"
	"planarsi/internal/pmdag"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"
)

// The program's "prepare" span covers clustering, the cover and the band
// decompositions together. A traced run splits it by replaying the layer
// entry points on the workload's own inputs, one cover repetition (run 0)
// per input, and checks that the replay rebuilds the bands core builds
// and agrees with the workload's answers.

// replayInput is one (target, pattern) pair a workload queries. s is the
// terminal set of a separating search (nil for a plain one). A replay
// that finds an occurrence when present is false is a wrong answer;
// finding none is fine either way, since run 0 alone may miss.
type replayInput struct {
	g, h    *graph.Graph
	s       []bool
	seed    uint64
	present bool
}

// replay accumulates layer totals over the replayed covers.
type replay struct {
	tr     *tracer
	parent *span
	covers int
	n      float64
	sums   map[string]float64
	maxW   int
	maxHop int
}

func newReplay(tr *tracer) *replay {
	return &replay{tr: tr, parent: tr.begin("replay", nil), sums: map[string]float64{}}
}

// timed runs f as a child span of the replay and adds its milliseconds
// to the named total.
func (r *replay) timed(name string, f func()) {
	sp := r.tr.begin(name, r.parent)
	t0 := time.Now()
	f()
	r.sums[name] += msOf(time.Since(t0))
	r.tr.end(sp)
}

// cover replays run 0 of one input through estc, cover, treedecomp and
// the band engines.
func (r *replay) cover(in replayInput) error {
	opt := core.Options{Seed: in.seed}
	k, d := in.h.N(), graph.Diameter(in.h)
	tr := wd.NewTracker()
	opt.Tracker = tr
	var cl *estc.Clustering
	r.timed("estc.ms", func() { cl = core.ClusterRun(in.g, core.CoverBeta(k, opt), 0, opt) })
	r.sums["estc.work"] += float64(tr.PhaseWork("estc"))
	r.sums["estc.rounds"] += float64(tr.PhaseRounds("estc"))

	params := cover.Params{K: k, D: d}
	var cov *cover.Cover
	var ref *core.PreparedCover
	if in.s == nil {
		r.timed("cover.ms", func() { cov = cover.FromClustering(in.g, cl, params, tr) })
		ref = core.PrepareRun(in.g, k, d, 0, core.Options{Seed: in.seed})
	} else {
		r.timed("cover.ms", func() { cov = cover.SeparatingFromClustering(in.g, cl, in.s, params, tr) })
		ref = core.PrepareSeparatingRun(in.g, in.s, k, d, 0, core.Options{Seed: in.seed})
	}
	r.sums["cover.bfs_rounds"] += float64(cov.BFSRounds)
	r.sums["cover.bands"] += float64(len(cov.Bands))
	r.n += float64(in.g.N())
	r.sums["cover.size"] += float64(cov.TotalSize())
	if len(ref.Bands) != len(cov.Bands) {
		return fmt.Errorf("replay built %d bands, core built %d", len(cov.Bands), len(ref.Bands))
	}
	for i, b := range cov.Bands {
		if !b.Equal(ref.Bands[i].Band) {
			return fmt.Errorf("replayed band %d differs from core's", i)
		}
	}

	found := false
	for _, b := range cov.Bands {
		var td *treedecomp.Decomposition
		var nd *treedecomp.Nice
		r.timed("treedecomp.ms", func() {
			td = treedecomp.Build(b.G, treedecomp.MinDegree)
			nd = treedecomp.MakeNice(td)
		})
		r.sums["treedecomp.nice_nodes"] += float64(nd.NumNodes())
		r.maxW = max(r.maxW, td.Width())
		if nd.Width+1 > match.MaxBag || b.G.N() < k {
			continue
		}
		problem := func() *match.Problem {
			return &match.Problem{G: b.G, H: in.h, ND: nd, Allowed: b.Allowed, S: b.S,
				Separating: in.s != nil, DecideOnly: true, Cost: new(obs.CostCounter)}
		}
		var seqFound bool
		r.timed("match.ms", func() { seqFound = match.Run(problem(), nil).Found() })
		if in.s == nil {
			pt := wd.NewTracker()
			var st *pmdag.Stats
			var dagFound bool
			r.timed("pmdag.ms", func() {
				res, s := pmdag.Run(problem(), pt)
				dagFound, st = res.Found(), s
			})
			r.sums["pmdag.dag_edges"] += float64(st.DAGEdges)
			r.sums["pmdag.shortcut_edges"] += float64(st.ShortcutEdges)
			r.maxHop = max(r.maxHop, st.MaxHops)
			r.sums["pmdag.rounds"] += float64(pt.PhaseRounds("pmdag-layers") + pt.PhaseRounds("pmdag-bfs"))
			if dagFound != seqFound {
				return fmt.Errorf("band engines disagree on a replayed band")
			}
		}
		found = found || seqFound
	}
	if found && !in.present {
		return fmt.Errorf("replay found a pattern the oracle says is absent")
	}
	r.covers++
	return nil
}

// conn replays the connectivity entry points on g and checks the
// answer against want.
func (r *replay) conn(g *graph.Graph, opt conn.Options, want int) error {
	plain := graph.FromEdges(g.N(), g.Edges())
	var emb *graph.Graph
	var err error
	r.timed("planarity.embed_ms", func() { emb, err = planarity.Embed(plain) })
	if err != nil {
		return err
	}
	var planar bool
	r.timed("planarity.check_ms", func() { planar = planarity.IsPlanar(plain) })
	if !planar {
		return fmt.Errorf("planarity check rejects a planar target")
	}
	var gp *graph.Graph
	var s []bool
	r.timed("conn.face_incidence_ms", func() { gp, s, err = conn.FaceIncidence(emb) })
	if err != nil {
		return err
	}
	// The first separating-cycle search: a separating 4-cycle of the
	// face-incidence graph exists exactly when the connectivity is 2.
	if err := r.cover(replayInput{g: gp, h: graph.Cycle(4), s: s, seed: opt.Seed + 2, present: want <= 2}); err != nil {
		return err
	}
	var res conn.Result
	r.timed("conn.ms", func() { res, err = conn.VertexConnectivity(plain, opt) })
	if err != nil {
		return err
	}
	if res.Connectivity != want {
		return fmt.Errorf("replayed connectivity %d, oracle %d", res.Connectivity, want)
	}
	r.sums["conn.cycle_checks"] += float64(res.CycleChecks)
	r.sums["conn.calls"]++
	return nil
}

// canon times CanonicalKey over the workload's patterns.
func (r *replay) canon(patterns []*graph.Graph) {
	r.timed("match.canon_ms", func() {
		for _, h := range patterns {
			match.CanonicalKey(h)
		}
	})
	r.sums["canon.calls"] += float64(len(patterns))
}

// finish writes the per-cover (or per-call) averages into l.
func (r *replay) finish(l layerSet) {
	r.tr.end(r.parent)
	c := float64(max(r.covers, 1))
	for _, name := range []string{"estc.ms", "estc.work", "estc.rounds", "cover.ms", "cover.bands",
		"cover.bfs_rounds", "treedecomp.ms", "treedecomp.nice_nodes", "match.ms", "pmdag.ms",
		"pmdag.dag_edges", "pmdag.shortcut_edges", "pmdag.rounds"} {
		l.set(name, r.sums[name]/c)
	}
	l.set("cover.size_per_n", r.sums["cover.size"]/max(r.n, 1))
	l.set("treedecomp.max_width", float64(r.maxW))
	l.set("pmdag.max_hops", float64(r.maxHop))
	calls := max(r.sums["conn.calls"], 1)
	for _, name := range []string{"planarity.embed_ms", "planarity.check_ms", "conn.face_incidence_ms", "conn.ms", "conn.cycle_checks"} {
		l.set(name, r.sums[name]/calls)
	}
	l.set("match.canon_ms", r.sums["match.canon_ms"]/max(r.sums["canon.calls"], 1))
}

// opCost folds one traced operation's pipeline counters into the layer
// totals: DP cost, work/depth per phase, and the core Stats.
type opCost struct {
	mu    sync.Mutex
	ops   int
	cost  obs.Cost
	wd    map[string]float64
	stats core.Stats
	runs  int
}

func newOpCost() *opCost { return &opCost{wd: map[string]float64{}} }

// attachCounters returns core options for one traced call with fresh
// counters.
func attachCounters(opt core.Options) (core.Options, *wd.Tracker, *obs.CostCounter, *core.Stats) {
	tr, cc, st := wd.NewTracker(), new(obs.CostCounter), new(core.Stats)
	opt.Tracker, opt.Cost, opt.Stats = tr, cc, st
	return opt, tr, cc, st
}

// phases are the wd phases reported per operation.
var phases = []struct{ metric, work, rounds string }{
	{"estc", "estc", "estc"},
	{"bfs", "bfs", "bfs"},
	{"dp", "dp", "dp"},
	{"pmdag", "pmdag", "pmdag-layers"},
}

func (c *opCost) add(tr *wd.Tracker, cc *obs.CostCounter, st *core.Stats) {
	var cost obs.Cost
	if cc != nil {
		cost = cc.Snapshot()
	}
	c.addCost(cost)
	c.addWork(tr, st)
}

// addCost counts one operation and its DP cost.
func (c *opCost) addCost(cost obs.Cost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	c.cost.Accumulate(cost)
}

func (c *opCost) addWork(tr *wd.Tracker, st *core.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tr != nil {
		c.wd["work"] += float64(tr.Work())
		c.wd["rounds"] += float64(tr.Rounds())
		for _, p := range phases {
			c.wd["work."+p.metric] += float64(tr.PhaseWork(p.work))
			r := tr.PhaseRounds(p.rounds)
			if p.metric == "pmdag" {
				r += tr.PhaseRounds("pmdag-bfs")
			}
			c.wd["rounds."+p.metric] += float64(r)
		}
	}
	if st != nil {
		c.stats.Runs += st.Runs
		c.stats.FallbackBands += st.FallbackBands
		c.stats.MaxBandWidth = max(c.stats.MaxBandWidth, st.MaxBandWidth)
		c.runs++
	}
}

func (c *opCost) finish(l layerSet) {
	ops := float64(max(c.ops, 1))
	l.set("match.nodes", float64(c.cost.Nodes)/ops)
	l.set("match.states", float64(c.cost.States)/ops)
	l.set("match.joins", float64(c.cost.Joins)/ops)
	l.set("match.emissions", float64(c.cost.Emissions)/ops)
	for k, v := range c.wd {
		l.set("wd."+k, v/ops)
	}
	if c.runs > 0 {
		l.set("core.runs_per_query", float64(c.stats.Runs)/float64(c.runs))
		l.set("core.max_band_width", float64(c.stats.MaxBandWidth))
		l.set("core.fallback_bands", float64(c.stats.FallbackBands)/float64(c.runs))
	}
}

// exactMiss runs one decide miss with counters attached, outside any
// timed window, and records the counts that repeat exactly for a seed.
func exactMiss(l layerSet, g, h *graph.Graph, opt core.Options) error {
	o, tr, cc, _ := attachCounters(opt)
	found, err := core.Decide(g, h, o)
	if err != nil {
		return err
	}
	if found {
		return fmt.Errorf("exact-count decide found an absent pattern")
	}
	l.set("exact.miss_wd_work", float64(tr.Work()))
	l.set("exact.miss_wd_rounds", float64(tr.Rounds()))
	l.set("exact.miss_emissions", float64(cc.Snapshot().Emissions))
	return nil
}
