package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"planarsi/internal/colorcode"
	"planarsi/internal/cover"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/pmdag"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"

	"planarsi/internal/match"
)

// oneRun executes a single cover-and-solve run of the paper's pipeline
// and reports its empirical work and depth.
//
// Work sums the tracked operation counts (clustering, BFS, engine) plus
// the DP's state emissions. Depth adds the *sequential* round counters:
// clustering rounds, the maximum in-cluster BFS round count, and the
// maximum path-DAG BFS hop count across bands — bands run in parallel, so
// the max (not the sum) is the critical path. Deciding w.h.p. repeats
// this run O(log n) times sequentially.
type runMeasure struct {
	found bool
	work  int64
	depth int64
	bands int
}

func oneRun(g, h *graph.Graph, seed uint64) runMeasure {
	tr := wd.NewTracker()
	rng := rand.New(rand.NewPCG(seed, 0xabcdef))
	k := h.N()
	d := graph.Diameter(h)
	cov := cover.Build(g, cover.Params{K: k, D: d}, rng, tr)
	var m runMeasure
	m.bands = len(cov.Bands)
	maxHops := 0
	for _, b := range cov.Bands {
		if b.G.N() < k {
			continue
		}
		nd := treedecomp.MakeNice(treedecomp.Build(b.G, treedecomp.MinDegree))
		if nd.Width+1 > match.MaxBag {
			continue
		}
		p := &match.Problem{G: b.G, H: h, ND: nd}
		eng, stats := pmdag.Run(p, tr)
		m.work += eng.Cost().Emissions
		if stats.MaxHops > maxHops {
			maxHops = stats.MaxHops
		}
		if eng.Found() {
			m.found = true
		}
	}
	m.work += tr.Work()
	m.depth = tr.PhaseRounds("estc") + int64(cov.BFSRounds) + int64(maxHops)
	return m
}

// Table1 regenerates the paper's Table 1 as an empirical sweep: our
// algorithm's work per run against the naive backtracking baseline and
// color coding (tree patterns only), across growing planar targets.
//
// The shape to reproduce: our work stays near-linear in n for fixed k
// (work / (n log n) flat), while the depth proxy stays poly-logarithmic.
// The baselines have no such guarantee — naive work is n^k in the worst
// case, color coding pays e^k repetitions.
func Table1(cfg Config) *Table {
	t := &Table{
		ID:     "Table 1",
		Title:  "deciding planar subgraph isomorphism: work/depth vs baselines",
		Claim:  "ours O((3k)^{3k+1} n log n) work, O(k log² n) depth; Alon et al. e^k n^Θ(√k) log n; naive n^k",
		Header: []string{"n", "pattern", "algorithm", "found", "work", "work/(n·lgn)", "depth", "k·lg²n", "time"},
	}
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 8, 1 << 10}
	}
	c4 := graph.Cycle(4)
	p4 := graph.Path(4)
	var ourRatios []float64
	var depthOK = true
	for _, n := range sizes {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n)))
		g := graph.RandomPlanar(n, 0.7, rng)
		lgn := math.Log2(float64(n))
		for _, pat := range []struct {
			name string
			h    *graph.Graph
		}{{"C4", c4}, {"P4", p4}} {
			k := float64(pat.h.N())
			start := time.Now()
			m := oneRun(g, pat.h, cfg.Seed+uint64(n))
			elapsed := time.Since(start)
			ratio := float64(m.work) / (float64(n) * lgn)
			ourRatios = append(ourRatios, ratio)
			if float64(m.depth) > 2*k*lgn*lgn {
				depthOK = false
			}
			t.Row(fmt.Sprint(n), pat.name, "ours (1 run)", fmt.Sprint(m.found),
				fmt.Sprint(m.work), fmt.Sprintf("%.1f", ratio),
				fmt.Sprint(m.depth), fmt.Sprintf("%.0f", k*lgn*lgn), elapsed.Round(time.Millisecond).String())

			var nWork int64
			start = time.Now()
			nFound := len(naive.Search(g, pat.h, naive.Options{Limit: 1, CountWork: &nWork})) > 0
			elapsed = time.Since(start)
			t.Row(fmt.Sprint(n), pat.name, "naive backtracking", fmt.Sprint(nFound),
				fmt.Sprint(nWork), fmt.Sprintf("%.1f", float64(nWork)/(float64(n)*lgn)),
				"-", "-", elapsed.Round(time.Millisecond).String())

			if pat.name == "P4" {
				var ccWork int64
				start = time.Now()
				ccFound, err := colorcode.Decide(g, pat.h, colorcode.Options{CountWork: &ccWork},
					rand.New(rand.NewPCG(cfg.Seed, uint64(n)^0xcc)), nil)
				elapsed = time.Since(start)
				if err != nil {
					t.Fail("color coding: %v", err)
					continue
				}
				t.Row(fmt.Sprint(n), pat.name, "color coding (AYZ)", fmt.Sprint(ccFound),
					fmt.Sprint(ccWork), fmt.Sprintf("%.1f", float64(ccWork)/(float64(n)*lgn)),
					"-", "-", elapsed.Round(time.Millisecond).String())
			}
		}
	}
	spread := ratioSpread(ourRatios)
	if spread <= 10 {
		t.Pass("our work/(n·lg n) spread across the sweep is %.1fx (near-linear shape)", spread)
	} else {
		t.Fail("our work/(n·lg n) spread is %.1fx — super-linear growth", spread)
	}
	if depthOK {
		t.Pass("depth proxy stayed below 2·k·lg²n at every size (poly-logarithmic shape)")
	} else {
		t.Fail("depth proxy exceeded 2·k·lg²n")
	}
	return t
}

func ratioSpread(rs []float64) float64 {
	if len(rs) == 0 {
		return 1
	}
	lo, hi := rs[0], rs[0]
	for _, r := range rs[1:] {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi / lo
}
