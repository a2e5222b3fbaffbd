package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/cover"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/pmdag"
	"planarsi/internal/treedecomp"
)

// AblationEngine compares the sequential bottom-up DP (Section 3.2)
// against the path-DAG engine (Section 3.3) on long-chain targets, where
// the sequential engine's depth is the whole chain while the path-DAG
// engine's is O(k log n). Both must return identical decisions.
func AblationEngine(cfg Config) *Table {
	t := &Table{
		ID:     "Ablation A1",
		Title:  "per-band engine: sequential DP vs path-DAG",
		Claim:  "identical results; path-DAG depth O(k log n) vs chain-length",
		Header: []string{"n", "engine", "found", "depth proxy", "time"},
	}
	sizes := []int{512, 2048}
	if cfg.Quick {
		sizes = []int{256, 512}
	}
	agree := true
	for _, n := range sizes {
		g := graph.Path(n)
		h := graph.Path(4)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		p := &match.Problem{G: g, H: h, ND: nd}

		start := time.Now()
		seq := match.Run(p, nil)
		seqTime := time.Since(start)
		// The sequential engine's critical path is the full node order.
		t.Row(fmt.Sprint(n), "sequential", fmt.Sprint(seq.Found()),
			fmt.Sprintf("%d nodes", nd.NumNodes()), seqTime.Round(time.Microsecond).String())

		start = time.Now()
		parr, stats := pmdag.Run(p, nil)
		parTime := time.Since(start)
		t.Row(fmt.Sprint(n), "path-DAG", fmt.Sprint(parr.Found()),
			fmt.Sprintf("%d hops", stats.MaxHops), parTime.Round(time.Microsecond).String())

		if seq.Found() != parr.Found() {
			agree = false
		}
	}
	if agree {
		t.Pass("both engines returned identical decisions")
	} else {
		t.Fail("engines disagreed")
	}
	return t
}

// AblationBeta sweeps the clustering parameter β around the paper's 2k:
// smaller β cuts more pattern occurrences (lower survival), larger β
// grows cluster diameters (deeper BFS, bigger bands). The paper's choice
// balances the two.
func AblationBeta(cfg Config) *Table {
	t := &Table{
		ID:     "Ablation A2",
		Title:  "clustering parameter β vs survival and cover cost",
		Claim:  "β = 2k gives survival >= 1/2 at O(dn) cover size",
		Header: []string{"β", "survival", "Σ|Gi|/n", "BFS rounds"},
	}
	side := 24
	trials := 25
	if cfg.Quick {
		side, trials = 14, 10
	}
	g := graph.Grid(side, side)
	mid := int32(side/2*side + side/2)
	occ := []int32{mid, mid + 1, mid + int32(side) + 1, mid + int32(side)}
	k := 4
	var survAt2k float64
	for _, beta := range []float64{float64(k) / 2, float64(k), float64(2 * k), float64(4 * k)} {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(beta*10)))
		survived, rounds := 0, 0
		var sizeRatio float64
		for i := 0; i < trials; i++ {
			cov := cover.Build(g, cover.Params{K: k, D: 2, Beta: beta}, rng, nil)
			if coverContains(cov, occ) {
				survived++
			}
			if cov.BFSRounds > rounds {
				rounds = cov.BFSRounds
			}
			sizeRatio = float64(cov.TotalSize()) / float64(g.N())
		}
		surv := float64(survived) / float64(trials)
		if beta == float64(2*k) {
			survAt2k = surv
		}
		t.Row(fmt.Sprintf("%.1f", beta), fmt.Sprintf("%.2f", surv),
			fmt.Sprintf("%.2f", sizeRatio), fmt.Sprint(rounds))
	}
	if survAt2k >= 0.5 {
		t.Pass("survival at β = 2k is %.2f >= 1/2 (the paper's operating point)", survAt2k)
	} else {
		t.Fail("survival at β = 2k is %.2f < 1/2", survAt2k)
	}
	return t
}

// AblationShortcut compares the paper's hub spacing (every ~log2 V forest
// vertices) against hubs-everywhere, the Θ(log n)-work-overhead variant
// the paper explicitly avoids. Hop counts are similar; the edge count —
// the work — is what separates them.
func AblationShortcut(cfg Config) *Table {
	t := &Table{
		ID:     "Ablation A3",
		Title:  "shortcut spacing: every lg V-th forest vertex vs every vertex",
		Claim:  "sparse hubs keep shortcut work linear; dense hubs pay Θ(log n) extra",
		Header: []string{"n", "spacing", "shortcut edges", "edges/V", "hops"},
	}
	sizes := []int{1024, 4096}
	if cfg.Quick {
		sizes = []int{512, 1024}
	}
	sparser := true
	for _, n := range sizes {
		g := graph.Path(n)
		h := graph.Path(4)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		p := &match.Problem{G: g, H: h, ND: nd}

		_, paper := pmdag.RunMulti([]*match.Problem{p}, pmdag.Config{}, nil)
		t.Row(fmt.Sprint(n), "lg V (paper)", fmt.Sprint(paper.ShortcutEdges),
			fmt.Sprintf("%.2f", float64(paper.ShortcutEdges)/float64(paper.DAGVertices)),
			fmt.Sprint(paper.MaxHops))

		_, dense := pmdag.RunMulti([]*match.Problem{p}, pmdag.Config{ShortcutSpacing: 1}, nil)
		t.Row(fmt.Sprint(n), "1 (dense)", fmt.Sprint(dense.ShortcutEdges),
			fmt.Sprintf("%.2f", float64(dense.ShortcutEdges)/float64(dense.DAGVertices)),
			fmt.Sprint(dense.MaxHops))

		if paper.ShortcutEdges >= dense.ShortcutEdges {
			sparser = false
		}
	}
	if sparser {
		t.Pass("paper spacing added strictly fewer shortcut edges than dense hubs")
	} else {
		t.Fail("paper spacing did not reduce shortcut edges")
	}
	return t
}

// AblationTD compares the min-degree and min-fill tree decomposition
// heuristics on cover bands: both must be valid; widths and build time
// differ.
func AblationTD(cfg Config) *Table {
	t := &Table{
		ID:     "Ablation A4",
		Title:  "band decomposition heuristic: min-degree vs min-fill",
		Claim:  "any valid decomposition works; width enters the work as (τ+3)^{3k+1}",
		Header: []string{"d", "heuristic", "max width", "build time", "decision"},
	}
	n := 1200
	if cfg.Quick {
		n = 400
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 1001))
	g := graph.Apollonian(n, rng)
	h := graph.Cycle(4)
	agree := true
	for _, d := range []int{2, 3} {
		cov := cover.Build(g, cover.Params{K: 4, D: d}, rng, nil)
		var decisions []bool
		for _, heur := range []struct {
			name string
			h    treedecomp.Heuristic
		}{{"min-degree", treedecomp.MinDegree}, {"min-fill", treedecomp.MinFill}} {
			maxW := 0
			start := time.Now()
			for _, b := range cov.Bands {
				td := treedecomp.Build(b.G, heur.h)
				if w := td.Width(); w > maxW {
					maxW = w
				}
			}
			buildTime := time.Since(start)
			found, err := core.Decide(g, h, core.Options{Seed: cfg.Seed, Heuristic: heur.h, PaperLoop: true})
			if err != nil {
				t.Fail("%s: %v", heur.name, err)
				continue
			}
			decisions = append(decisions, found)
			t.Row(fmt.Sprint(d), heur.name, fmt.Sprint(maxW),
				buildTime.Round(time.Millisecond).String(), fmt.Sprint(found))
		}
		if len(decisions) == 2 && decisions[0] != decisions[1] {
			agree = false
		}
	}
	if agree {
		t.Pass("decisions identical under both heuristics")
	} else {
		t.Fail("heuristic changed the decision")
	}
	return t
}
