package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/naive"
	"planarsi/internal/pmdag"
	"planarsi/internal/treedecomp"
)

// Fig4 regenerates the behaviour of Figure 4 and Lemma 3.1: the partial
// match DP over nice tree decompositions decides exactly (validated
// against the naive oracle), with state counts scaling like (τ+3)^k-shaped
// functions of the pattern size and near-linearly in the target size.
func Fig4(cfg Config) *Table {
	t := &Table{
		ID:     "Figure 4",
		Title:  "bounded-treewidth DP: exactness and state-count scaling",
		Claim:  "O((τ+3)^{3k+1} n) work; exact per band",
		Header: []string{"n", "k", "width τ", "states", "states/n", "agree with oracle"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 401))
	sizes := []int{200, 800, 3200}
	trialsPer := 8
	if cfg.Quick {
		sizes = []int{100, 400}
		trialsPer = 4
	}
	agreeAll := true
	// Scaling in n at fixed k.
	var perN []float64
	for _, n := range sizes {
		g := graph.RandomPlanar(n, 0.5, rng)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		h := graph.Cycle(4)
		p := &match.Problem{G: g, H: h, ND: nd}
		eng := match.Run(p, nil)
		agree := eng.Found() == naive.Decide(g, h)
		if !agree {
			agreeAll = false
		}
		states := eng.Cost().Emissions
		perN = append(perN, float64(states)/float64(n))
		t.Row(fmt.Sprint(n), "4", fmt.Sprint(nd.Width), fmt.Sprint(states),
			fmt.Sprintf("%.1f", float64(states)/float64(n)), fmt.Sprint(agree))
	}
	// Scaling in k at fixed n.
	gk := graph.RandomPlanar(sizes[0], 0.5, rng)
	ndk := treedecomp.MakeNice(treedecomp.Build(gk, treedecomp.MinDegree))
	var prev int64
	growthOK := true
	for _, k := range []int{3, 4, 5, 6} {
		h := graph.Path(k)
		p := &match.Problem{G: gk, H: h, ND: ndk}
		eng := match.Run(p, nil)
		agree := eng.Found() == naive.Decide(gk, h)
		if !agree {
			agreeAll = false
		}
		states := eng.Cost().Emissions
		growth := "-"
		if prev > 0 {
			growth = fmt.Sprintf("%.1fx", float64(states)/float64(prev))
			if states < prev {
				growthOK = false
			}
		}
		prev = states
		t.Row(fmt.Sprint(gk.N()), fmt.Sprint(k), fmt.Sprint(ndk.Width),
			fmt.Sprint(states), growth, fmt.Sprint(agree))
	}
	// Random-instance exactness sweep.
	for trial := 0; trial < trialsPer; trial++ {
		g := graph.RandomPlanar(30+rng.IntN(60), rng.Float64(), rng)
		h := graph.RandomTree(2+rng.IntN(4), rng)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		eng := match.Run(&match.Problem{G: g, H: h, ND: nd}, nil)
		if eng.Found() != naive.Decide(g, h) {
			agreeAll = false
		}
	}
	if agreeAll {
		t.Pass("DP agreed with the naive oracle on every instance (Lemma 3.1 exactness)")
	} else {
		t.Fail("DP disagreed with the oracle")
	}
	if spread := ratioSpread(perN); spread <= 6 {
		t.Pass("states/n spread %.1fx across the n-sweep (near-linear in n)", spread)
	} else {
		t.Fail("states/n spread %.1fx — super-linear in n", spread)
	}
	if growthOK {
		t.Pass("state counts grew monotonically with k (exponential-in-k regime)")
	} else {
		t.Fail("state counts not monotone in k")
	}
	return t
}

// Fig5 regenerates the behaviour of Figure 5 and Lemmas 3.2/3.3: the
// decomposition into layered paths has O(log n) layers, the no-new-match
// transitions form a forest (at most one outgoing per state), and the
// shortcut construction brings reachability down to O(k log V) BFS hops —
// beating the Θ(path length) a naive traversal would need.
func Fig5(cfg Config) *Table {
	t := &Table{
		ID:     "Figure 5",
		Title:  "path-DAG engine: layers, forest structure, shortcut hop counts",
		Claim:  "O(log n) layers; forest shortcuts give O(k log n) reachability depth",
		Header: []string{"n", "k", "layers", "lg n", "longest path", "DAG V", "forest E", "shortcut E", "hops", "k·lg V"},
	}
	sizes := []int{256, 1024, 4096}
	if cfg.Quick {
		sizes = []int{128, 512}
	}
	layersOK, forestOK, hopsOK, beatsChain := true, true, true, true
	for _, n := range sizes {
		// Path targets produce the long-chain decompositions the engine
		// exists for.
		g := graph.Path(n)
		h := graph.Path(4)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		p := &match.Problem{G: g, H: h, ND: nd}
		eng, stats := pmdag.Run(p, nil)
		if !eng.Found() {
			t.Fail("P4 not found in P%d", n)
		}
		lgn := math.Log2(float64(nd.NumNodes()))
		if float64(stats.Layers) > lgn+2 {
			layersOK = false
		}
		if stats.ForestEdges > stats.DAGVertices {
			forestOK = false
		}
		k := float64(h.N())
		lgV := math.Log2(float64(stats.DAGVertices) + 2)
		if float64(stats.MaxHops) > 8*(k+1)*lgV {
			hopsOK = false
		}
		if n >= 1024 && stats.MaxHops >= stats.LongestPath {
			beatsChain = false
		}
		t.Row(fmt.Sprint(n), "4", fmt.Sprint(stats.Layers), fmt.Sprintf("%.0f", lgn),
			fmt.Sprint(stats.LongestPath), fmt.Sprint(stats.DAGVertices),
			fmt.Sprint(stats.ForestEdges), fmt.Sprint(stats.ShortcutEdges),
			fmt.Sprint(stats.MaxHops), fmt.Sprintf("%.0f", k*lgV))
	}
	if layersOK {
		t.Pass("layer count stayed within lg n + 2 (Lemma 3.2)")
	} else {
		t.Fail("layer count exceeded lg n + 2")
	}
	if forestOK {
		t.Pass("no-new-match transitions form a forest: at most one per state (Figure 5)")
	} else {
		t.Fail("forest property violated")
	}
	if hopsOK {
		t.Pass("reachability BFS stayed within ~8(k+1)·lg V hops (Lemma 3.3)")
	} else {
		t.Fail("hop count exceeded the Lemma 3.3 shape")
	}
	if beatsChain {
		t.Pass("shortcut hops beat the chain length on long paths (the point of Section 3.3)")
	} else {
		t.Fail("shortcuts gave no improvement over the chain")
	}
	return t
}
