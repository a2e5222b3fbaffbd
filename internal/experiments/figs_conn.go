package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/flow"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/par"
	"planarsi/internal/wd"
)

// Fig6 regenerates the behaviour of Figure 6 and Lemmas 5.1/5.2: planar
// vertex connectivity decided through separating cycles in the
// vertex-face incidence graph, validated against the max-flow oracle on
// families of every connectivity class 1..5, with near-linear work
// scaling in n.
//
// It runs on one worker: a hit fells its sibling bands at moments that
// depend on band timing, so with more workers the work column of a
// family that hits changes from run to run.
func Fig6(cfg Config) *Table {
	par.SetParallelism(1)
	defer par.SetParallelism(0)
	t := &Table{
		ID:     "Figure 6",
		Title:  "planar vertex connectivity via separating cycles vs max-flow oracle",
		Claim:  "κ(G) = (shortest separating cycle in G')/2; O(n log n) work, O(log² n) depth",
		Header: []string{"family", "n", "expected κ", "ours", "flow oracle", "cut ok", "work", "work/(n·lgn)", "time"},
		Notes:  []string{"NOTE: measured on one worker, so the work column repeats from run to run"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 601))
	big := 600
	if cfg.Quick {
		big = 150
	}
	families := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path", graph.Path(big), 1},
		{"cycle", graph.Cycle(big), 2},
		{"grid", graph.Grid(intSqrt(big), intSqrt(big)), 2},
		{"wheel", graph.Wheel(60), 3},
		{"dodecahedron", graph.Dodecahedron(), 3},
		{"apollonian", graph.Apollonian(big/2, rng), 3},
		{"octahedron", graph.Octahedron(), 4},
		{"bipyramid", graph.Bipyramid(40), 4},
		{"icosahedron", graph.Icosahedron(), 5},
	}
	// Run budget: 12 cover repetitions per cycle search keeps the error of
	// "no shorter cut" answers below 2^-12 while keeping the sweep fast.
	const famRuns = 12
	agreeAll, cutsOK := true, true
	for _, fam := range families {
		tr := wd.NewTracker()
		start := time.Now()
		res, err := conn.VertexConnectivity(fam.g, conn.Options{Seed: cfg.Seed, Tracker: tr, MaxRuns: famRuns, PaperLoop: true})
		elapsed := time.Since(start)
		if err != nil {
			t.Fail("%s: %v", fam.name, err)
			continue
		}
		oracle := flow.VertexConnectivity(fam.g)
		if res.Connectivity != fam.want || oracle != fam.want {
			agreeAll = false
		}
		cutNote := "-"
		if res.Cut != nil {
			if conn.VerifyCut(fam.g, res.Cut) && len(res.Cut) == res.Connectivity {
				cutNote = "yes"
			} else {
				cutNote = "NO"
				cutsOK = false
			}
		}
		n := float64(fam.g.N())
		lgn := math.Log2(n + 2)
		t.Row(fam.name, fmt.Sprint(fam.g.N()), fmt.Sprint(fam.want),
			fmt.Sprint(res.Connectivity), fmt.Sprint(oracle), cutNote,
			fmt.Sprint(tr.Work()), fmt.Sprintf("%.1f", float64(tr.Work())/(n*lgn)),
			elapsed.Round(time.Millisecond).String())
	}
	// Work scaling sweep on one family (bipyramids: κ=4 exercises the full
	// C4+C6+C8 chain, with the C4 and C6 searches running their whole
	// budget before failing — the expensive path).
	var ratios []float64
	sweep := []int{48, 96, 192}
	if cfg.Quick {
		sweep = []int{32, 64}
	}
	for _, n := range sweep {
		g := graph.Bipyramid(n)
		tr := wd.NewTracker()
		start := time.Now()
		res, err := conn.VertexConnectivity(g, conn.Options{Seed: cfg.Seed, Tracker: tr, MaxRuns: famRuns, PaperLoop: true})
		elapsed := time.Since(start)
		if err != nil || res.Connectivity != 4 {
			t.Fail("bipyramid(%d): κ=%d err=%v", n, res.Connectivity, err)
			continue
		}
		nn := float64(g.N())
		lgn := math.Log2(nn + 2)
		ratios = append(ratios, float64(tr.Work())/(nn*lgn))
		t.Row("bipyramid sweep", fmt.Sprint(g.N()), "4", fmt.Sprint(res.Connectivity), "-", "-",
			fmt.Sprint(tr.Work()), fmt.Sprintf("%.1f", float64(tr.Work())/(nn*lgn)),
			elapsed.Round(time.Millisecond).String())
	}
	if agreeAll {
		t.Pass("connectivity matched the expected value and the flow oracle on every family (κ = 1..5)")
	} else {
		t.Fail("connectivity mismatch")
	}
	if cutsOK {
		t.Pass("every reported cut verified (size = κ and disconnects the graph)")
	} else {
		t.Fail("an invalid cut was reported")
	}
	if spread := ratioSpread(ratios); spread <= 12 {
		t.Pass("work/(n·lg n) spread %.1fx across the bipyramid sweep (near-linear shape)", spread)
	} else {
		t.Fail("work/(n·lg n) spread %.1fx — super-linear", spread)
	}
	return t
}

// Fig7 regenerates the behaviour of Figure 7 and Lemma 5.3: the
// separating cover preserves separating occurrences (survival >= 1/2
// per run) and the separating DP agrees with a brute-force separating
// search.
func Fig7(cfg Config) *Table {
	t := &Table{
		ID:     "Figure 7",
		Title:  "separating subgraph isomorphism: cover survival and exactness",
		Claim:  "separating occurrences found w.p. >= 1/2 per run; O(2^{9k}(3k+1)^{3k+1} n log n) work",
		Header: []string{"instance", "n", "pattern", "brute force", "ours", "witness ok"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 701))
	trials := 20
	if cfg.Quick {
		trials = 8
	}
	agreeAll, witnessOK := true, true
	for trial := 0; trial < trials; trial++ {
		g := graph.RandomPlanar(12+rng.IntN(24), 0.4+0.6*rng.Float64(), rng)
		s := make([]bool, g.N())
		for v := range s {
			s[v] = rng.Float64() < 0.5
		}
		k := 3 + rng.IntN(2)
		h := graph.Cycle(k)
		want := false
		for _, a := range naive.Search(g, h, naive.Options{}) {
			if core.VerifySeparating(g, h, s, a) {
				want = true
				break
			}
		}
		occ, err := core.DecideSeparating(g, h, s, core.Options{Seed: cfg.Seed + uint64(trial), PaperLoop: true})
		if err != nil {
			t.Fail("trial %d: %v", trial, err)
			continue
		}
		got := occ != nil
		if got != want {
			agreeAll = false
		}
		wOK := "-"
		if got {
			if core.VerifySeparating(g, h, s, occ) {
				wOK = "yes"
			} else {
				wOK = "NO"
				witnessOK = false
			}
		}
		t.Row(fmt.Sprintf("random %d", trial), fmt.Sprint(g.N()), fmt.Sprintf("C%d", k),
			fmt.Sprint(want), fmt.Sprint(got), wOK)
	}
	// Survival measurement: a planted separating rim in a double wheel.
	rim := 8
	b := graph.NewBuilder(rim + 2)
	for i := 0; i < rim; i++ {
		b.AddEdge(int32(i), int32((i+1)%rim))
		b.AddEdge(int32(i), int32(rim))
		b.AddEdge(int32(i), int32(rim+1))
	}
	dw := b.Build()
	s := make([]bool, dw.N())
	s[rim], s[rim+1] = true, true
	survTrials, survived := 30, 0
	if cfg.Quick {
		survTrials = 10
	}
	for i := 0; i < survTrials; i++ {
		occ, err := core.DecideSeparating(dw, graph.Cycle(rim), s, core.Options{
			Seed: cfg.Seed + uint64(1000+i), MaxRuns: 1, PaperLoop: true})
		if err == nil && occ != nil {
			survived++
		}
	}
	surv := float64(survived) / float64(survTrials)
	t.Row("double wheel (1 run)", fmt.Sprint(dw.N()), fmt.Sprintf("C%d", rim),
		"true", fmt.Sprintf("%.2f of runs", surv), "-")
	if agreeAll {
		t.Pass("separating decision agreed with brute force on every random instance")
	} else {
		t.Fail("separating decision disagreed with brute force")
	}
	if witnessOK {
		t.Pass("every witness verified as a separating occurrence")
	} else {
		t.Fail("invalid witness")
	}
	if surv >= 0.5 {
		t.Pass("planted separating rim found in %.0f%% of single runs (>= 50%%)", surv*100)
	} else {
		t.Fail("single-run success %.0f%% below 50%%", surv*100)
	}
	return t
}
