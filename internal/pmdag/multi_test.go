package pmdag

import (
	"math/rand/v2"
	"slices"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/treedecomp"
)

// TestRunMultiMatchesSoloRuns: the multi-pattern path-DAG sweep must
// give every pattern the same per-node state sets, decision, emission
// count and cost totals as a solo Run over the same decomposition.
func TestRunMultiMatchesSoloRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 2026))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.IntN(22)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		np := 2 + rng.IntN(3)
		multiPs := make([]*match.Problem, np)
		multiCost := make([]*obs.CostCounter, np)
		soloCost := make([]*obs.CostCounter, np)
		hs := make([]*graph.Graph, np)
		for x := 0; x < np; x++ {
			hs[x] = randomPattern(2+rng.IntN(3), rng.IntN(2), rng)
			multiCost[x] = &obs.CostCounter{}
			soloCost[x] = &obs.CostCounter{}
			decideOnly := x%2 == 1
			multiPs[x] = &match.Problem{G: g, H: hs[x], ND: nd, DecideOnly: decideOnly, Cost: multiCost[x]}
		}
		multi, _ := RunMulti(multiPs, Config{}, nil)
		for x := 0; x < np; x++ {
			solo, _ := Run(&match.Problem{
				G: g, H: hs[x], ND: nd, DecideOnly: multiPs[x].DecideOnly, Cost: soloCost[x],
			}, nil)
			for i := range solo.Sets {
				m, s := multi[x].Sets[i], solo.Sets[i]
				if (m == nil) != (s == nil) {
					t.Fatalf("trial %d pattern %d: node %d nil mismatch", trial, x, i)
				}
				if m == nil {
					continue
				}
				if !slices.Equal(canon(m.States()), canon(s.States())) {
					t.Fatalf("trial %d pattern %d: node %d sets differ", trial, x, i)
				}
			}
			if multi[x].Found() != solo.Found() {
				t.Fatalf("trial %d pattern %d: decisions differ", trial, x)
			}
			if multi[x].Cost().Emissions != solo.Cost().Emissions {
				t.Fatalf("trial %d pattern %d: emissions %d vs %d",
					trial, x, multi[x].Cost().Emissions, solo.Cost().Emissions)
			}
			if mc, sc := multiCost[x].Snapshot(), soloCost[x].Snapshot(); mc != sc {
				t.Fatalf("trial %d pattern %d: cost %+v vs %+v", trial, x, mc, sc)
			}
		}
	}
}

// TestRunMultiPerPatternCancellation: one pattern's pre-fired token
// abandons only that pattern; its batch-mates decide exactly as solo
// runs.
func TestRunMultiPerPatternCancellation(t *testing.T) {
	g := graph.Grid(6, 6)
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	cancelled := par.NewCanceller()
	cancelled.Cancel()
	ps := []*match.Problem{
		{G: g, H: graph.Cycle(4), ND: nd},
		{G: g, H: graph.Cycle(6), ND: nd, Cancel: cancelled},
		{G: g, H: graph.Path(5), ND: nd},
	}
	rs, _ := RunMulti(ps, Config{}, nil)
	if !rs[0].Found() || !rs[2].Found() {
		t.Fatal("surviving patterns must find their grid motifs")
	}
	if rs[1].Found() {
		t.Fatal("cancelled pattern reported found from a partial run")
	}
}
