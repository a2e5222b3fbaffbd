package match

import (
	"math/rand/v2"
	"slices"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/treedecomp"
)

// sameSets checks two results hold byte-identical per-node state sets,
// including insertion order — the multi-sweep contract is exact
// equality with the solo run, not set equality.
func sameSets(t *testing.T, label string, multi, solo *Result) {
	t.Helper()
	if len(multi.Sets) != len(solo.Sets) {
		t.Fatalf("%s: %d nodes vs %d", label, len(multi.Sets), len(solo.Sets))
	}
	for i := range multi.Sets {
		m, s := multi.Sets[i], solo.Sets[i]
		if (m == nil) != (s == nil) {
			t.Fatalf("%s: node %d nil mismatch", label, i)
		}
		if m == nil {
			continue
		}
		if !slices.Equal(m.States(), s.States()) {
			t.Fatalf("%s: node %d states differ (order-sensitive compare)", label, i)
		}
	}
}

// TestRunMultiMatchesSoloRuns: a multi-pattern sweep must produce, for
// every pattern, byte-identical state sets (insertion order included),
// equal emission counters and equal cost totals to a solo Run of the
// same problem — across plain, separating and DecideOnly instances
// sharing one decomposition.
func TestRunMultiMatchesSoloRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 2026))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.IntN(20)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		np := 2 + rng.IntN(4)
		multiPs := make([]*Problem, np)
		soloPs := make([]*Problem, np)
		multiCost := make([]*obs.CostCounter, np)
		soloCost := make([]*obs.CostCounter, np)
		for x := 0; x < np; x++ {
			h := randomPattern(2+rng.IntN(4), rng.IntN(3), rng)
			base := Problem{G: g, H: h, ND: nd}
			switch x % 3 {
			case 1:
				base.Separating = true
				base.S = randomSeparatingMask(n, rng)
			case 2:
				base.DecideOnly = true
			}
			multiCost[x] = &obs.CostCounter{}
			soloCost[x] = &obs.CostCounter{}
			mp, sp := base, base
			mp.Cost = multiCost[x]
			sp.Cost = soloCost[x]
			multiPs[x] = &mp
			soloPs[x] = &sp
		}
		multi := RunMulti(multiPs, nil)
		for x := 0; x < np; x++ {
			solo := Run(soloPs[x], nil)
			sameSets(t, "trial", multi[x], solo)
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

// TestRunMultiPerPatternCancellation: a pattern whose token fired before
// the sweep drops out without touching its batch-mates — they still
// produce byte-identical sets to their solo runs, and the cancelled
// pattern's partial result never reports found.
func TestRunMultiPerPatternCancellation(t *testing.T) {
	g := graph.Grid(6, 6)
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	cancelled := par.NewCanceller()
	cancelled.Cancel()
	ps := []*Problem{
		{G: g, H: graph.Cycle(4), ND: nd},
		{G: g, H: graph.Cycle(4), ND: nd, Cancel: cancelled},
		{G: g, H: graph.Path(4), ND: nd},
	}
	rs := RunMulti(ps, nil)
	for _, x := range []int{0, 2} {
		solo := Run(&Problem{G: g, H: ps[x].H, ND: nd}, nil)
		sameSets(t, "survivor", rs[x], solo)
		if !rs[x].Found() {
			t.Fatalf("pattern %d: want found in the grid", x)
		}
	}
	if rs[1].Found() {
		t.Fatal("cancelled pattern reported found from a partial run")
	}
	if rs[1].Sets[nd.Root] != nil {
		t.Fatal("cancelled pattern solved the root despite a pre-fired token")
	}
}
