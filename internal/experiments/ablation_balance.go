package experiments

import (
	"fmt"
	"math"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/pmdag"
	"planarsi/internal/treedecomp"
)

// AblationBalance measures the alternative the paper's Section 3.3
// explicitly avoids: rebalancing the tree decomposition to height
// O(log n) (Bodlaender-Hagerup, tripling the width) and running the
// sequential DP level-parallel on it, versus the paper's path-DAG engine
// on the original decomposition. Both reach poly-log depth; the balanced
// route pays for it with a (τ'+3)/(τ+3) ≈ 3x wider state space — the
// Ω(9^k)-work factor the paper cites as its reason to build shortcuts
// instead.
func AblationBalance(cfg Config) *Table {
	t := &Table{
		ID:     "Ablation A5",
		Title:  "depth reduction: balanced decomposition (3w+2) vs path-DAG shortcuts",
		Claim:  "balancing gives O(log n) height but up to 9^k more DP work; shortcuts avoid it",
		Header: []string{"n", "k", "route", "width", "height/hops", "lg n", "states", "vs paper"},
	}
	sizes := []int{256, 1024}
	if cfg.Quick {
		sizes = []int{128, 512}
	}
	workOK, heightOK, agree := true, true, true
	for _, n := range sizes {
		g := graph.Path(n)
		lgn := math.Log2(float64(n))
		for _, k := range []int{3, 4} {
			h := graph.Path(k)
			d := treedecomp.Build(g, treedecomp.MinDegree)

			nd := treedecomp.MakeNice(d)
			p := &match.Problem{G: g, H: h, ND: nd}
			eng, stats := pmdag.Run(p, nil)
			paperStates := eng.Cost().Emissions
			t.Row(fmt.Sprint(n), fmt.Sprint(k), "path-DAG (paper)",
				fmt.Sprint(nd.Width), fmt.Sprintf("%d hops", stats.MaxHops),
				fmt.Sprintf("%.0f", lgn), fmt.Sprint(paperStates), "1.0x")

			bal := treedecomp.Balance(d)
			bnd := treedecomp.MakeNice(bal)
			bp := &match.Problem{G: g, H: h, ND: bnd}
			beng := match.Run(bp, nil)
			balStates := beng.Cost().Emissions
			ratio := float64(balStates) / float64(paperStates)
			t.Row(fmt.Sprint(n), fmt.Sprint(k), "balanced 3w+2",
				fmt.Sprint(bnd.Width), fmt.Sprintf("%d height", bal.Height()),
				fmt.Sprintf("%.0f", lgn), fmt.Sprint(balStates), fmt.Sprintf("%.1fx", ratio))

			if eng.Found() != beng.Found() {
				agree = false
			}
			if ratio < 1.5 {
				workOK = false // the width blowup must be visible in the states
			}
			if float64(bal.Height()) > 3*lgn+6 {
				heightOK = false
			}
		}
	}
	if agree {
		t.Pass("both routes decided identically")
	} else {
		t.Fail("decisions diverged")
	}
	if heightOK {
		t.Pass("balanced height stayed within ~3·lg n (the depth win)")
	} else {
		t.Fail("balanced decomposition not logarithmic")
	}
	if workOK {
		t.Pass("balanced route paid >1.5x the states — the width-blowup work penalty the paper avoids")
	} else {
		t.Fail("width blowup did not show in the state counts")
	}
	return t
}
