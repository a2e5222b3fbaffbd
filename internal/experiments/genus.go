package experiments

import (
	"fmt"
	"math/rand/v2"

	"planarsi/internal/core"
	"planarsi/internal/cover"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/treedecomp"
)

// Genus43 regenerates the Section 4.3 claim: the pipeline extends beyond
// planarity to every minor-closed family of locally bounded treewidth —
// bounded-genus graphs in particular. Nothing in the clustering, the
// cover, or the DP uses planarity; only the 3d width bound does. The
// experiment runs the identical pipeline on genus-1 tori and
// grids-with-handles, checks decisions against the oracle, and measures
// that band widths stay small (locally bounded treewidth showing up
// empirically, the property Theorem 4.4 needs).
func Genus43(cfg Config) *Table {
	t := &Table{
		ID:     "Theorem 4.4",
		Title:  "beyond planarity: bounded-genus targets (Section 4.3)",
		Claim:  "apex-minor-free families: k^O(k) n log³ n work; bands keep bounded width",
		Header: []string{"target", "n", "genus", "pattern", "oracle", "ours", "max band width"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 4301))
	side := 20
	trials := 6
	if cfg.Quick {
		side, trials = 12, 3
	}
	type target struct {
		name  string
		g     *graph.Graph
		genus string
	}
	targets := []target{
		{"torus grid", graph.TorusGrid(side, side), "1"},
		{"grid + 3 handles", graph.GridWithHandles(side, side, 3, rng), "<=3"},
		{"planar grid (control)", graph.Grid(side, side), "0"},
	}
	agreeAll := true
	widthOK := true
	for _, tg := range targets {
		for trial := 0; trial < trials; trial++ {
			var h *graph.Graph
			switch trial % 3 {
			case 0:
				h = graph.Cycle(4)
			case 1:
				h = graph.Path(4)
			default:
				h = graph.Star(4)
			}
			want := naive.Decide(tg.g, h)
			got, err := core.Decide(tg.g, h, core.Options{Seed: cfg.Seed + uint64(trial), PaperLoop: true})
			if err != nil {
				t.Fail("%s: %v", tg.name, err)
				continue
			}
			if got != want {
				agreeAll = false
			}
			// Band widths of one cover run: locally bounded treewidth
			// means they stay O(d) despite the graph not being planar.
			cov := cover.Build(tg.g, cover.Params{K: h.N(), D: graph.Diameter(h)}, rng, nil)
			maxW := 0
			for _, b := range cov.Bands {
				if w := treedecomp.Build(b.G, treedecomp.MinDegree).Width(); w > maxW {
					maxW = w
				}
			}
			if maxW > 14 {
				widthOK = false
			}
			t.Row(tg.name, fmt.Sprint(tg.g.N()), tg.genus, patName(h),
				fmt.Sprint(want), fmt.Sprint(got), fmt.Sprint(maxW))
		}
	}
	if agreeAll {
		t.Pass("decisions agreed with the oracle on every bounded-genus instance")
	} else {
		t.Fail("decision mismatch on a bounded-genus instance")
	}
	if widthOK {
		t.Pass("band widths stayed bounded off-planar (locally bounded treewidth, Thm 4.4's hypothesis)")
	} else {
		t.Fail("band width blew up on a bounded-genus target")
	}
	return t
}
