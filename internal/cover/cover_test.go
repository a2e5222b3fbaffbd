package cover

import (
	"math/rand/v2"
	"slices"
	"testing"

	"planarsi/internal/estc"
	"planarsi/internal/graph"
	"planarsi/internal/treedecomp"
)

func TestBandsAreInducedSubgraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := graph.RandomPlanar(200, 0.6, rng)
	c := Build(g, Params{K: 4, D: 2}, rng, nil)
	if len(c.Bands) == 0 {
		t.Fatal("no bands produced")
	}
	for _, b := range c.Bands {
		for li := int32(0); li < int32(b.G.N()); li++ {
			ov := b.Orig[li]
			if ov < 0 || int(ov) >= g.N() {
				t.Fatal("band vertex maps outside target")
			}
			for _, lw := range b.G.Neighbors(li) {
				if !g.HasEdge(ov, b.Orig[lw]) {
					t.Fatal("band edge not present in target")
				}
			}
		}
		// Induced: edges between band vertices in g appear in the band.
		local := make(map[int32]int32)
		for li, ov := range b.Orig {
			local[ov] = int32(li)
		}
		for _, ov := range b.Orig {
			for _, w := range g.Neighbors(ov) {
				if lw, ok := local[w]; ok && !b.G.HasEdge(local[ov], lw) {
					t.Fatal("band is not induced")
				}
			}
		}
	}
}

// Theorem 2.4: every vertex is in at most d+1 bands and the total size is
// O(dn).
func TestMultiplicityAndTotalSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomPlanar(150+rng.IntN(200), rng.Float64(), rng)
		d := 1 + rng.IntN(4)
		c := Build(g, Params{K: 4, D: d}, rng, nil)
		mult := c.Multiplicity(g.N())
		for v, m := range mult {
			if m > d+1 {
				t.Fatalf("trial %d: vertex %d in %d bands > d+1=%d", trial, v, m, d+1)
			}
		}
		if c.TotalSize() > (d+1)*g.N() {
			t.Fatalf("trial %d: total band size %d exceeds (d+1)n=%d", trial, c.TotalSize(), (d+1)*g.N())
		}
	}
}

// Theorem 2.4: band treewidth stays O(d) — measured via the min-degree
// heuristic on planar targets (the substitution DESIGN.md documents; the
// theoretical bound is 3d).
func TestBandWidthBounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := graph.Grid(25, 25)
	for _, d := range []int{1, 2, 3} {
		c := Build(g, Params{K: 4, D: d}, rng, nil)
		for _, b := range c.Bands {
			td := treedecomp.Build(b.G, treedecomp.MinDegree)
			if err := treedecomp.Validate(b.G, td); err != nil {
				t.Fatalf("d=%d: invalid decomposition: %v", d, err)
			}
			if td.Width() > 3*d+1 {
				t.Fatalf("d=%d: band width %d exceeds 3d+1", d, td.Width())
			}
		}
	}
}

// Theorem 2.4: a fixed occurrence lands inside a single band with
// probability at least 1/2 (planted 4-cycles in a grid). The 4-cycle has
// diameter 2, so the cover must use d = 2: from any BFS root its vertices
// span three consecutive levels.
func TestOccurrenceSurvival(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	g := graph.Grid(18, 18)
	// The 4-cycle at rows 8-9, cols 8-9 (middle of the grid).
	occ := []int32{8*18 + 8, 8*18 + 9, 9*18 + 9, 9*18 + 8}
	trials, survived := 120, 0
	for trial := 0; trial < trials; trial++ {
		c := Build(g, Params{K: 4, D: 2}, rng, nil)
		found := false
		for _, b := range c.Bands {
			present := 0
			for _, ov := range b.Orig {
				for _, o := range occ {
					if ov == o {
						present++
					}
				}
			}
			if present == len(occ) {
				found = true
				break
			}
		}
		if found {
			survived++
		}
	}
	frac := float64(survived) / float64(trials)
	if frac < 0.5 {
		t.Errorf("survival fraction %.3f below Theorem 2.4's 1/2", frac)
	}
}

func TestLowestLevelMarks(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	g := graph.RandomPlanar(100, 0.5, rng)
	c := Build(g, Params{K: 3, D: 2}, rng, nil)
	for _, b := range c.Bands {
		any := false
		for _, m := range b.LowestLevelLocal {
			if m {
				any = true
			}
		}
		if !any {
			t.Fatal("every band must contain its lowest level")
		}
	}
}

// Separating cover: bands are minors whose merged classes preserve the
// connectivity of the complement; removing any subset of band vertices
// separates S in the minor iff it does in the original graph.
func TestSeparatingBandPreservesSeparation(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomPlanar(40+rng.IntN(40), 0.4+0.6*rng.Float64(), rng)
		s := make([]bool, g.N())
		for v := range s {
			s[v] = rng.Float64() < 0.4
		}
		p := Params{K: 3, D: 1}
		c := SeparatingFromClustering(g, estc.Cluster(g, p.beta(), rng, nil), s, p, nil)
		for _, b := range c.Bands {
			if b.Allowed == nil || b.S == nil {
				t.Fatal("separating band missing masks")
			}
			// Pick a random small subset of allowed (real) band vertices
			// and compare separation in minor vs original.
			var realVerts []int32
			for li, ov := range b.Orig {
				if ov >= 0 {
					if !b.Allowed[li] {
						t.Fatal("real vertex should be allowed")
					}
					realVerts = append(realVerts, int32(li))
				} else if b.Allowed[li] {
					t.Fatal("merged vertex should not be allowed")
				}
			}
			if len(realVerts) == 0 {
				continue
			}
			cut := map[int32]bool{}
			for j := 0; j < 1+rng.IntN(3) && j < len(realVerts); j++ {
				cut[realVerts[rng.IntN(len(realVerts))]] = true
			}
			if separatesInGraph(b.G, b.S, cut) != separatesInOriginal(g, s, b, cut) {
				t.Fatalf("trial %d: separation differs between minor and original", trial)
			}
		}
	}
}

// The plain and separating covers of one clustering cut the same level
// windows: equal band counts, BFS depth and (Cluster, Level) sequence,
// and each minor's real vertices are exactly the plain band's vertices.
func TestPlainAndSeparatingCutSameWindows(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomPlanar(60+rng.IntN(60), 0.4+0.6*rng.Float64(), rng)
		s := make([]bool, g.N())
		for v := range s {
			s[v] = rng.Float64() < 0.3
		}
		for _, p := range []Params{{K: 3, D: 1}, {K: 4, D: 2}, {K: 5, D: 3}, {K: 6, D: 2}} {
			cl := estc.Cluster(g, p.beta(), rng, nil)
			plain := FromClustering(g, cl, p, nil)
			sep := SeparatingFromClustering(g, cl, s, p, nil)
			if len(plain.Bands) != len(sep.Bands) || plain.BFSRounds != sep.BFSRounds {
				t.Fatalf("trial %d %+v: plain %d bands / %d rounds, separating %d / %d",
					trial, p, len(plain.Bands), plain.BFSRounds, len(sep.Bands), sep.BFSRounds)
			}
			for i, pb := range plain.Bands {
				sb := sep.Bands[i]
				if pb.Cluster != sb.Cluster || pb.Level != sb.Level {
					t.Fatalf("trial %d %+v band %d: plain (%d, %d), separating (%d, %d)",
						trial, p, i, pb.Cluster, pb.Level, sb.Cluster, sb.Level)
				}
				var kept []int32
				for _, ov := range sb.Orig {
					if ov >= 0 {
						kept = append(kept, ov)
					}
				}
				want := slices.Clone(pb.Orig)
				slices.Sort(kept)
				slices.Sort(want)
				if !slices.Equal(kept, want) {
					t.Fatalf("trial %d %+v band %d: minor keeps %v, plain band has %v", trial, p, i, kept, want)
				}
			}
		}
	}
}

// separatesInGraph removes the cut (local ids) from band graph bg and
// checks whether two S vertices land in different components.
func separatesInGraph(bg *graph.Graph, s []bool, cut map[int32]bool) bool {
	var keep []int32
	for v := int32(0); v < int32(bg.N()); v++ {
		if !cut[v] {
			keep = append(keep, v)
		}
	}
	sub, orig := graph.Induce(bg, keep)
	comp, _ := graph.Components(sub)
	first := int32(-1)
	for i, ov := range orig {
		if s[ov] {
			if first < 0 {
				first = comp[i]
			} else if comp[i] != first {
				return true
			}
		}
	}
	return false
}

// separatesInOriginal removes the images of the cut (original ids) from g.
func separatesInOriginal(g *graph.Graph, s []bool, b *Band, cut map[int32]bool) bool {
	inCut := make(map[int32]bool)
	for li := range cut {
		if b.Orig[li] >= 0 {
			inCut[b.Orig[li]] = true
		}
	}
	var keep []int32
	for v := int32(0); v < int32(g.N()); v++ {
		if !inCut[v] {
			keep = append(keep, v)
		}
	}
	sub, orig := graph.Induce(g, keep)
	comp, _ := graph.Components(sub)
	first := int32(-1)
	for i, ov := range orig {
		if s[ov] {
			if first < 0 {
				first = comp[i]
			} else if comp[i] != first {
				return true
			}
		}
	}
	return false
}

func TestCoverOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	// Must not crash on tiny graphs.
	for _, g := range []*graph.Graph{graph.Path(1), graph.Path(2), graph.Cycle(3)} {
		c := Build(g, Params{K: 1, D: 0}, rng, nil)
		if len(c.Bands) == 0 {
			t.Fatal("expected at least one band")
		}
	}
}

func TestBetaOverride(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	g := graph.Grid(20, 20)
	small := Build(g, Params{K: 4, D: 1, Beta: 1.5}, rng, nil)
	big := Build(g, Params{K: 4, D: 1, Beta: 16}, rng, nil)
	// Smaller beta gives smaller clusters, hence bands from more of them.
	clusters := func(c *Cover) int {
		seen := map[int32]bool{}
		for _, b := range c.Bands {
			seen[b.Cluster] = true
		}
		return len(seen)
	}
	if clusters(small) <= clusters(big) {
		t.Fatalf("beta=1.5 cut bands from %d clusters, beta=16 from %d — expected more with smaller beta",
			clusters(small), clusters(big))
	}
}
