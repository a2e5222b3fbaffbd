package pmdag

import (
	"math"
	"math/rand/v2"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"
)

func problemFor(g, h *graph.Graph) *match.Problem {
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	return &match.Problem{G: g, H: h, ND: nd}
}

func randomPattern(k int, extra int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(k)
	for v := 1; v < k; v++ {
		b.AddEdge(int32(v), int32(rng.IntN(v)))
	}
	for e := 0; e < extra; e++ {
		u := rng.Int32N(int32(k))
		v := rng.Int32N(int32(k))
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// The defining property: the path-DAG engine computes exactly the same
// valid state sets as the sequential engine, at every single node.
func TestAgreesWithSequentialEngine(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.IntN(25)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		k := 2 + rng.IntN(3)
		h := randomPattern(k, rng.IntN(2), rng)
		p := problemFor(g, h)
		seq := match.Run(p, nil)
		parr, _ := Run(p, nil)
		if seq.Found() != parr.Found() {
			t.Fatalf("trial %d: decision differs: seq=%v dag=%v", trial, seq.Found(), parr.Found())
		}
		for i := range seq.Sets {
			if seq.Sets[i].Len() != parr.Sets[i].Len() {
				t.Fatalf("trial %d: node %d: %d vs %d states", trial, i, seq.Sets[i].Len(), parr.Sets[i].Len())
			}
			for _, s := range seq.Sets[i].States() {
				if !parr.Sets[i].Contains(s) {
					t.Fatalf("trial %d: node %d: state missing in DAG engine", trial, i)
				}
			}
		}
	}
}

// Long chains are the reason the engine exists: a path target graph gives
// a path-shaped decomposition tree. The valid sets must still agree and
// the BFS must finish in O(k log V) hops, not Θ(path length).
func TestLongChainHopsBound(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		g := graph.Path(n)
		h := graph.Path(4)
		p := problemFor(g, h)
		seq := match.Run(p, nil)
		parr, stats := Run(p, nil)
		if seq.Found() != parr.Found() || !parr.Found() {
			t.Fatalf("n=%d: decisions differ or pattern missing", n)
		}
		if stats.LongestPath < n/4 {
			t.Fatalf("n=%d: expected a long decomposition path, got %d", n, stats.LongestPath)
		}
		k := float64(h.N())
		logV := math.Log2(float64(stats.DAGVertices + 2))
		bound := int(8 * (k + 1) * logV)
		if stats.MaxHops > bound {
			t.Fatalf("n=%d: BFS took %d hops, Lemma 3.3 bound ~%d (V=%d)", n, stats.MaxHops, bound, stats.DAGVertices)
		}
		// And the hop count must beat the trivial chain length once the
		// chain is long.
		if n >= 1024 && stats.MaxHops >= stats.LongestPath {
			t.Fatalf("n=%d: shortcuts gave no improvement: hops=%d path=%d", n, stats.MaxHops, stats.LongestPath)
		}
	}
}

func TestCycleTargets(t *testing.T) {
	for _, n := range []int{16, 100} {
		g := graph.Cycle(n)
		for _, h := range []*graph.Graph{graph.Path(3), graph.Cycle(n), graph.Cycle(3)} {
			if h.N() > match.MaxK {
				continue
			}
			p := problemFor(g, h)
			seq := match.Run(p, nil)
			parr, _ := Run(p, nil)
			if seq.Found() != parr.Found() {
				t.Fatalf("n=%d k=%d: decisions differ", n, h.N())
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := graph.Grid(6, 6)
	h := graph.Cycle(4)
	tr := wd.NewTracker()
	_, stats := Run(problemFor(g, h), tr)
	if stats.DAGVertices == 0 || stats.DAGEdges == 0 {
		t.Fatal("DAG should not be empty")
	}
	if stats.ForestEdges == 0 {
		t.Fatal("forest edges expected")
	}
	if stats.Paths == 0 || stats.Layers == 0 {
		t.Fatal("path decomposition stats missing")
	}
	if tr.PhaseRounds("pmdag-bfs") == 0 {
		t.Fatal("BFS rounds not tracked")
	}
}

func TestForestEdgesAreFunctional(t *testing.T) {
	// Forest edges = no-new-match transitions; per Figure 5 each state has
	// at most one, which Stats implies: ForestEdges <= DAGVertices.
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomPlanar(30+rng.IntN(40), rng.Float64(), rng)
		h := randomPattern(3, 1, rng)
		_, stats := Run(problemFor(g, h), nil)
		if stats.ForestEdges > stats.DAGVertices {
			t.Fatalf("trial %d: %d forest edges exceed %d vertices", trial, stats.ForestEdges, stats.DAGVertices)
		}
	}
}

func TestSeparatingModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for separating mode")
		}
	}()
	g := graph.Cycle(5)
	p := problemFor(g, graph.Path(2))
	p.Separating = true
	p.S = make([]bool, g.N())
	Run(p, nil)
}

// The dense-spacing ablation variant must compute exactly the same valid
// sets as the default configuration (only the shortcut count differs).
func TestRunConfigDenseAgrees(t *testing.T) {
	g := graph.Path(300)
	h := graph.Path(4)
	p := problemFor(g, h)
	defs, defStats := RunMulti([]*match.Problem{p}, Config{}, nil)
	denses, denseStats := RunMulti([]*match.Problem{p}, Config{ShortcutSpacing: 1}, nil)
	def, dense := defs[0], denses[0]
	if def.Found() != dense.Found() {
		t.Fatal("configurations disagree on the decision")
	}
	for i := range def.Sets {
		if def.Sets[i].Len() != dense.Sets[i].Len() {
			t.Fatalf("node %d: %d vs %d states", i, def.Sets[i].Len(), dense.Sets[i].Len())
		}
	}
	if denseStats.ShortcutEdges <= defStats.ShortcutEdges {
		t.Fatalf("dense spacing should add more shortcut edges: %d vs %d",
			denseStats.ShortcutEdges, defStats.ShortcutEdges)
	}
}
