package treedecomp

import (
	"math/rand/v2"
	"testing"

	"planarsi/internal/graph"
)

func randomGraph(n, extra int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(rng.IntN(v)))
	}
	for e := 0; e < extra; e++ {
		u := rng.Int32N(int32(n))
		v := rng.Int32N(int32(n))
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// toDecomposition views a Nice as a plain Decomposition, so Validate can
// check the nice tree's axioms against the graph.
func toDecomposition(nd *Nice) *Decomposition {
	return &Decomposition{Bags: nd.Bag, Parent: nd.Parent, Root: nd.Root}
}

func TestBuildValidOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cases := map[string]*graph.Graph{
		"path":       graph.Path(20),
		"cycle":      graph.Cycle(17),
		"star":       graph.Star(12),
		"grid":       graph.Grid(6, 7),
		"tree":       graph.RandomTree(40, rng),
		"apollonian": graph.Apollonian(50, rng),
		"k4":         graph.Complete(4),
		"planar":     graph.RandomPlanar(80, 0.6, rng),
		"octahedron": graph.Octahedron(),
		"single":     graph.Path(1),
		"disjoint":   graph.DisjointUnion(graph.Cycle(4), graph.Path(3)),
	}
	for name, g := range cases {
		for _, h := range []Heuristic{MinDegree, MinFill} {
			d := Build(g, h)
			if err := Validate(g, d); err != nil {
				t.Errorf("%s (heuristic %d): %v", name, h, err)
			}
		}
	}
}

func TestKnownWidths(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	if w := Build(graph.Path(30), MinDegree).Width(); w != 1 {
		t.Errorf("path width=%d want 1", w)
	}
	if w := Build(graph.RandomTree(50, rng), MinDegree).Width(); w != 1 {
		t.Errorf("tree width=%d want 1", w)
	}
	if w := Build(graph.Cycle(25), MinDegree).Width(); w != 2 {
		t.Errorf("cycle width=%d want 2", w)
	}
	if w := Build(graph.Complete(4), MinDegree).Width(); w != 3 {
		t.Errorf("K4 width=%d want 3", w)
	}
	// Grid r x c has treewidth min(r,c); min-degree stays close.
	if w := Build(graph.Grid(4, 12), MinDegree).Width(); w < 4 || w > 8 {
		t.Errorf("4x12 grid width=%d want in [4,8]", w)
	}
}

func TestValidateCatchesBrokenDecompositions(t *testing.T) {
	g := graph.Cycle(5)
	d := Build(g, MinDegree)
	// Remove a vertex from every bag: breaks vertex or edge coverage.
	broken := &Decomposition{Bags: make([][]int32, len(d.Bags)), Parent: d.Parent, Root: d.Root}
	for i, b := range d.Bags {
		var nb []int32
		for _, v := range b {
			if v != 3 {
				nb = append(nb, v)
			}
		}
		broken.Bags[i] = nb
	}
	if Validate(g, broken) == nil {
		t.Fatal("expected validation failure for missing vertex")
	}
	// Break contiguity: duplicate a vertex into a far-away bag.
	d2 := Build(graph.Path(10), MinDegree)
	bags := make([][]int32, len(d2.Bags))
	copy(bags, d2.Bags)
	broken2 := &Decomposition{Bags: bags, Parent: d2.Parent, Root: d2.Root}
	// Find a bag not containing 0 and not adjacent to one that does.
	for i := range broken2.Bags {
		has0 := false
		for _, v := range broken2.Bags[i] {
			if v == 0 {
				has0 = true
			}
		}
		if !has0 && broken2.Parent[i] >= 0 {
			p := broken2.Parent[i]
			hasP := false
			for _, v := range broken2.Bags[p] {
				if v == 0 {
					hasP = true
				}
			}
			if !hasP {
				nb := append([]int32{0}, broken2.Bags[i]...)
				broken2.Bags[i] = nb
				if Validate(graph.Path(10), broken2) == nil {
					t.Fatal("expected contiguity failure")
				}
				return
			}
		}
	}
	t.Skip("no suitable bag found to break contiguity")
}

func TestMakeNiceValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	cases := []*graph.Graph{
		graph.Path(15),
		graph.Cycle(12),
		graph.Grid(5, 5),
		graph.Apollonian(40, rng),
		graph.RandomPlanar(60, 0.5, rng),
		graph.Path(1),
		graph.DisjointUnion(graph.Cycle(4), graph.Cycle(5)),
	}
	for i, g := range cases {
		d := Build(g, MinDegree)
		nd := MakeNice(d)
		if err := ValidateNice(nd); err != nil {
			t.Errorf("case %d: nice invalid: %v", i, err)
			continue
		}
		// The nice tree is still a valid tree decomposition of g.
		if err := Validate(g, toDecomposition(nd)); err != nil {
			t.Errorf("case %d: nice fails axioms: %v", i, err)
		}
		if nd.Width != d.Width() {
			t.Errorf("case %d: nice width %d != original %d", i, nd.Width, d.Width())
		}
	}
}

func TestMakeNiceJoinsForBranchyTrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	g := graph.Star(20)
	nd := MakeNice(Build(g, MinDegree))
	joins := 0
	for _, k := range nd.Kind {
		if k == Join {
			joins++
		}
	}
	if joins == 0 {
		t.Error("star decomposition should need join nodes")
	}
	_ = rng
}

// Property: on many random graphs, both heuristics produce valid nice
// decompositions whose every graph edge appears in some bag of the nice
// tree (spot-checking the conversion preserved coverage).
func TestRandomGraphsNiceQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(3+rng.IntN(40), rng.IntN(30), rng)
		d := Build(g, MinDegree)
		if err := Validate(g, d); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nd := MakeNice(d)
		if err := ValidateNice(nd); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(g, toDecomposition(nd)); err != nil {
			t.Fatalf("trial %d nice axioms: %v", trial, err)
		}
	}
}

func TestSlot(t *testing.T) {
	g := graph.Cycle(6)
	nd := MakeNice(Build(g, MinDegree))
	for i := 0; i < nd.NumNodes(); i++ {
		for s, v := range nd.Bag[i] {
			if nd.Slot(int32(i), v) != s {
				t.Fatalf("Slot(%d,%d) wrong", i, v)
			}
		}
		if nd.Slot(int32(i), 99) != -1 {
			t.Fatal("Slot should return -1 for absent vertex")
		}
	}
}

func TestWidthNeverBelowClique(t *testing.T) {
	// Width of any decomposition is at least clique size - 1.
	for n := 2; n <= 4; n++ {
		if w := Build(graph.Complete(n), MinDegree).Width(); w < n-1 {
			t.Errorf("K%d width %d below %d", n, w, n-1)
		}
	}
}
