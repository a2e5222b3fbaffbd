package treedecomp

import (
	"math"
	"math/rand/v2"
	"testing"

	"planarsi/internal/graph"
)

func TestBalanceValidOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	cases := []*graph.Graph{
		graph.Path(64),
		graph.Cycle(50),
		graph.Grid(8, 8),
		graph.RandomPlanar(120, 0.6, rng),
		graph.Apollonian(80, rng),
		graph.Star(20),
	}
	for i, g := range cases {
		d := Build(g, MinDegree)
		bal := Balance(d)
		if err := Validate(g, bal); err != nil {
			t.Fatalf("case %d: balanced decomposition invalid: %v", i, err)
		}
	}
}

func TestBalanceWidthBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomPlanar(30+rng.IntN(120), rng.Float64(), rng)
		d := Build(g, MinDegree)
		bal := Balance(d)
		if bal.Width() > 3*d.Width()+2 {
			t.Fatalf("trial %d: balanced width %d exceeds 3w+2 = %d",
				trial, bal.Width(), 3*d.Width()+2)
		}
	}
}

func TestBalanceHeightLogarithmic(t *testing.T) {
	// Path graphs give path-shaped decompositions: the worst case for
	// height, the best showcase for balancing.
	for _, n := range []int{64, 256, 1024, 4096} {
		g := graph.Path(n)
		d := Build(g, MinDegree)
		bal := Balance(d)
		if err := Validate(g, bal); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bound := int(3*math.Log2(float64(n))) + 6
		if h := bal.Height(); h > bound {
			t.Fatalf("n=%d: balanced height %d exceeds ~3·lg n = %d (original %d)",
				n, h, bound, d.Height())
		}
		if d.Height() < n/2 {
			t.Fatalf("n=%d: expected a deep original decomposition, got %d", n, d.Height())
		}
	}
}

func TestBalanceTinyInputs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(1), graph.Path(2), graph.Cycle(3)} {
		d := Build(g, MinDegree)
		bal := Balance(d)
		if err := Validate(g, bal); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

func TestBalancedNiceStillDecides(t *testing.T) {
	// End-to-end: a nice decomposition derived from the balanced tree
	// must still satisfy ValidateNice and keep the root bag empty.
	g := graph.Grid(6, 6)
	bal := Balance(Build(g, MinDegree))
	nd := MakeNice(bal)
	if err := ValidateNice(nd); err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, toDecomposition(nd)); err != nil {
		t.Fatal(err)
	}
}

func TestHeight(t *testing.T) {
	// A 3-node path decomposition: root -> child -> grandchild.
	d := &Decomposition{
		Bags:   [][]int32{{0}, {0}, {0}},
		Parent: []int32{-1, 0, 1},
		Root:   0,
	}
	if h := d.Height(); h != 3 {
		t.Fatalf("height = %d, want 3", h)
	}
}
