package colorcode

import (
	"math"
	"math/rand/v2"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/naive"
)

func TestRejectsNonTrees(t *testing.T) {
	g := graph.Grid(4, 4)
	for _, h := range []*graph.Graph{
		graph.Cycle(4),
		graph.DisjointUnion(graph.Path(2), graph.Path(2)),
		graph.NewBuilder(0).Build(),
	} {
		if _, err := Decide(g, h, Options{}, rand.New(rand.NewPCG(1, 1)), nil); err == nil {
			t.Fatalf("pattern %v accepted; want error", h)
		}
	}
}

func TestDecideAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 25; trial++ {
		g := graph.RandomPlanar(10+rng.IntN(30), rng.Float64(), rng)
		h := graph.RandomTree(2+rng.IntN(4), rng)
		want := naive.Decide(g, h)
		got, err := Decide(g, h, Options{}, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: colorcode=%v oracle=%v (k=%d)", trial, got, want, h.N())
		}
	}
}

func TestFindReturnsValidOccurrence(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	found := 0
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomPlanar(15+rng.IntN(30), 0.5+0.5*rng.Float64(), rng)
		h := graph.RandomTree(3+rng.IntN(3), rng)
		occ, err := Find(g, h, Options{}, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if occ == nil {
			if naive.Decide(g, h) {
				t.Fatalf("trial %d: missed an existing occurrence", trial)
			}
			continue
		}
		found++
		if !VerifyOccurrence(g, h, occ) {
			t.Fatalf("trial %d: invalid occurrence %v", trial, occ)
		}
	}
	if found == 0 {
		t.Fatal("no trial found anything; inputs too hostile")
	}
}

func TestPathInPath(t *testing.T) {
	g := graph.Path(40)
	h := graph.Path(6)
	rng := rand.New(rand.NewPCG(9, 10))
	got, err := Decide(g, h, Options{}, rng, nil)
	if err != nil || !got {
		t.Fatalf("P6 in P40: got %v, %v", got, err)
	}
	long := graph.Path(13)
	gshort := graph.Path(12)
	got, err = Decide(gshort, long, Options{}, rng, nil)
	if err != nil || got {
		t.Fatalf("P13 in P12: got %v, %v", got, err)
	}
}

func TestStarPattern(t *testing.T) {
	// A degree-5 star needs a degree-5 vertex.
	rng := rand.New(rand.NewPCG(11, 12))
	h := graph.Star(6)
	if got, err := Decide(graph.Star(8), h, Options{}, rng, nil); err != nil || !got {
		t.Fatalf("star in star: %v, %v", got, err)
	}
	if got, err := Decide(graph.Grid(6, 6), h, Options{}, rng, nil); err != nil || got {
		t.Fatalf("degree-5 star in degree-4 grid: %v, %v", got, err)
	}
}

func TestWorkCounter(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	var work int64
	_, err := Decide(graph.Grid(8, 8), graph.Path(4), Options{Reps: 5, CountWork: &work}, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if work == 0 {
		t.Fatal("work counter not incremented")
	}
}

// expectedColorfulProbability returns k!/k^k, the chance a fixed
// occurrence is colorful under one coloring.
func expectedColorfulProbability(k int) float64 {
	p := 1.0
	for i := 1; i <= k; i++ {
		p *= float64(i) / float64(k)
	}
	return p
}

func TestExpectedColorfulProbability(t *testing.T) {
	// k!/k^k for k=3 is 6/27.
	if p := expectedColorfulProbability(3); math.Abs(p-6.0/27) > 1e-12 {
		t.Fatalf("p(3) = %v, want %v", p, 6.0/27)
	}
	if p := expectedColorfulProbability(1); p != 1 {
		t.Fatalf("p(1) = %v, want 1", p)
	}
	// Always above e^{-k}.
	for k := 1; k <= MaxK; k++ {
		if p := expectedColorfulProbability(k); p < math.Exp(-float64(k)) {
			t.Fatalf("p(%d)=%v below e^-k", k, p)
		}
	}
}

// The empirical colorful rate over many colorings should be near k!/k^k.
func TestColorfulRateMatchesTheory(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	g := graph.Path(3) // the occurrence is the whole path
	h := graph.Path(3)
	pt, err := rootTree(h)
	if err != nil {
		t.Fatal(err)
	}
	trials, hits := 4000, 0
	color := make([]int8, 3)
	for i := 0; i < trials; i++ {
		for v := range color {
			color[v] = int8(rng.IntN(3))
		}
		if _, found := colorfulSearch(g, pt, color, nil); found {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	want := expectedColorfulProbability(3) // 2/9 per direction... both orientations share colors
	// The path has two automorphic occurrences using the same 3 vertices;
	// they are colorful together, so the hit rate is exactly k!/k^k.
	if math.Abs(rate-want) > 0.03 {
		t.Fatalf("colorful rate %.3f, theory %.3f", rate, want)
	}
}
