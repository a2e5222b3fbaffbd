package bfs

import (
	"math/rand/v2"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/wd"
)

func TestLevelsMatchesSequentialBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomPlanar(100, rng.Float64(), rng)
		src := rng.Int32N(int32(g.N()))
		want := graph.BFSDist(g, src)
		got := Levels(g, []int32{src}, nil, nil, nil)
		for v := range want {
			if want[v] != got.Dist[v] {
				t.Fatalf("trial %d: dist[%d]=%d want %d", trial, v, got.Dist[v], want[v])
			}
		}
	}
}

func TestLevelsMultiSource(t *testing.T) {
	g := graph.Path(10)
	res := Levels(g, []int32{0, 9}, nil, nil, nil)
	want := []int32{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, res.Dist[v], want[v])
		}
	}
	if res.MaxLevel != 4 {
		t.Fatalf("MaxLevel=%d want 4", res.MaxLevel)
	}
}

func TestLevelsRestricted(t *testing.T) {
	g := graph.Grid(3, 5)
	// Restrict to the top row, part 0 of two: BFS behaves like a path.
	owner := make([]int32, g.N())
	for v := 5; v < g.N(); v++ {
		owner[v] = 1
	}
	res := Levels(g, []int32{0}, owner, nil, nil)
	for j := 0; j < 5; j++ {
		if res.Dist[j] != int32(j) {
			t.Fatalf("dist[%d]=%d want %d", j, res.Dist[j], j)
		}
	}
	for v := 5; v < g.N(); v++ {
		if res.Dist[v] != -1 {
			t.Fatalf("vertex %d outside subset got dist %d", v, res.Dist[v])
		}
	}
}

func TestLevelsRoundsEqualEccentricityPlusOne(t *testing.T) {
	g := graph.Path(32)
	res := Levels(g, []int32{0}, nil, nil, nil)
	// One round per nonempty frontier: levels 1..31 plus the final empty
	// check happen in 31 expansions; rounds counts the expansions that
	// produced work.
	if res.MaxLevel != 31 {
		t.Fatalf("MaxLevel=%d want 31", res.MaxLevel)
	}
	if res.Rounds < 31 || res.Rounds > 32 {
		t.Fatalf("Rounds=%d want ~31", res.Rounds)
	}
}

func TestLevelsTracksWork(t *testing.T) {
	tr := wd.NewTracker()
	g := graph.Grid(10, 10)
	Levels(g, []int32{0}, nil, nil, tr)
	if tr.PhaseWork("bfs") == 0 || tr.PhaseRounds("bfs") == 0 {
		t.Fatal("tracker did not record BFS work/rounds")
	}
	// Work should be O(n + m): generously, at most 4(n+2m).
	bound := int64(4 * (g.N() + 2*g.M()))
	if tr.PhaseWork("bfs") > bound {
		t.Fatalf("BFS work %d exceeds linear bound %d", tr.PhaseWork("bfs"), bound)
	}
}

func TestLevelsDisconnected(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(4), graph.Cycle(4))
	res := Levels(g, []int32{0}, nil, nil, nil)
	for v := 4; v < 8; v++ {
		if res.Dist[v] != -1 {
			t.Fatalf("other component reached: dist[%d]=%d", v, res.Dist[v])
		}
	}
}

// Searches of distinct parts share one level array, as the cover's
// per-cluster searches do: each writes only its own part, and together
// they give every vertex its in-part level.
func TestLevelsSharedDist(t *testing.T) {
	g := graph.Grid(3, 5)
	owner := make([]int32, g.N())
	for v := 5; v < g.N(); v++ {
		owner[v] = 1
	}
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	top := Levels(g, []int32{4}, owner, dist, nil)
	rest := Levels(g, []int32{5}, owner, dist, nil)
	if top.MaxLevel != 4 || rest.MaxLevel != 5 {
		t.Fatalf("MaxLevel = %d, %d; want 4, 5", top.MaxLevel, rest.MaxLevel)
	}
	for v := 0; v < g.N(); v++ {
		want := int32(4 - v) // top row, searched from its right end
		if v >= 5 {
			r, c := v/5, v%5
			want = int32(r - 1 + c) // rows 1-2, searched from (1, 0)
		}
		if dist[v] != want {
			t.Fatalf("dist[%d]=%d want %d", v, dist[v], want)
		}
	}
}
