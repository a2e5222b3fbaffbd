package conn

import (
	"math/rand/v2"
	"testing"

	"planarsi/internal/flow"
	"planarsi/internal/graph"
)

func TestFaceIncidenceStructure(t *testing.T) {
	g := graph.Cycle(6)
	gp, s, err := FaceIncidence(g)
	if err != nil {
		t.Fatal(err)
	}
	// A cycle has 2 faces; each face touches all 6 vertices.
	if gp.N() != 6+2 {
		t.Fatalf("G' has %d vertices, want 8", gp.N())
	}
	if gp.M() != 12 {
		t.Fatalf("G' has %d edges, want 12", gp.M())
	}
	for v := 0; v < 6; v++ {
		if !s[v] {
			t.Fatalf("original vertex %d not in S", v)
		}
	}
	for v := 6; v < 8; v++ {
		if s[v] {
			t.Fatalf("face vertex %d wrongly in S", v)
		}
	}
	// Bipartite: no edge between two original or two face vertices.
	for _, e := range gp.Edges() {
		if (e[0] < 6) == (e[1] < 6) {
			t.Fatalf("edge %v violates bipartiteness", e)
		}
	}
}

func TestFaceIncidenceRequiresEmbedding(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	if _, _, err := FaceIncidence(g); err == nil {
		t.Fatal("expected error for non-embedded graph")
	}
}

func TestVertexConnectivityKnownFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"single", graph.Path(1), 0},
		{"edge", graph.Path(2), 1}, // K2: complete
		{"path", graph.Path(12), 1},
		{"star", graph.Star(8), 1},
		{"cycle", graph.Cycle(10), 2},
		{"grid", graph.Grid(5, 6), 2},
		{"wheel", graph.Wheel(8), 3},
		{"tetrahedron", graph.Tetrahedron(), 3},
		{"cube", graph.Cube(), 3},
		{"dodecahedron", graph.Dodecahedron(), 3},
		{"octahedron", graph.Octahedron(), 4},
		{"bipyramid6", graph.Bipyramid(6), 4},
		{"bipyramid8", graph.Bipyramid(8), 4},
		{"icosahedron", graph.Icosahedron(), 5},
		// κ < δ: the glued vertices are the cut, every degree is >= 5.
		{"icosahedra-edge", gluedIcosahedra(2), 2},
		{"icosahedra-face", gluedIcosahedra(3), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := VertexConnectivity(tc.g, Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if res.Connectivity != tc.want {
				t.Fatalf("connectivity = %d, want %d", res.Connectivity, tc.want)
			}
			// Every κ in 1..4 of a non-complete graph has a witness cut.
			if res.Cut == nil && tc.want >= 1 && tc.want <= 4 && !tc.g.IsComplete() {
				t.Fatalf("no witness cut for connectivity %d", tc.want)
			}
			if res.Cut != nil {
				if len(res.Cut) != tc.want {
					t.Fatalf("cut size %d != connectivity %d", len(res.Cut), tc.want)
				}
				if !VerifyCut(tc.g, res.Cut) {
					t.Fatalf("cut %v does not disconnect the graph", res.Cut)
				}
			}
		})
	}
}

// gluedIcosahedra is two icosahedra that share the first `shared`
// vertices of one face: 2 glues them along an edge, 3 along the face.
func gluedIcosahedra(shared int) *graph.Graph {
	ico := graph.Icosahedron()
	n := ico.N()
	face := []int32{0, ico.Neighbors(0)[0]}
	for _, w := range ico.Neighbors(face[1]) {
		if ico.HasEdge(0, w) {
			face = append(face, w)
			break
		}
	}
	// The second copy's vertex v is id[v]: the first copy's vertex on
	// the glued part, a fresh vertex elsewhere.
	id := make([]int32, n)
	for v := range id {
		id[v] = -1
	}
	for _, v := range face[:shared] {
		id[v] = v
	}
	next := int32(n)
	for v := range id {
		if id[v] < 0 {
			id[v] = next
			next++
		}
	}
	b := graph.NewBuilder(2*n - shared)
	for _, e := range ico.Edges() {
		b.AddEdge(e[0], e[1])
		if u, v := id[e[0]], id[e[1]]; !b.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestVertexConnectivityDisconnected(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(4), graph.Cycle(4))
	res, err := VertexConnectivity(g, Options{})
	if err != nil || res.Connectivity != 0 {
		t.Fatalf("got %d, %v; want 0", res.Connectivity, err)
	}
}

func TestVertexConnectivityAgainstFlowOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 12; trial++ {
		g := graph.RandomPlanar(12+rng.IntN(30), 0.3+0.7*rng.Float64(), rng)
		want := flow.VertexConnectivity(g)
		res, err := VertexConnectivity(g, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Connectivity != want {
			t.Fatalf("trial %d: conn=%d flow oracle=%d (n=%d m=%d)",
				trial, res.Connectivity, want, g.N(), g.M())
		}
		if res.Cut != nil && !VerifyCut(g, res.Cut) {
			t.Fatalf("trial %d: invalid cut %v", trial, res.Cut)
		}
	}
}

func TestVertexConnectivityApollonian(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	g := graph.Apollonian(40, rng)
	res, err := VertexConnectivity(g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Connectivity != 3 {
		t.Fatalf("Apollonian connectivity = %d, want 3", res.Connectivity)
	}
	if res.Cut == nil || !VerifyCut(g, res.Cut) {
		t.Fatalf("expected a verifying 3-cut, got %v", res.Cut)
	}
}

func TestVerifyCut(t *testing.T) {
	g := graph.Path(5)
	if !VerifyCut(g, []int32{2}) {
		t.Fatal("middle vertex must disconnect a path")
	}
	if VerifyCut(g, []int32{0}) {
		t.Fatal("endpoint does not disconnect a path")
	}
	if VerifyCut(g, []int32{0, 1, 2, 3}) {
		t.Fatal("removing all but one vertex is not a separation")
	}
	// A cut is a set of vertices of g: an id outside [0, n) or a repeated
	// id fails, even beside a vertex that disconnects g.
	for _, cut := range [][]int32{{2, 99}, {-5, 2}, {2, 2}, {2, 5}} {
		if VerifyCut(g, cut) {
			t.Errorf("cut %v verified on a 5-vertex path", cut)
		}
	}
}

// Regression: in thin 2-connected graphs (both faces of a cycle touch
// every vertex) the 4-cycle through an edge and its two faces separates
// G' without the edge's endpoints being a cut of G. The witness logic
// must reject such cuts and find a verifying one, under either loop.
func TestCycleWitnessNeverAdjacentPair(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := graph.Cycle(10)
		paper := seed >= 10
		res, err := VertexConnectivity(g, Options{Seed: seed % 10, PaperLoop: paper})
		if err != nil {
			t.Fatal(err)
		}
		if res.Connectivity != 2 {
			t.Fatalf("seed %d: connectivity %d, want 2", seed, res.Connectivity)
		}
		if len(res.Cut) != 2 {
			t.Fatalf("seed %d: cut %v, want a 2-cut", seed, res.Cut)
		}
		if !VerifyCut(g, res.Cut) {
			t.Fatalf("seed %d: non-verifying cut %v", seed, res.Cut)
		}
		if g.HasEdge(res.Cut[0], res.Cut[1]) {
			t.Fatalf("seed %d: adjacent pair %v cannot cut a cycle", seed, res.Cut)
		}
	}
}
