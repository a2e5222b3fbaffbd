package planarsi_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"planarsi"
)

func TestPublicDecide(t *testing.T) {
	g := planarsi.Grid(10, 10)
	h := planarsi.Cycle(4)
	found, err := planarsi.Decide(g, h, planarsi.Options{Seed: 1})
	if err != nil || !found {
		t.Fatalf("C4 in grid: %v, %v", found, err)
	}
	tri := planarsi.Cycle(3)
	found, err = planarsi.Decide(g, tri, planarsi.Options{Seed: 1})
	if err != nil || found {
		t.Fatalf("triangle in bipartite grid: %v, %v", found, err)
	}
}

func TestPublicFindAndVerify(t *testing.T) {
	g := planarsi.Wheel(12)
	h := planarsi.Cycle(3) // hub + two adjacent rim vertices
	occ, err := planarsi.FindOccurrence(g, h, planarsi.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if occ == nil {
		t.Fatal("triangle in wheel not found")
	}
	if !planarsi.VerifyOccurrence(g, h, occ) {
		t.Fatalf("occurrence does not verify: %v", occ)
	}
}

func TestPublicListAndCount(t *testing.T) {
	g := planarsi.Grid(3, 3)
	h := planarsi.Cycle(4)
	occs, err := planarsi.ListOccurrences(g, h, planarsi.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 4 unit squares x 8 automorphic maps.
	if len(occs) != 32 {
		t.Fatalf("listed %d occurrences, want 32", len(occs))
	}
	count, err := planarsi.CountOccurrences(g, h, planarsi.Options{Seed: 3})
	if err != nil || count != 32 {
		t.Fatalf("count = %d, %v; want 32", count, err)
	}
}

func TestPublicVertexConnectivity(t *testing.T) {
	cases := []struct {
		g    *planarsi.Graph
		want int
	}{
		{planarsi.Path(8), 1},
		{planarsi.Cycle(9), 2},
		{planarsi.Wheel(9), 3},
		{planarsi.Bipyramid(5), 4},
		{planarsi.Icosahedron(), 5},
	}
	for i, tc := range cases {
		res, err := planarsi.VertexConnectivity(tc.g, planarsi.Options{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Connectivity != tc.want {
			t.Fatalf("case %d: connectivity %d, want %d", i, res.Connectivity, tc.want)
		}
		if res.Cut != nil && !planarsi.VerifyCut(tc.g, res.Cut) {
			t.Fatalf("case %d: cut does not verify", i)
		}
	}
}

func TestPublicSeparatingSearch(t *testing.T) {
	// Double wheel: rim cycle separates the two hubs.
	rim := 6
	b := planarsi.NewBuilder(rim + 2)
	for i := 0; i < rim; i++ {
		b.AddEdge(int32(i), int32((i+1)%rim))
		b.AddEdge(int32(i), int32(rim))
		b.AddEdge(int32(i), int32(rim+1))
	}
	g := b.Build()
	s := make([]bool, g.N())
	s[rim], s[rim+1] = true, true
	occ, err := planarsi.DecideSeparating(g, planarsi.Cycle(rim), s, planarsi.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if occ == nil || !planarsi.VerifySeparating(g, planarsi.Cycle(rim), s, occ) {
		t.Fatalf("separating rim not found/verified: %v", occ)
	}
}

// TestSeparatingRejectsWrongMaskLength: a terminal mask whose length is
// not the target's vertex count is an error naming both lengths, from
// the package-level call and from an Index alike.
func TestSeparatingRejectsWrongMaskLength(t *testing.T) {
	g := planarsi.Grid(4, 4)
	h := planarsi.Path(3)
	s := []bool{true, false, true}
	opt := planarsi.Options{Seed: 1}
	check := func(where string, occ planarsi.Occurrence, err error) {
		t.Helper()
		if !errors.Is(err, planarsi.ErrTerminalMask) || occ != nil {
			t.Fatalf("%s: occ %v, err %v; want ErrTerminalMask", where, occ, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "3 entries") || !strings.Contains(msg, "16 vertices") {
			t.Fatalf("%s: error %q does not name both lengths", where, msg)
		}
	}
	occ, err := planarsi.DecideSeparating(g, h, s, opt)
	check("DecideSeparating", occ, err)
	ix := planarsi.NewIndex(g, opt)
	occ, err = ix.DecideSeparating(h, s)
	check("Index.DecideSeparating", occ, err)
	occ, err = ix.DecideSeparatingCtx(context.Background(), h, make([]bool, 17))
	if !errors.Is(err, planarsi.ErrTerminalMask) || occ != nil {
		t.Fatalf("Index.DecideSeparatingCtx with 17 entries: occ %v, err %v; want ErrTerminalMask", occ, err)
	}
}

func TestPublicDisconnectedPattern(t *testing.T) {
	g := planarsi.DisjointUnion(planarsi.Cycle(3), planarsi.Cycle(3))
	h := planarsi.DisjointUnion(planarsi.Cycle(3), planarsi.Cycle(3))
	found, err := planarsi.Decide(g, h, planarsi.Options{Seed: 5})
	if err != nil || !found {
		t.Fatalf("two triangles: %v, %v", found, err)
	}
	if _, err := planarsi.ListOccurrences(g, h, planarsi.Options{}); err != planarsi.ErrDisconnectedPattern {
		t.Fatalf("List on disconnected pattern: err = %v", err)
	}
}

func TestPublicErrors(t *testing.T) {
	g := planarsi.Grid(5, 5)
	if _, err := planarsi.Decide(g, planarsi.Path(planarsi.MaxPatternSize+1), planarsi.Options{}); err == nil {
		t.Fatal("expected ErrPatternTooLarge")
	}
}

func TestPublicTrackerAndStats(t *testing.T) {
	tr := planarsi.NewTracker()
	var st planarsi.Stats
	g := planarsi.Grid(12, 12)
	found, err := planarsi.Decide(g, planarsi.Cycle(4), planarsi.Options{Seed: 6, Tracker: tr, Stats: &st})
	if err != nil || !found {
		t.Fatalf("decide: %v, %v", found, err)
	}
	if tr.Work() == 0 || tr.Rounds() == 0 {
		t.Fatalf("tracker empty: %v", tr)
	}
	if st.Runs == 0 || st.Bands == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestPublicGenerators(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	embedded := []*planarsi.Graph{
		planarsi.Path(5), planarsi.Cycle(5), planarsi.Star(5), planarsi.Wheel(6),
		planarsi.Grid(4, 4), planarsi.GridWithDiagonals(3, 3), planarsi.Bipyramid(5),
		planarsi.Tetrahedron(), planarsi.Cube(), planarsi.Octahedron(),
		planarsi.Dodecahedron(), planarsi.Icosahedron(),
		planarsi.Apollonian(25, rng), planarsi.RandomPlanar(30, 0.5, rng),
	}
	for i, g := range embedded {
		if err := planarsi.ValidateEmbedding(g); err != nil {
			t.Fatalf("generator %d: %v", i, err)
		}
	}
	if planarsi.Diameter(planarsi.Path(9)) != 8 {
		t.Fatal("diameter of P9 must be 8")
	}
	if !planarsi.IsConnected(planarsi.Cycle(4)) {
		t.Fatal("cycle must be connected")
	}
}

func TestPublicPlanarity(t *testing.T) {
	if !planarsi.IsPlanar(planarsi.Grid(5, 5)) {
		t.Fatal("grid must be planar")
	}
	if planarsi.IsPlanar(planarsi.Complete(5)) {
		t.Fatal("K5 must not be planar")
	}
	// Raw edge-list graph: embed, then run connectivity on it directly
	// (VertexConnectivity embeds automatically).
	raw := planarsi.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	emb, err := planarsi.EmbedPlanar(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := planarsi.ValidateEmbedding(emb); err != nil {
		t.Fatal(err)
	}
	res, err := planarsi.VertexConnectivity(raw, planarsi.Options{Seed: 3})
	if err != nil || res.Connectivity != 2 {
		t.Fatalf("raw C4 connectivity = %d, %v; want 2", res.Connectivity, err)
	}
	if _, err := planarsi.VertexConnectivity(planarsi.TorusGrid(4, 4), planarsi.Options{}); err == nil {
		t.Fatal("connectivity of a non-planar graph must fail")
	}
}
