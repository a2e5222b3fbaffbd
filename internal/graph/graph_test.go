package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatal("Degree wrong")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewBuilder(2).AddEdge(1, 1)
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate edge")
		}
	}()
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g := RandomPlanar(60, 0.5, rng)
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges() returned %d, M()=%d", len(edges), g.M())
	}
	h := FromEdges(g.N(), edges)
	for _, e := range edges {
		if !h.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
	if h.M() != g.M() {
		t.Fatal("edge count changed in round trip")
	}
}

// Every embedded generator must satisfy Euler's formula — this validates
// both the face tracing and each generator's rotation system.
func TestGeneratorEmbeddingsSatisfyEuler(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cases := map[string]*Graph{
		"path10":        Path(10),
		"cycle12":       Cycle(12),
		"star9":         Star(9),
		"wheel11":       Wheel(11),
		"grid5x7":       Grid(5, 7),
		"grid1x9":       Grid(1, 9),
		"diaggrid6x6":   GridWithDiagonals(6, 6),
		"bipyramid3":    Bipyramid(3),
		"bipyramid4":    Bipyramid(4),
		"bipyramid9":    Bipyramid(9),
		"tetrahedron":   Tetrahedron(),
		"cube":          Cube(),
		"octahedron":    Octahedron(),
		"dodecahedron":  Dodecahedron(),
		"icosahedron":   Icosahedron(),
		"apollonian50":  Apollonian(50, rng),
		"randplanar100": RandomPlanar(100, 0.5, rng),
		"randplanar30":  RandomPlanar(30, 0.0, rng),
	}
	for name, g := range cases {
		if err := ValidateEmbedding(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPlatonicSolidShapes(t *testing.T) {
	cases := []struct {
		name    string
		g       *Graph
		n, m, f int
	}{
		{"tetrahedron", Tetrahedron(), 4, 6, 4},
		{"cube", Cube(), 8, 12, 6},
		{"octahedron", Octahedron(), 6, 12, 8},
		{"dodecahedron", Dodecahedron(), 20, 30, 12},
		{"icosahedron", Icosahedron(), 12, 30, 20},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
			continue
		}
		faces := TraceFaces(c.g)
		if faces.NumFaces() != c.f {
			t.Errorf("%s: f=%d want %d", c.name, faces.NumFaces(), c.f)
		}
	}
}

func TestGridFaceCount(t *testing.T) {
	g := Grid(4, 5)
	faces := TraceFaces(g)
	// 3x4 = 12 inner faces + outer face.
	if faces.NumFaces() != 13 {
		t.Fatalf("grid faces = %d, want 13", faces.NumFaces())
	}
}

func TestFaceBoundariesCoverAllDarts(t *testing.T) {
	g := Apollonian(40, rand.New(rand.NewPCG(3, 4)))
	faces := TraceFaces(g)
	total := 0
	for _, wb := range faces.Boundary {
		total += len(wb)
	}
	if total != 2*g.M() {
		t.Fatalf("boundary darts = %d, want %d", total, 2*g.M())
	}
	for p, f := range faces.FaceOfDart {
		if f < 0 || int(f) >= faces.NumFaces() {
			t.Fatalf("dart %d has bad face %d", p, f)
		}
	}
}

func TestApollonianIsTriangulation(t *testing.T) {
	g := Apollonian(30, rand.New(rand.NewPCG(9, 9)))
	// A planar triangulation on n vertices has 3n-6 edges.
	if g.M() != 3*g.N()-6 {
		t.Fatalf("m=%d want %d", g.M(), 3*g.N()-6)
	}
	faces := TraceFaces(g)
	for i, wb := range faces.Boundary {
		if len(wb) != 3 {
			t.Fatalf("face %d has boundary length %d, want 3", i, len(wb))
		}
	}
}

func TestComponents(t *testing.T) {
	g := DisjointUnion(Cycle(5), Path(4), Star(3))
	comp, count := Components(g)
	if count != 3 {
		t.Fatalf("count=%d want 3", count)
	}
	if comp[0] != comp[4] || comp[5] != comp[8] || comp[9] != comp[11] {
		t.Fatal("components mislabeled within parts")
	}
	if comp[0] == comp[5] || comp[5] == comp[9] {
		t.Fatal("distinct parts share a label")
	}
}

// TestComponentsWithout checks the in-place labelling against the
// induced subgraph it replaces: on random graphs and drop masks (none,
// all, and random ones) every kept vertex carries the label Components
// gives it in Induce(g, kept), every dropped one -1, and the counts agree.
func TestComponentsWithout(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(40)
		b := NewBuilder(n)
		for e := 0; e < rng.IntN(2*n); e++ {
			u, v := rng.Int32N(int32(n)), rng.Int32N(int32(n))
			if u != v && !b.HasEdge(u, v) {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		var drop []bool
		switch trial % 4 {
		case 0: // nil: drop nothing
		case 1:
			drop = make([]bool, n)
			for v := range drop {
				drop[v] = true
			}
		default:
			drop = make([]bool, n)
			for v := range drop {
				drop[v] = rng.IntN(3) == 0
			}
		}
		var kept []int32
		for v := int32(0); v < int32(n); v++ {
			if drop == nil || !drop[v] {
				kept = append(kept, v)
			}
		}
		sub, orig := Induce(g, kept)
		want, wantCount := Components(sub)
		got, count := ComponentsWithout(g, drop)
		if count != wantCount {
			t.Fatalf("trial %d: %d components, Induce gives %d", trial, count, wantCount)
		}
		label := make([]int32, n)
		for v := range label {
			label[v] = -1
		}
		for i, v := range orig {
			label[v] = want[i]
		}
		if !slices.Equal(got, label) {
			t.Fatalf("trial %d: labels %v, Induce gives %v", trial, got, label)
		}
	}
}

func TestBFSDistOnGrid(t *testing.T) {
	g := Grid(3, 4)
	dist := BFSDist(g, 0)
	// Manhattan distances on a grid.
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if int(dist[i*4+j]) != i+j {
				t.Fatalf("dist[%d,%d]=%d want %d", i, j, dist[i*4+j], i+j)
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	if d := Diameter(Path(7)); d != 6 {
		t.Fatalf("path diameter=%d want 6", d)
	}
	if d := Diameter(Cycle(8)); d != 4 {
		t.Fatalf("cycle diameter=%d want 4", d)
	}
	if d := Diameter(Star(6)); d != 2 {
		t.Fatalf("star diameter=%d want 2", d)
	}
	if d := Diameter(Complete(4)); d != 1 {
		t.Fatalf("K4 diameter=%d want 1", d)
	}
}

func TestArticulationPoints(t *testing.T) {
	// Two triangles sharing vertex 2: 2 is the unique cut vertex.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 2)
	arts := ArticulationPoints(b.Build())
	for v, isArt := range arts {
		want := v == 2
		if isArt != want {
			t.Fatalf("vertex %d articulation=%v want %v", v, isArt, want)
		}
	}
}

func TestArticulationPointsPath(t *testing.T) {
	arts := ArticulationPoints(Path(5))
	want := []bool{false, true, true, true, false}
	for i := range want {
		if arts[i] != want[i] {
			t.Fatalf("path articulation[%d]=%v want %v", i, arts[i], want[i])
		}
	}
}

func TestArticulationPointsBiconnected(t *testing.T) {
	for _, g := range []*Graph{Cycle(6), Octahedron(), Grid(4, 4), Wheel(8)} {
		for v, a := range ArticulationPoints(g) {
			if a {
				t.Fatalf("%v: vertex %d wrongly marked articulation", g, v)
			}
		}
	}
}

// Property: articulation points agree with brute force (vertex removal
// changes component count) on small random graphs.
func TestArticulationPointsQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		n := 4 + r.IntN(12)
		b := NewBuilder(n)
		for e := 0; e < n+r.IntN(n); e++ {
			u := r.Int32N(int32(n))
			v := r.Int32N(int32(n))
			if u != v && !b.HasEdge(u, v) {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		got := ArticulationPoints(g)
		_, base := Components(g)
		for v := int32(0); v < int32(n); v++ {
			if g.Degree(v) == 0 {
				continue
			}
			// Remove v and count components among the rest.
			keep := make([]int32, 0, n-1)
			for u := int32(0); u < int32(n); u++ {
				if u != v {
					keep = append(keep, u)
				}
			}
			sub, _ := Induce(g, keep)
			_, c := Components(sub)
			// Removing v removes one isolated "slot": component count of
			// G-v compared against G (v contributed one component if it
			// was isolated, which we skipped).
			want := c > base-boolToInt(g.Degree(v) >= 0)+0 && c > base
			_ = want
			isCut := c > base
			if got[v] != isCut {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 60; trial++ {
		if !f(rng.Uint64()) {
			t.Fatal("articulation points disagree with brute force")
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestInducePreservesStructure(t *testing.T) {
	g := Grid(4, 4)
	verts := []int32{0, 1, 2, 4, 5, 6}
	sub, orig := Induce(g, verts)
	if sub.N() != 6 {
		t.Fatalf("sub n=%d", sub.N())
	}
	for i, v := range orig {
		if v != verts[i] {
			t.Fatal("orig mapping wrong")
		}
	}
	// Check edges: exactly those of g between chosen vertices.
	count := 0
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			inG := g.HasEdge(verts[i], verts[j])
			inSub := sub.HasEdge(int32(i), int32(j))
			if inG != inSub {
				t.Fatalf("edge (%d,%d) mismatch", verts[i], verts[j])
			}
			if inSub {
				count++
			}
		}
	}
	if count != sub.M() {
		t.Fatalf("edge count %d vs M=%d", count, sub.M())
	}
}

// Property: induced subgraph of an embedded planar graph keeps a valid
// embedding.
func TestInduceKeepsEmbedding(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 15; trial++ {
		g := Apollonian(40, rng)
		var verts []int32
		for v := int32(0); v < int32(g.N()); v++ {
			if rng.Float64() < 0.7 {
				verts = append(verts, v)
			}
		}
		if len(verts) == 0 {
			continue
		}
		sub, _ := Induce(g, verts)
		if err := ValidateEmbedding(sub); err != nil {
			t.Fatalf("trial %d: induced embedding invalid: %v", trial, err)
		}
	}
}

func TestContractPartition(t *testing.T) {
	g := Path(6)
	// Classes: {0,1}, {2,3}, {4,5} -> path of 3 classes.
	class := []int32{0, 0, 1, 1, 2, 2}
	minor := ContractPartition(g, class, 3)
	if minor.N() != 3 || minor.M() != 2 {
		t.Fatalf("minor n=%d m=%d want 3,2", minor.N(), minor.M())
	}
	if !minor.HasEdge(0, 1) || !minor.HasEdge(1, 2) || minor.HasEdge(0, 2) {
		t.Fatal("minor edges wrong")
	}
}

func TestContractPartitionDedup(t *testing.T) {
	g := Cycle(6)
	// Two classes alternating: many parallel edges must dedup to one.
	class := []int32{0, 1, 0, 1, 0, 1}
	minor := ContractPartition(g, class, 2)
	if minor.N() != 2 || minor.M() != 1 {
		t.Fatalf("minor n=%d m=%d want 2,1", minor.N(), minor.M())
	}
}

// Property: contraction preserves connectivity structure: two classes are
// in the same minor component iff their vertices are in the same component.
func TestContractPreservesConnectivity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		n := 6 + r.IntN(40)
		b := NewBuilder(n)
		for e := 0; e < n; e++ {
			u := r.Int32N(int32(n))
			v := r.Int32N(int32(n))
			if u != v && !b.HasEdge(u, v) {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		nc := 1 + r.IntN(n)
		class := make([]int32, n)
		// Ensure class ids are dense: assign round robin then randomize.
		for v := range class {
			class[v] = int32(v % nc)
		}
		r.Shuffle(n, func(i, j int) { class[i], class[j] = class[j], class[i] })
		minor := ContractPartition(g, class, nc)
		gComp, _ := Components(g)
		mComp, _ := Components(minor)
		// Same class -> same minor vertex: check that any two vertices in
		// the same g-component have classes in the same minor component.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if gComp[u] == gComp[v] && mComp[class[u]] != mComp[class[v]] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningTreeEdges(t *testing.T) {
	g := Grid(5, 5)
	edges := SpanningTreeEdges(g)
	if len(edges) != 24 {
		t.Fatalf("spanning tree has %d edges, want 24", len(edges))
	}
	b := NewBuilder(25)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	if !IsConnected(b.Build()) {
		t.Fatal("spanning tree not connected")
	}
}

func TestMinDegreeAndComplete(t *testing.T) {
	if Icosahedron().MinDegree() != 5 {
		t.Fatal("icosahedron min degree should be 5")
	}
	if !Complete(4).IsComplete() {
		t.Fatal("K4 should be complete")
	}
	if Cycle(5).IsComplete() {
		t.Fatal("C5 is not complete")
	}
}

func TestRandomPlanarConnected(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 15))
	for _, keep := range []float64{0, 0.3, 1} {
		g := RandomPlanar(80, keep, rng)
		if !IsConnected(g) {
			t.Fatalf("RandomPlanar(keep=%v) disconnected", keep)
		}
		if g.M() > 3*g.N()-6 {
			t.Fatalf("too many edges for planar: %d", g.M())
		}
	}
}

func TestCaterpillarShape(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 20 || g.M() != 19 {
		t.Fatalf("caterpillar n=%d m=%d", g.N(), g.M())
	}
	if !IsConnected(g) {
		t.Fatal("caterpillar should be connected (it is a tree)")
	}
}

func TestTorusGrid(t *testing.T) {
	g := TorusGrid(5, 7)
	if g.N() != 35 || g.M() != 70 {
		t.Fatalf("torus 5x7: n=%d m=%d, want 35/70", g.N(), g.M())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus vertex %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if !IsConnected(g) {
		t.Fatal("torus must be connected")
	}
}

func TestGridWithHandles(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	base := Grid(6, 6)
	g := GridWithHandles(6, 6, 4, rng)
	if g.N() != base.N() {
		t.Fatalf("handles changed vertex count")
	}
	if g.M() != base.M()+4 {
		t.Fatalf("m=%d, want %d", g.M(), base.M()+4)
	}
	// Every grid edge survives.
	for _, e := range base.Edges() {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("grid edge %v missing", e)
		}
	}
}

func TestFromRotationsRoundTrip(t *testing.T) {
	// The rotation lists of any embedded generator rebuild the same
	// embedded graph.
	rng := rand.New(rand.NewPCG(61, 62))
	for _, g := range []*Graph{Cycle(8), Grid(4, 5), Apollonian(25, rng), Octahedron()} {
		rot := make([][]int32, g.N())
		for v := int32(0); v < int32(g.N()); v++ {
			rot[v] = append([]int32{}, g.Neighbors(v)...)
		}
		back, err := FromRotations(rot)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("size changed: %v vs %v", back, g)
		}
		if err := ValidateEmbedding(back); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFromRotationsRejectsBadInput(t *testing.T) {
	cases := [][][]int32{
		{{1}, {}},        // missing reverse
		{{0}},            // self loop
		{{1, 1}, {0, 0}}, // duplicates
		{{5}},            // out of range
	}
	for i, rot := range cases {
		if _, err := FromRotations(rot); err == nil {
			t.Errorf("case %d: invalid rotations accepted", i)
		}
	}
}
