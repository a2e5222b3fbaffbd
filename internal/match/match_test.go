package match

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/treedecomp"
)

// runDP builds a nice decomposition of g and runs the DP for pattern h.
func runDP(g, h *graph.Graph) *Result {
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	return Run(&Problem{G: g, H: h, ND: nd}, nil)
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

func sortedKeys(ms [][]int32) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = Assignment(m).key()
	}
	sort.Strings(out)
	return out
}

func TestDecideAgainstNaiveOnFixedCases(t *testing.T) {
	cases := []struct {
		name string
		g, h *graph.Graph
		want bool
	}{
		{"triangle-in-k4", graph.Complete(4), graph.Cycle(3), true},
		{"c4-in-grid", graph.Grid(3, 3), graph.Cycle(4), true},
		{"c3-in-grid", graph.Grid(3, 3), graph.Cycle(3), false},
		{"c5-in-grid", graph.Grid(4, 4), graph.Cycle(5), false},
		{"c6-in-grid", graph.Grid(4, 4), graph.Cycle(6), true},
		{"path5-in-cycle5", graph.Cycle(5), graph.Path(5), true},
		{"c5-in-path", graph.Path(8), graph.Cycle(5), false},
		{"star4-in-grid", graph.Grid(3, 3), graph.Star(5), true},
		{"star6-in-grid", graph.Grid(3, 3), graph.Star(7), false},
		{"k4-in-apollonian", graph.Apollonian(12, rand.New(rand.NewPCG(1, 1))), graph.Complete(4), true},
	}
	for _, c := range cases {
		got := runDP(c.g, c.h).Found()
		if got != c.want {
			t.Errorf("%s: DP=%v want %v", c.name, got, c.want)
		}
		if n := naive.Decide(c.g, c.h); n != c.want {
			t.Errorf("%s: naive=%v want %v (test case wrong?)", c.name, n, c.want)
		}
	}
}

// The central cross-validation: on many random targets and patterns, the
// DP must agree with the naive backtracking matcher on the decision.
func TestDecideAgainstNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for trial := 0; trial < 150; trial++ {
		n := 6 + rng.IntN(25)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		k := 2 + rng.IntN(4)
		h := randomPattern(k, rng.IntN(3), rng)
		want := naive.Decide(g, h)
		got := runDP(g, h).Found()
		if got != want {
			t.Fatalf("trial %d: DP=%v naive=%v (n=%d k=%d)", trial, got, want, n, k)
		}
	}
}

// Disconnected patterns exercise the DP without the clustering layer (the
// DP itself is indifferent to pattern connectivity).
func TestDecideDisconnectedPatterns(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.IntN(20)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		h := graph.DisjointUnion(randomPattern(2, 1, rng), randomPattern(1+rng.IntN(2), 0, rng))
		want := naive.Decide(g, h)
		got := runDP(g, h).Found()
		if got != want {
			t.Fatalf("trial %d: DP=%v naive=%v", trial, got, want)
		}
	}
}

// Enumerate must produce exactly the same set of mappings as the naive
// matcher (each subgraph isomorphism once).
func TestEnumerateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.IntN(14)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		k := 2 + rng.IntN(3)
		h := randomPattern(k, rng.IntN(2), rng)
		want := naive.Search(g, h, naive.Options{})
		res := runDP(g, h)
		got := res.Enumerate(0)
		wk := sortedKeys(want)
		gk := sortedKeys(asSlices(got))
		if len(wk) != len(gk) {
			t.Fatalf("trial %d: %d vs %d occurrences (n=%d k=%d)", trial, len(gk), len(wk), n, k)
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Fatalf("trial %d: mapping sets differ", trial)
			}
		}
	}
}

func asSlices(as []Assignment) [][]int32 {
	out := make([][]int32, len(as))
	for i, a := range as {
		out[i] = []int32(a)
	}
	return out
}

func TestEnumerateLimit(t *testing.T) {
	g := graph.Grid(4, 4)
	h := graph.Path(3)
	res := runDP(g, h)
	lim := res.Enumerate(5)
	if len(lim) < 5 {
		t.Fatalf("limit enumeration returned %d < 5", len(lim))
	}
	all := res.Enumerate(0)
	if len(all) <= 5 {
		t.Fatalf("expected many path-3 occurrences, got %d", len(all))
	}
}

func TestAllowedRestriction(t *testing.T) {
	// A triangle exists in K4 but not if one of its vertices is banned
	// from... K4 minus one allowed vertex still has a triangle; ban two.
	g := graph.Complete(4)
	h := graph.Cycle(3)
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	allowed := []bool{true, true, true, true}
	res := Run(&Problem{G: g, H: h, ND: nd, Allowed: allowed}, nil)
	if !res.Found() {
		t.Fatal("triangle should be found with all vertices allowed")
	}
	allowed = []bool{true, true, false, false}
	res = Run(&Problem{G: g, H: h, ND: nd, Allowed: allowed}, nil)
	if res.Found() {
		t.Fatal("triangle needs 3 allowed vertices; only 2 available")
	}
}

// bruteForceSeparatingOccs lists the S-separating occurrences of h in g
// by enumerating all occurrences naively and testing the separation
// property of each (the oracle for the Section 5.2.2 extension). A
// non-nil allowed restricts the images.
func bruteForceSeparatingOccs(g, h *graph.Graph, s []bool, allowed []bool) [][]int32 {
	occs := naive.Search(g, h, naive.Options{})
	var out [][]int32
	n := g.N()
	for _, occ := range occs {
		ok := true
		inOcc := make([]bool, n)
		for _, v := range occ {
			if allowed != nil && !allowed[v] {
				ok = false
				break
			}
			inOcc[v] = true
		}
		if !ok {
			continue
		}
		var rest []int32
		for v := int32(0); v < int32(n); v++ {
			if !inOcc[v] {
				rest = append(rest, v)
			}
		}
		sub, orig := graph.Induce(g, rest)
		comp, _ := graph.Components(sub)
		// Two S-vertices in different components?
		first := int32(-1)
		for i, ov := range orig {
			if s[ov] {
				if first < 0 {
					first = comp[i]
				} else if comp[i] != first {
					out = append(out, occ)
					break
				}
			}
		}
	}
	return out
}

// bruteForceSeparating reports whether some allowed occurrence of h in g
// separates S.
func bruteForceSeparating(g, h *graph.Graph, s []bool, allowed []bool) bool {
	return len(bruteForceSeparatingOccs(g, h, s, allowed)) > 0
}

func TestSeparatingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for trial := 0; trial < 100; trial++ {
		n := 6 + rng.IntN(14)
		g := graph.RandomPlanar(n, 0.3+0.7*rng.Float64(), rng)
		var h *graph.Graph
		switch rng.IntN(3) {
		case 0:
			h = graph.Cycle(4)
		case 1:
			h = graph.Cycle(3)
		default:
			h = graph.Path(2 + rng.IntN(2))
		}
		if h.N() > n {
			continue
		}
		s := make([]bool, n)
		for v := range s {
			s[v] = rng.Float64() < 0.5
		}
		want := bruteForceSeparating(g, h, s, nil)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		res := Run(&Problem{G: g, H: h, ND: nd, Separating: true, S: s}, nil)
		if res.Found() != want {
			t.Fatalf("trial %d: separating DP=%v brute=%v (n=%d k=%d)", trial, res.Found(), want, n, h.N())
		}
	}
}

func TestSeparatingWithAllowed(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.IntN(12)
		g := graph.RandomPlanar(n, 0.5, rng)
		h := graph.Cycle(3 + rng.IntN(2))
		s := make([]bool, n)
		allowed := make([]bool, n)
		for v := range s {
			s[v] = rng.Float64() < 0.6
			allowed[v] = rng.Float64() < 0.8
		}
		want := bruteForceSeparating(g, h, s, allowed)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		res := Run(&Problem{G: g, H: h, ND: nd, Separating: true, S: s, Allowed: allowed}, nil)
		if res.Found() != want {
			t.Fatalf("trial %d: separating DP=%v brute=%v", trial, res.Found(), want)
		}
	}
}

// TestSeparatingEnumerateMatchesBruteForce locks separating
// reconstruction: the distinct assignments Enumerate returns are exactly
// the allowed S-separating occurrences, and Enumerate(1) finds one
// exactly when some exists.
func TestSeparatingEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 150))
	patterns := []*graph.Graph{graph.Cycle(3), graph.Cycle(4), graph.Path(3), graph.Path(4)}
	hits := 0
	for trial := 0; trial < 150; trial++ {
		n := 6 + rng.IntN(10)
		g := graph.RandomPlanar(n, 0.3+0.7*rng.Float64(), rng)
		h := patterns[rng.IntN(len(patterns))]
		s := make([]bool, n)
		for v := range s {
			s[v] = rng.IntN(2) == 0
		}
		var allowed []bool
		if trial%2 == 1 {
			allowed = make([]bool, n)
			for v := range allowed {
				allowed[v] = rng.Float64() < 0.8
			}
		}
		want := sortedKeys(bruteForceSeparatingOccs(g, h, s, allowed))
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		res := Run(&Problem{G: g, H: h, ND: nd, Separating: true, S: s, Allowed: allowed}, nil)
		var got []string
		seen := map[string]bool{}
		for _, a := range res.Enumerate(0) {
			if k := a.key(); !seen[k] {
				seen[k] = true
				got = append(got, k)
			}
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): Enumerate gave %d distinct separating occurrences, brute force %d",
				trial, n, h.N(), len(got), len(want))
		}
		if one := res.Enumerate(1); (len(one) > 0) != (len(want) > 0) {
			t.Fatalf("trial %d: Enumerate(1) returned %d, brute force has %d", trial, len(one), len(want))
		}
		if len(want) > 0 {
			hits++
		}
	}
	if hits < 50 {
		t.Fatalf("only %d of 150 trials have a separating occurrence; the check is too weak", hits)
	}
}

// A wheel's hub-removal example: removing the hub plus two opposite rim
// vertices separates the rim. Sanity-check a concrete separating triangle.
func TestSeparatingConcrete(t *testing.T) {
	// Path 0-1-2-3-4 with S={0,4}: removing {2} (pattern = single vertex)
	// separates the endpoints.
	g := graph.Path(5)
	h := graph.Path(1)
	s := []bool{true, false, false, false, true}
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	res := Run(&Problem{G: g, H: h, ND: nd, Separating: true, S: s}, nil)
	if !res.Found() {
		t.Fatal("single-vertex pattern should separate path endpoints")
	}
	// S = {0,1}: adjacent endpoints cannot be separated by one vertex
	// removal... removing any single vertex other than them leaves 0-1
	// connected; removing 0 or 1 is allowed but then that S vertex is
	// gone. Separation requires two S vertices in different components.
	s = []bool{true, true, false, false, false}
	res = Run(&Problem{G: g, H: h, ND: nd, Separating: true, S: s}, nil)
	if res.Found() {
		t.Fatal("adjacent S pair should not be separable by removing one non-S vertex")
	}
}

func TestStatesGeneratedCounted(t *testing.T) {
	g := graph.Grid(4, 4)
	h := graph.Cycle(4)
	res := runDP(g, h)
	if res.Cost().Emissions == 0 {
		t.Fatal("expected state generation work to be counted")
	}
}

func TestSingleVertexPattern(t *testing.T) {
	g := graph.Path(3)
	h := graph.Path(1)
	if !runDP(g, h).Found() {
		t.Fatal("K1 occurs in any nonempty graph")
	}
	occ := runDP(g, h).Enumerate(0)
	if len(occ) != 3 {
		t.Fatalf("K1 should have 3 occurrences in P3, got %d", len(occ))
	}
}

func TestPatternLargerThanTarget(t *testing.T) {
	g := graph.Path(3)
	h := graph.Path(5)
	if runDP(g, h).Found() {
		t.Fatal("P5 cannot occur in P3")
	}
}
