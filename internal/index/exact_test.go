package index

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/flow"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/planarity"
)

// planarWithTree hangs a random tree off vertex 0 of a random planar
// graph: one planar component whose tree part stretches the BFS depth.
func planarWithTree(n, tree int, rng *rand.Rand) *graph.Graph {
	g := graph.DisjointUnion(graph.RandomPlanar(n, 0.4, rng), graph.RandomTree(tree, rng))
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	b.AddEdge(0, int32(n))
	return b.Build()
}

// exactAnswers renders what a source answers for every pattern:
// Decide, Count and whether FindOne found a witness (each witness is
// checked against g here).
func exactAnswers(t *testing.T, g *graph.Graph, hs []*graph.Graph, decide func(*graph.Graph) (bool, error),
	count func(*graph.Graph) (int, error), find func(*graph.Graph) (core.Occurrence, error)) []string {
	t.Helper()
	out := make([]string, len(hs))
	for i, h := range hs {
		found, err := decide(h)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		n, err := count(h)
		if err != nil {
			t.Fatalf("Count: %v", err)
		}
		occ, err := find(h)
		if err != nil {
			t.Fatalf("FindOne: %v", err)
		}
		if occ != nil && !core.VerifyOccurrence(g, h, occ) {
			t.Fatalf("pattern %d: invalid witness %v", i, occ)
		}
		out[i] = fmt.Sprintf("found=%v count=%d witness=%v", found, n, occ != nil)
	}
	return out
}

// oracleAnswers is exactAnswers as the naive oracle gives them.
func oracleAnswers(g *graph.Graph, hs []*graph.Graph) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		n := len(naive.Search(g, h, naive.Options{}))
		out[i] = fmt.Sprintf("found=%v count=%d witness=%v", n > 0, n, n > 0)
	}
	return out
}

// indexAnswers is exactAnswers through an Index.
func indexAnswers(t *testing.T, ix *Index, hs []*graph.Graph) []string {
	t.Helper()
	return exactAnswers(t, ix.Graph(), hs, ix.Decide, ix.CountOccurrences, ix.FindOccurrence)
}

// TestExactNegativesAgainstOracle checks that the default path's answers
// are exact, not w.h.p.: at MaxRuns 2 a search that run 0 leaves open
// ends with the layered run, and a count lists that run alone, so on
// every seed Decide and Count must equal the naive oracle and FindOne
// must find a verified witness exactly when one exists. The one-shot
// pipeline and an Index must agree with it, the Index fresh, after a
// snapshot round trip and after ApplyEdits. On 2-connected targets the
// separating search on the face-incidence graph must agree with the
// flow oracle's connectivity κ (Lemma 5.1): no separating 2c-cycle for
// c < κ, and one, verified, for c = κ.
func TestExactNegativesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	patterns := []*graph.Graph{graph.Cycle(3), graph.Cycle(4), graph.Cycle(5), graph.Cycle(6),
		graph.Path(4), graph.Star(4), graph.Complete(4)}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"random-planar-12", graph.RandomPlanar(12, 0.8, rng)},
		{"random-planar-61", graph.RandomPlanar(61, 0.35, rng)},
		{"apollonian-20", graph.Apollonian(20, rng)},
		{"grid-6x7", graph.Grid(6, 7)},
		{"planar-with-tree", planarWithTree(30, 20, rng)},
		{"two-components", graph.DisjointUnion(graph.Apollonian(12, rng), graph.Grid(4, 5))},
	}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			want := oracleAnswers(g, patterns)
			check := func(what string, got []string) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s, pattern %d: %s, oracle %s", what, i, got[i], want[i])
					}
				}
			}
			for _, seed := range seeds {
				opt := core.Options{Seed: seed, MaxRuns: 2}
				check(fmt.Sprintf("seed %d one-shot", seed), exactAnswers(t, g, patterns,
					func(h *graph.Graph) (bool, error) { return core.Decide(g, h, opt) },
					func(h *graph.Graph) (int, error) { return core.Count(g, h, opt) },
					func(h *graph.Graph) (core.Occurrence, error) { return core.FindOne(g, h, opt) }))
				ix := New(g, opt)
				check(fmt.Sprintf("seed %d index", seed), indexAnswers(t, ix, patterns))
				var buf bytes.Buffer
				if err := ix.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("seed %d loaded index", seed), indexAnswers(t, loaded, patterns))
			}

			// Warm an Index so the edit migrates built covers, then remove
			// the first edge and join the last vertex to the first vertex
			// it is not yet adjacent to.
			ix := New(graph.FromEdges(g.N(), g.Edges()), core.Options{Seed: seeds[0], MaxRuns: 2})
			indexAnswers(t, ix, patterns)
			last := int32(g.N() - 1)
			add := [][2]int32{}
			for v := range last {
				if !g.HasEdge(v, last) {
					add = append(add, [2]int32{v, last})
					break
				}
			}
			if _, err := ix.ApplyEdits(EditBatch{Add: add, Remove: g.Edges()[:1]}); err != nil {
				t.Fatal(err)
			}
			want = oracleAnswers(ix.Graph(), patterns)
			check("edited index", indexAnswers(t, ix, patterns))

			kappa := flow.VertexConnectivity(g)
			if kappa < 2 {
				return
			}
			emb, err := planarity.Embed(g)
			if err != nil {
				t.Fatal(err)
			}
			gp, s, err := conn.FaceIncidence(emb)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				opt := core.Options{Seed: seed, MaxRuns: 2}
				sepIx := New(gp, opt)
				for c := 2; c <= min(kappa, 4); c++ {
					h := graph.Cycle(2 * c)
					occ, err := core.DecideSeparating(gp, h, s, opt)
					if err != nil {
						t.Fatal(err)
					}
					if (occ != nil) != (c == kappa) {
						t.Errorf("seed %d: separating C%d found=%v, flow oracle κ=%d", seed, 2*c, occ != nil, kappa)
					}
					if occ != nil && !core.VerifySeparating(gp, h, s, occ) {
						t.Errorf("seed %d: separating C%d witness %v does not verify", seed, 2*c, occ)
					}
					ixOcc, err := sepIx.DecideSeparating(h, s)
					if err != nil {
						t.Fatal(err)
					}
					if (ixOcc != nil) != (occ != nil) {
						t.Errorf("seed %d: index separating C%d found=%v, one-shot %v", seed, 2*c, ixOcc != nil, occ != nil)
					}
				}
			}
		})
	}
}

// A Scan of a disconnected pattern runs the whole Lemma 4.1 coloring
// loop at any MaxRuns, as the one-shot Decide does.
func TestScanDisconnectedIgnoresMaxRuns(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(3), graph.Path(6), graph.Cycle(3))
	h := graph.DisjointUnion(graph.Cycle(3), graph.Cycle(3))
	for _, runs := range []int{2, 8, 17} {
		for seed := uint64(0); seed < 20; seed++ {
			r := New(g, core.Options{Seed: seed, MaxRuns: runs}).Scan(context.Background(), []*graph.Graph{h})[0]
			if r.Err != nil || !r.Found {
				t.Errorf("MaxRuns %d, seed %d: got %v, %v; want true", runs, seed, r.Found, r.Err)
			}
		}
	}
}
