package pmdag

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"
)

// TestDerivedCounters checks that every DP counter is derived from the
// runs' cost records: the sequential engine's "dp" work is the states it
// stored and its "dp" rounds the nodes it solved, the path-DAG engine's
// "pmdag" work is its DAG size, and a set Problem.Cost receives exactly
// the run's record. It covers plain and separating runs, DecideOnly on
// and off, solo and multi-pattern; separating runs use the sequential
// engine only.
func TestDerivedCounters(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 2026))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.IntN(22)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		s := make([]bool, n)
		for v := range s {
			s[v] = rng.IntN(3) == 0
		}
		hs := []*graph.Graph{randomPattern(3, 1, rng), randomPattern(4, 1, rng), randomPattern(2+rng.IntN(3), rng.IntN(2), rng)}
		for mode := 0; mode < 16; mode++ {
			sep, decideOnly, multi, dag := mode&1 != 0, mode&2 != 0, mode&4 != 0, mode&8 != 0
			if sep && dag {
				continue
			}
			name := fmt.Sprintf("trial %d separating=%v decideOnly=%v multi=%v pathDAG=%v", trial, sep, decideOnly, multi, dag)
			ps := make([]*match.Problem, 1)
			if multi {
				ps = make([]*match.Problem, len(hs))
			}
			for x := range ps {
				ps[x] = &match.Problem{G: g, H: hs[x], ND: nd, DecideOnly: decideOnly, Cost: new(obs.CostCounter)}
				if sep {
					ps[x].Separating, ps[x].S = true, s
				}
			}
			tr := wd.NewTracker()
			var rs []*match.Result
			if dag {
				var st *Stats
				rs, st = RunMulti(ps, Config{}, tr)
				if w := tr.PhaseWork("pmdag"); w != st.DAGEdges+st.DAGVertices {
					t.Fatalf("%s: pmdag work %d, want DAGEdges+DAGVertices %d", name, w, st.DAGEdges+st.DAGVertices)
				}
			} else {
				rs = match.RunMulti(ps, tr)
				var states, nodes int64
				for _, r := range rs {
					states += r.Cost().States
					nodes += r.Cost().Nodes
				}
				if w, d := tr.PhaseWork("dp"), tr.PhaseRounds("dp"); w != states || d != nodes {
					t.Fatalf("%s: dp work %d rounds %d, want States %d Nodes %d", name, w, d, states, nodes)
				}
			}
			for x, r := range rs {
				if got := ps[x].Cost.Snapshot(); got != r.Cost() {
					t.Fatalf("%s pattern %d: Problem.Cost got %+v, Result.Cost %+v", name, x, got, r.Cost())
				}
			}
		}
	}
}
