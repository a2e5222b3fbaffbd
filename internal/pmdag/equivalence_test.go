package pmdag

import (
	"math/rand/v2"
	"slices"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/treedecomp"
)

// mapReferenceRun is the pre-StateSet bottom-up DP kept as an oracle: the
// same introduce and forget transitions, map-backed sets, and the join
// rule written out pair by pair. The path-DAG engine on the flat
// substrate must reproduce its per-node sets exactly (plain mode — the
// engine's scope).
func mapReferenceRun(p *match.Problem) []map[match.State]struct{} {
	r := match.NewEngines([]*match.Problem{p})[0]
	nd := p.ND
	sets := make([]map[match.State]struct{}, nd.NumNodes())
	for _, i := range nd.Order {
		set := make(map[match.State]struct{})
		switch nd.Kind[i] {
		case treedecomp.Leaf:
			// The trivial all-unmatched partial match.
			var empty match.State
			for u := range empty.Phi {
				empty.Phi[u] = -1
			}
			set[empty] = struct{}{}
		case treedecomp.Introduce:
			for cs := range sets[nd.Left[i]] {
				r.IntroduceSuccessors(i, cs, func(s match.State, _ bool) {
					set[s] = struct{}{}
				})
			}
		case treedecomp.Forget:
			for cs := range sets[nd.Left[i]] {
				if s, ok := r.ForgetSuccessor(i, cs); ok {
					set[s] = struct{}{}
				}
			}
		case treedecomp.Join:
			group := make(map[match.JoinSignature][]match.State)
			for rs := range sets[nd.Right[i]] {
				group[rs.Signature()] = append(group[rs.Signature()], rs)
			}
			for ls := range sets[nd.Left[i]] {
				for _, rs := range group[ls.Signature()] {
					// Equal signatures combine when the C sets are disjoint
					// and no H-edge joins them.
					if ls.C&rs.C != 0 || hEdgeBetween(p.H, ls.C, rs.C) {
						continue
					}
					s := ls
					s.C |= rs.C
					set[s] = struct{}{}
				}
			}
		}
		sets[i] = set
	}
	return sets
}

// hEdgeBetween reports whether some H-edge joins a vertex of mask a to
// one of mask b.
func hEdgeBetween(h *graph.Graph, a, b uint16) bool {
	for u := int32(0); u < int32(h.N()); u++ {
		if a>>u&1 == 0 {
			continue
		}
		for _, w := range h.Neighbors(u) {
			if b>>w&1 == 1 {
				return true
			}
		}
	}
	return false
}

func cmpState(a, b match.State) int {
	for u := range a.Phi {
		if a.Phi[u] != b.Phi[u] {
			return int(a.Phi[u]) - int(b.Phi[u])
		}
	}
	switch {
	case a.C != b.C:
		return int(a.C) - int(b.C)
	case a.In != b.In:
		if a.In < b.In {
			return -1
		}
		return 1
	case a.Out != b.Out:
		if a.Out < b.Out {
			return -1
		}
		return 1
	}
	return 0 // IX/OX stay false in plain mode
}

func canon(states []match.State) []match.State {
	out := slices.Clone(states)
	slices.SortFunc(out, cmpState)
	return out
}

func canonMap(set map[match.State]struct{}) []match.State {
	out := make([]match.State, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.SortFunc(out, cmpState)
	return out
}

// TestPathDAGEquivalentToMapReference locks the flat substrate end to
// end: on seeded random planar targets and patterns, the path-DAG engine
// must produce byte-identical per-node state sets to the map-based
// reference DP, and the DecideOnly variant the identical root set.
func TestPathDAGEquivalentToMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 2025))
	for trial := 0; trial < 80; trial++ {
		n := 6 + rng.IntN(25)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		h := randomPattern(2+rng.IntN(3), rng.IntN(2), rng)
		p := problemFor(g, h)
		want := mapReferenceRun(p)
		eng, _ := Run(p, nil)
		for i := range want {
			ws := canonMap(want[i])
			gs := canon(eng.Sets[i].States())
			if !slices.Equal(ws, gs) {
				t.Fatalf("trial %d: node %d: %d reference states vs %d DAG states",
					trial, i, len(ws), len(gs))
			}
		}
		pd := *p
		pd.DecideOnly = true
		deng, _ := Run(&pd, nil)
		root := p.ND.Root
		if !slices.Equal(canonMap(want[root]), canon(deng.Sets[root].States())) {
			t.Fatalf("trial %d: DecideOnly root set differs from reference", trial)
		}
		if deng.Found() != eng.Found() {
			t.Fatalf("trial %d: DecideOnly decision differs", trial)
		}
	}
}

// DecideOnly must retain only root-reaching sets: every non-root node's
// entry is recycled once consumed.
func TestDecideOnlyRetainsOnlyRoot(t *testing.T) {
	g := graph.Grid(5, 5)
	h := graph.Cycle(4)
	p := problemFor(g, h)
	p.DecideOnly = true
	eng, _ := Run(p, nil)
	for i := range eng.Sets {
		if int32(i) != p.ND.Root && eng.Sets[i] != nil {
			t.Fatalf("node %d kept its set in DecideOnly mode", i)
		}
	}
	if !eng.Found() {
		t.Fatal("C4 must occur in the 5x5 grid")
	}
}
