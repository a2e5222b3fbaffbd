package match

import (
	"math/rand/v2"
	"slices"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/treedecomp"
)

// referenceRun is the pre-StateSet engine kept as an oracle: the same
// bottom-up DP over the same transition methods, but storing every node's
// valid states in a plain map. The flat-substrate Run must reproduce its
// sets exactly, node by node.
func referenceRun(p *Problem) []map[State]struct{} {
	r := NewEngines([]*Problem{p})[0]
	nd := p.ND
	sets := make([]map[State]struct{}, nd.NumNodes())
	for _, i := range nd.Order {
		var set map[State]struct{}
		switch nd.Kind[i] {
		case treedecomp.Leaf:
			set = map[State]struct{}{emptyState(): {}}
		case treedecomp.Introduce:
			set = make(map[State]struct{})
			for cs := range sets[nd.Left[i]] {
				r.IntroduceSuccessors(i, cs, func(s State, _ bool) {
					set[s] = struct{}{}
				})
			}
		case treedecomp.Forget:
			set = make(map[State]struct{})
			for cs := range sets[nd.Left[i]] {
				if s, ok := r.ForgetSuccessor(i, cs); ok {
					set[s] = struct{}{}
				}
			}
		case treedecomp.Join:
			group := make(map[JoinSignature][]State)
			for rs := range sets[nd.Right[i]] {
				group[rs.Signature()] = append(group[rs.Signature()], rs)
			}
			set = make(map[State]struct{})
			for ls := range sets[nd.Left[i]] {
				for _, rs := range group[ls.Signature()] {
					if s, ok := combineJoin(&r.pi, ls, rs); ok {
						set[s] = struct{}{}
					}
				}
			}
		}
		sets[i] = set
	}
	return sets
}

// cmpState orders states by their byte content, giving both
// representations a canonical form to compare byte-for-byte.
func cmpState(a, b State) int {
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
	bit := func(x bool) int {
		if x {
			return 1
		}
		return 0
	}
	if d := bit(a.IX) - bit(b.IX); d != 0 {
		return d
	}
	return bit(a.OX) - bit(b.OX)
}

func canonStates(states []State) []State {
	out := slices.Clone(states)
	slices.SortFunc(out, cmpState)
	return out
}

func canonMap(set map[State]struct{}) []State {
	out := make([]State, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.SortFunc(out, cmpState)
	return out
}

// randomSeparatingMask marks each vertex a terminal with probability 1/2.
func randomSeparatingMask(n int, rng *rand.Rand) []bool {
	s := make([]bool, n)
	for v := range s {
		s[v] = rng.IntN(2) == 0
	}
	return s
}

// pairReps maps a full separating set onto its mirror-pair
// representatives, the form the engine stores.
func pairReps(set map[State]struct{}) map[State]struct{} {
	out := make(map[State]struct{}, len(set))
	for s := range set {
		out[pairRep(s)] = struct{}{}
	}
	return out
}

// TestRunEquivalentToMapReference is the quick-check-style equivalence
// lock for the flat substrate: on seeded random planar targets and random
// patterns, in plain and separating mode, the StateSet-backed Run must
// produce the map-based reference's state sets at every node — and the
// DecideOnly variant the same root set. Plain sets match byte for byte;
// separating sets match the reference's sets mapped through pairRep,
// since the engine keeps one state per mirror pair.
func TestRunEquivalentToMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 2024))
	for trial := 0; trial < 120; trial++ {
		n := 6 + rng.IntN(22)
		g := graph.RandomPlanar(n, rng.Float64(), rng)
		h := randomPattern(2+rng.IntN(4), rng.IntN(3), rng)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		separating := trial%2 == 1
		p := &Problem{G: g, H: h, ND: nd}
		if separating {
			p.Separating = true
			p.S = randomSeparatingMask(n, rng)
		}
		want := referenceRun(p)
		if separating {
			for i := range want {
				want[i] = pairReps(want[i])
			}
		}
		got := Run(p, nil)
		for i := range want {
			ws := canonMap(want[i])
			gs := canonStates(got.Sets[i].States())
			if !slices.Equal(ws, gs) {
				t.Fatalf("trial %d (separating=%v): node %d: %d reference states vs %d flat states",
					trial, separating, i, len(ws), len(gs))
			}
		}
		// DecideOnly keeps only the root set, byte-identical to the full
		// run's, and agrees on the decision.
		pd := *p
		pd.DecideOnly = true
		droot := Run(&pd, nil)
		if !slices.Equal(canonMap(want[nd.Root]), canonStates(droot.Sets[nd.Root].States())) {
			t.Fatalf("trial %d: DecideOnly root set differs", trial)
		}
		if droot.Found() != got.Found() {
			t.Fatalf("trial %d: DecideOnly decision differs", trial)
		}
		for i := range droot.Sets {
			if int32(i) != nd.Root && droot.Sets[i] != nil {
				t.Fatalf("trial %d: DecideOnly retained the set of non-root node %d", trial, i)
			}
		}
	}
}

// The per-node cost-record updates must add up to the same emission
// total a per-emission counter produces: the reference recomputes the count
// transition by transition (introduce: per emission; forget: per call;
// join: per attempted combination — the harmonized measure both engines
// now share; the pre-StateSet sequential joinStep counted successes
// only).
func TestStatesGeneratedMatchesReferenceCount(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 81))
	for trial := 0; trial < 30; trial++ {
		g := graph.RandomPlanar(8+rng.IntN(18), rng.Float64(), rng)
		h := randomPattern(2+rng.IntN(3), rng.IntN(2), rng)
		nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
		p := &Problem{G: g, H: h, ND: nd}

		// Count emissions transition by transition over the reference
		// map DP.
		r := NewEngines([]*Problem{p})[0]
		var count int64
		sets := make([]map[State]struct{}, nd.NumNodes())
		for _, i := range nd.Order {
			set := make(map[State]struct{})
			switch nd.Kind[i] {
			case treedecomp.Leaf:
				set[emptyState()] = struct{}{}
			case treedecomp.Introduce:
				for cs := range sets[nd.Left[i]] {
					r.IntroduceSuccessors(i, cs, func(s State, _ bool) {
						count++
						set[s] = struct{}{}
					})
				}
			case treedecomp.Forget:
				for cs := range sets[nd.Left[i]] {
					count++
					if s, ok := r.ForgetSuccessor(i, cs); ok {
						set[s] = struct{}{}
					}
				}
			case treedecomp.Join:
				group := make(map[JoinSignature][]State)
				for rs := range sets[nd.Right[i]] {
					group[rs.Signature()] = append(group[rs.Signature()], rs)
				}
				for ls := range sets[nd.Left[i]] {
					for _, rs := range group[ls.Signature()] {
						count++
						if s, ok := combineJoin(&r.pi, ls, rs); ok {
							set[s] = struct{}{}
						}
					}
				}
			}
			sets[i] = set
		}

		if got := Run(p, nil).Cost().Emissions; got != count {
			t.Fatalf("trial %d: emissions=%d, reference count=%d", trial, got, count)
		}
	}
}
