package match

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"planarsi/internal/graph"
	"planarsi/internal/treedecomp"
)

// randomNiceInstance builds a small random planar target, a random small
// pattern, and a nice decomposition of the target.
func randomNiceInstance(rng *rand.Rand) (*graph.Graph, *graph.Graph, *treedecomp.Nice) {
	g := graph.RandomPlanar(8+rng.IntN(20), rng.Float64(), rng)
	h := randomPattern(2+rng.IntN(3), rng.IntN(2), rng)
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	return g, h, nd
}

// Property: inserting a slot and removing it again is the identity on
// states (remapIntroduce and remapForget are inverses when the slot is
// unoccupied and unlabeled).
func TestRemapRoundTripQuick(t *testing.T) {
	f := func(phiRaw [MaxK]uint8, c uint16, in, out uint32, slotRaw uint8) bool {
		s := emptyState()
		for u := range s.Phi {
			// Map into plausible slot range [-1, 20).
			s.Phi[u] = int8(int(phiRaw[u])%21 - 1)
		}
		s.C = c
		s.In = in & 0xFFFFF
		s.Out = out & 0xFFFFF
		slot := int(slotRaw % 20)
		up := remapIntroduce(s, slot)
		// The new slot is unoccupied and unlabeled by construction of
		// remapIntroduce; removing it must restore the original.
		down := remapForget(up, slot)
		return down == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: shiftMaskUp inserts a zero bit, shiftMaskDown removes it.
// The precondition (documented on shiftMaskUp) is that bit 31 is clear:
// child bags have at most MaxBag-1 slots before an introduce.
func TestShiftMaskQuick(t *testing.T) {
	f := func(m uint32, slotRaw uint8) bool {
		m &= 0x7FFFFFFF // bags hold at most MaxBag-1 slots pre-introduce
		slot := int(slotRaw % 31)
		up := shiftMaskUp(m, slot)
		if up&(1<<uint(slot)) != 0 {
			return false // inserted bit must be zero
		}
		return shiftMaskDown(up, slot) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a state's occupied-slot mask has exactly one bit per mapped
// pattern vertex and MMask has exactly one bit per non-negative Phi.
func TestMaskConsistencyQuick(t *testing.T) {
	f := func(phiRaw [MaxK]uint8) bool {
		s := emptyState()
		used := make(map[int8]bool)
		for u := 0; u < MaxK; u++ {
			v := int8(int(phiRaw[u])%21 - 1)
			// Keep the map injective on slots, as real states are.
			if v >= 0 && used[v] {
				v = -1
			}
			if v >= 0 {
				used[v] = true
			}
			s.Phi[u] = v
		}
		mapped := 0
		for u := 0; u < MaxK; u++ {
			if s.Phi[u] >= 0 {
				mapped++
			}
		}
		m := s.MMask(MaxK)
		o := s.OccupiedSlots(MaxK)
		return popcount16(m) == mapped && popcount32(o) == mapped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func popcount16(m uint16) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

func popcount32(m uint32) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// Property: combineJoin is symmetric in IX/OX and rejects exactly the
// overlapping-C pairs for edgeless patterns.
func TestCombineJoinQuick(t *testing.T) {
	pi := patternInfo{k: 8, adj: make([]uint16, 8)} // edgeless pattern
	f := func(cl, cr uint16, ixl, oxl, ixr, oxr bool) bool {
		cl &= 0xFF
		cr &= 0xFF
		ls := emptyState()
		rs := emptyState()
		ls.C, rs.C = cl, cr
		ls.IX, ls.OX = ixl, oxl
		rs.IX, rs.OX = ixr, oxr
		got, ok := combineJoin(&pi, ls, rs)
		if (cl&cr == 0) != ok {
			return false
		}
		if !ok {
			return true
		}
		return got.C == cl|cr && got.IX == (ixl || ixr) && got.OX == (oxl || oxr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every state Universe returns is locally valid — injective
// map realizing pattern edges inside the bag, C disjoint from M with no
// H-edge from C to the implicit U.
func TestUniverseLocalValidityQuick(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 30; trial++ {
		g, h, nd := randomNiceInstance(rng)
		eng := NewEngines([]*Problem{{G: g, H: h, ND: nd}})[0]
		node := int32(rng.IntN(nd.NumNodes()))
		bag := nd.Bag[node]
		for _, s := range eng.Universe(node) {
			m := s.MMask(eng.pi.k)
			if m&s.C != 0 {
				t.Fatalf("C overlaps M in %v", s)
			}
			// Injectivity on slots.
			seen := map[int8]bool{}
			for u := 0; u < eng.pi.k; u++ {
				if s.Phi[u] < 0 {
					continue
				}
				if seen[s.Phi[u]] {
					t.Fatalf("slot reused in %v", s)
				}
				seen[s.Phi[u]] = true
				// Edges among mapped vertices realized.
				for nb := eng.pi.adj[u] & m; nb != 0; nb &= nb - 1 {
					w := trailingZeros16(nb)
					if !g.HasEdge(bag[s.Phi[u]], bag[s.Phi[w]]) {
						t.Fatalf("unrealized edge in %v", s)
					}
				}
			}
			// No H-edge from C into U.
			free := uint16((1<<eng.pi.k)-1) &^ m
			uSet := free &^ s.C
			for c := s.C; c != 0; c &= c - 1 {
				u := trailingZeros16(c)
				if eng.pi.adj[u]&uSet != 0 {
					t.Fatalf("edge from C to U in %v", s)
				}
			}
		}
	}
}

func trailingZeros16(m uint16) int {
	c := 0
	for m&1 == 0 {
		m >>= 1
		c++
	}
	return c
}

// randomLabelledState draws a separating state over a bag of the given
// size: an injective partial map of the k pattern vertices onto slots, a
// C set disjoint from it, an inside or outside label on every unmapped
// slot, and random IX/OX.
func randomLabelledState(k, bag int, rng *rand.Rand) State {
	s := emptyState()
	perm := rng.Perm(bag)
	for u := 0; u < k; u++ {
		switch rng.IntN(3) {
		case 0:
			if len(perm) > 0 {
				s.Phi[u] = int8(perm[0])
				perm = perm[1:]
			}
		case 1:
			s.C |= 1 << u
		}
	}
	occupied := s.OccupiedSlots(k)
	for slot := 0; slot < bag; slot++ {
		if occupied&(1<<slot) != 0 {
			continue
		}
		if rng.IntN(2) == 0 {
			s.In |= 1 << slot
		} else {
			s.Out |= 1 << slot
		}
	}
	s.IX, s.OX = rng.IntN(2) == 0, rng.IntN(2) == 0
	return s
}

// Property: pairRep picks one member of every mirror pair, the same for
// both members. Labels come from a 3-slot bag, so unlabelled states
// (In == Out == 0) turn up often.
func TestPairRepQuick(t *testing.T) {
	f := func(in, out uint8, ix, ox bool) bool {
		s := emptyState()
		s.In = uint32(in & 7)
		s.Out = uint32(out&7) &^ s.In
		s.IX, s.OX = ix, ox
		rep := pairRep(s)
		return pairRep(mirror(s)) == rep && (rep == s || rep == mirror(s)) && pairRep(rep) == rep
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every separating transition commutes with mirror, so a node's
// valid set is closed under it and the engine may store one state per
// pair. Joining two representatives with one signature gives a
// representative, which joinStep relies on to skip pairRep.
func TestMirrorCommutesWithTransitions(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 71))
	mirrored := func(states []State) []State {
		out := make([]State, len(states))
		for x, s := range states {
			out[x] = mirror(s)
		}
		return canonStates(out)
	}
	for trial := 0; trial < 40; trial++ {
		g, h, nd := randomNiceInstance(rng)
		eng := NewEngines([]*Problem{{G: g, H: h, ND: nd, Separating: true, S: randomSeparatingMask(g.N(), rng)}})[0]
		k := h.N()
		for i := int32(0); i < int32(nd.NumNodes()); i++ {
			switch nd.Kind[i] {
			case treedecomp.Introduce:
				cs := randomLabelledState(k, len(nd.Bag[nd.Left[i]]), rng)
				successors := func(c State) []State {
					var out []State
					eng.IntroduceSuccessors(i, c, func(s State, _ bool) { out = append(out, s) })
					return canonStates(out)
				}
				if got, want := successors(mirror(cs)), mirrored(successors(cs)); !slices.Equal(got, want) {
					t.Fatalf("trial %d node %d: introduce of mirror(%v) gives %v, want %v", trial, i, cs, got, want)
				}
			case treedecomp.Forget:
				cs := randomLabelledState(k, len(nd.Bag[nd.Left[i]]), rng)
				s, ok := eng.ForgetSuccessor(i, cs)
				m, mok := eng.ForgetSuccessor(i, mirror(cs))
				if ok != mok || (ok && m != mirror(s)) {
					t.Fatalf("trial %d node %d: forget of mirror(%v) gives %v/%v, want %v/%v", trial, i, cs, m, mok, mirror(s), ok)
				}
			case treedecomp.Join:
				ls := randomLabelledState(k, len(nd.Bag[i]), rng)
				rs := ls
				rs.C = uint16(rng.IntN(1<<k)) &^ ls.MMask(k)
				rs.IX, rs.OX = rng.IntN(2) == 0, rng.IntN(2) == 0
				s, ok := combineJoin(&eng.pi, ls, rs)
				m, mok := combineJoin(&eng.pi, mirror(ls), mirror(rs))
				if ok != mok || (ok && m != mirror(s)) {
					t.Fatalf("trial %d node %d: join of mirrors gives %v/%v, want %v/%v", trial, i, m, mok, mirror(s), ok)
				}
				if ok && pairRep(ls) == ls && pairRep(rs) == rs && pairRep(s) != s {
					t.Fatalf("trial %d node %d: join of representatives %v and %v is not one: %v", trial, i, ls, rs, s)
				}
			}
		}
	}
}
