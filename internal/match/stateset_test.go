package match

import (
	"math/rand/v2"
	"testing"
)

// mapStateSet is the old map-based representation, kept in the tests as
// the reference implementation the flat StateSet is validated (and
// benchmarked) against.
type mapStateSet map[State]struct{}

// randomState draws an arbitrary (not necessarily DP-reachable) state:
// set semantics must hold for any key the struct can represent.
func randomState(rng *rand.Rand) State {
	var s State
	for u := range s.Phi {
		s.Phi[u] = int8(rng.IntN(21) - 1)
	}
	s.C = uint16(rng.Uint32())
	s.In = rng.Uint32() & 0xFFFFF
	s.Out = rng.Uint32() & 0xFFFFF
	s.IX = rng.IntN(2) == 0
	s.OX = rng.IntN(2) == 0
	return s
}

// dpLikeState draws a state shaped like the DP's: an injective partial
// map of k=6 pattern vertices into 8 slots. Many draws collide, which is
// what the duplicate-detection path sees in a real run.
func dpLikeState(rng *rand.Rand) State {
	s := emptyState()
	var used uint32
	for u := 0; u < 6; u++ {
		switch rng.IntN(3) {
		case 0:
			slot := rng.IntN(8)
			if used&(1<<slot) == 0 {
				used |= 1 << slot
				s.Phi[u] = int8(slot)
			}
		case 1:
			s.C |= 1 << u
		}
	}
	return s
}

func TestStateSetAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 26))
	for trial := 0; trial < 50; trial++ {
		set := NewStateSet(rng.IntN(4))
		ref := make(mapStateSet)
		n := 1 + rng.IntN(600)
		for i := 0; i < n; i++ {
			var s State
			if rng.IntN(2) == 0 {
				s = dpLikeState(rng)
			} else {
				s = randomState(rng)
			}
			_, dup := ref[s]
			if added := set.Add(s); added == dup {
				t.Fatalf("trial %d: Add returned %v but dup=%v", trial, added, dup)
			}
			ref[s] = struct{}{}
		}
		if set.Len() != len(ref) {
			t.Fatalf("trial %d: Len %d, reference %d", trial, set.Len(), len(ref))
		}
		for s := range ref {
			if !set.Contains(s) {
				t.Fatalf("trial %d: missing state %v", trial, s)
			}
		}
		for idx, s := range set.States() {
			if _, ok := ref[s]; !ok {
				t.Fatalf("trial %d: extra state %v", trial, s)
			}
			if got := set.IndexOf(s); got != idx {
				t.Fatalf("trial %d: IndexOf=%d want %d", trial, got, idx)
			}
		}
		// Absent probes.
		for i := 0; i < 100; i++ {
			s := randomState(rng)
			if _, ok := ref[s]; ok {
				continue
			}
			if set.Contains(s) || set.IndexOf(s) != -1 {
				t.Fatalf("trial %d: phantom membership", trial)
			}
		}
	}
}

func TestStateSetInsertionOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	states := make([]State, 300)
	for i := range states {
		states[i] = randomState(rng)
	}
	a, b := NewStateSet(0), NewStateSet(64)
	for _, s := range states {
		a.Add(s)
		b.Add(s)
	}
	as, bs := a.States(), b.States()
	if len(as) != len(bs) {
		t.Fatalf("lengths differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("insertion order differs at %d despite equal input", i)
		}
	}
}

func TestStateSetResetReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 44))
	set := NewStateSet(4)
	for round := 0; round < 5; round++ {
		ref := make(mapStateSet)
		for i := 0; i < 200+100*round; i++ {
			s := dpLikeState(rng)
			set.Add(s)
			ref[s] = struct{}{}
		}
		if set.Len() != len(ref) {
			t.Fatalf("round %d: Len %d want %d", round, set.Len(), len(ref))
		}
		set.Reset()
		if set.Len() != 0 {
			t.Fatal("Reset left states behind")
		}
		for s := range ref {
			if set.Contains(s) {
				t.Fatal("Reset left table entries behind")
			}
		}
	}
}

func TestStateSetNilSafety(t *testing.T) {
	var s *StateSet
	if s.Len() != 0 || s.States() != nil || s.Contains(emptyState()) || s.IndexOf(emptyState()) != -1 {
		t.Fatal("nil StateSet must read as empty")
	}
}

func TestArenaRecyclesSets(t *testing.T) {
	var a arena
	s1 := a.get(16)
	s1.Add(emptyState())
	a.put(s1)
	s2 := a.get(8)
	if s2 != s1 {
		t.Fatal("arena should hand back the recycled set")
	}
	if s2.Len() != 0 || s2.Contains(emptyState()) {
		t.Fatal("recycled set must come back empty")
	}
}

// joinCorpus draws n DP-shaped states whose C field holds their input
// index. C is not part of the join signature, so the grouping is that of
// dpLikeState while every state names its own input position.
func joinCorpus(rng *rand.Rand, n int) []State {
	states := make([]State, n)
	for i := range states {
		states[i] = dpLikeState(rng)
		states[i].C = uint16(i)
	}
	return states
}

// checkJoinIndex checks ji, last built over states, against a map
// grouping. Every probe (each input state, then the extra probes,
// present or not) must see exactly its signature's members, in input
// order, and every input index must appear in exactly one bucket.
func checkJoinIndex(t *testing.T, ji *JoinIndex, states, probes []State) {
	t.Helper()
	group := make(map[JoinSignature][]uint16)
	for _, s := range states {
		group[s.Signature()] = append(group[s.Signature()], s.C)
	}
	for _, probe := range append(states[:len(states):len(states)], probes...) {
		want := group[probe.Signature()]
		lo, hi := ji.Bucket(&probe)
		if hi-lo != len(want) {
			t.Fatalf("n=%d: bucket size %d want %d", len(states), hi-lo, len(want))
		}
		for x := lo; x < hi; x++ {
			got := ji.At(x)
			if got.Signature() != probe.Signature() {
				t.Fatalf("n=%d: bucket contains a foreign signature", len(states))
			}
			if got.C != want[x-lo] {
				t.Fatalf("n=%d: bucket member %d is input %d, want input %d (input order)", len(states), x-lo, got.C, want[x-lo])
			}
		}
	}
	seen := make([]int, len(states))
	for _, idxs := range group {
		lo, hi := ji.Bucket(&states[idxs[0]])
		for x := lo; x < hi; x++ {
			seen[ji.At(x).C]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("n=%d: input %d appears in %d buckets", len(states), i, c)
		}
	}
}

func TestJoinIndexAgainstMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 66))
	probes := func(n int) []State {
		out := make([]State, n)
		for i := range out {
			out[i] = dpLikeState(rng)
		}
		return out
	}
	t.Run("empty", func(t *testing.T) {
		var ji JoinIndex
		ji.Build(nil)
		checkJoinIndex(t, &ji, nil, probes(50))
	})
	t.Run("random", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			states := joinCorpus(rng, 1+rng.IntN(400))
			var ji JoinIndex
			ji.Build(states)
			checkJoinIndex(t, &ji, states, probes(50))
		}
	})
	t.Run("reuse", func(t *testing.T) {
		// One index across a large, a small and a large Build: every
		// group of an earlier Build must be gone from the next one, so
		// the earlier inputs double as probes.
		var ji JoinIndex
		var prev []State
		for _, n := range []int{3000, 40, 2500, 0, 500} {
			states := joinCorpus(rng, n)
			ji.Build(states)
			checkJoinIndex(t, &ji, states, append(prev, probes(50)...))
			prev = states
		}
	})
}

// ---- Micro-benchmarks: flat StateSet vs the old map path ----

func benchCorpus(n int) []State {
	rng := rand.New(rand.NewPCG(7, 77))
	out := make([]State, n)
	for i := range out {
		out[i] = dpLikeState(rng)
	}
	return out
}

func BenchmarkStateSetInsert(b *testing.B) {
	corpus := benchCorpus(4096)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		set := NewStateSet(0)
		for i := 0; i < b.N; i++ {
			set.Reset()
			for _, s := range corpus {
				set.Add(s)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set := make(mapStateSet)
			for _, s := range corpus {
				set[s] = struct{}{}
			}
		}
	})
}

func BenchmarkStateSetIterate(b *testing.B) {
	corpus := benchCorpus(4096)
	flat := NewStateSet(len(corpus))
	ref := make(mapStateSet)
	for _, s := range corpus {
		flat.Add(s)
		ref[s] = struct{}{}
	}
	b.Run("flat", func(b *testing.B) {
		var acc uint16
		for i := 0; i < b.N; i++ {
			for _, s := range flat.States() {
				acc ^= s.C
			}
		}
		_ = acc
	})
	b.Run("map", func(b *testing.B) {
		var acc uint16
		for i := 0; i < b.N; i++ {
			for s := range ref {
				acc ^= s.C
			}
		}
		_ = acc
	})
}

// BenchmarkStateSetJoin compares a whole signature-grouped join step:
// the hash-partitioned JoinIndex (one hashing pass plus a counting
// scatter, one probe per left state) vs rebuilding the old
// map[JoinSignature][]State per join.
func BenchmarkStateSetJoin(b *testing.B) {
	pi := patternInfo{k: 6, adj: make([]uint16, 6)}
	left := benchCorpus(2048)
	right := benchCorpus(2048)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		var ji JoinIndex
		out := NewStateSet(len(left))
		for i := 0; i < b.N; i++ {
			ji.Build(right)
			out.Reset()
			for _, ls := range left {
				lo, hi := ji.Bucket(&ls)
				for t := lo; t < hi; t++ {
					if s, ok := combineJoin(&pi, ls, *ji.At(t)); ok {
						out.Add(s)
					}
				}
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			group := make(map[JoinSignature][]State, len(right))
			for _, rs := range right {
				group[rs.Signature()] = append(group[rs.Signature()], rs)
			}
			out := make(mapStateSet)
			for _, ls := range left {
				for _, rs := range group[ls.Signature()] {
					if s, ok := combineJoin(&pi, ls, rs); ok {
						out[s] = struct{}{}
					}
				}
			}
		}
	})
}
