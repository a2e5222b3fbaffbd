package match

import (
	"fmt"
	"math/bits"

	"planarsi/internal/graph"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"
)

// Problem is one bounded-treewidth subgraph isomorphism instance: find the
// pattern H inside the target G, guided by the nice decomposition ND of G.
type Problem struct {
	G  *graph.Graph
	H  *graph.Graph
	ND *treedecomp.Nice

	// Separating switches on the Section 5.2.2 extension. Its node sets
	// hold one representative per inside/outside mirror pair (pairRep),
	// not every valid state; Enumerate expands the pairs as it walks.
	Separating bool
	// Allowed restricts the vertices of G that may be images of pattern
	// vertices (nil = all). Separating covers mark merged minor vertices
	// as not allowed.
	Allowed []bool
	// S is the vertex set to separate (separating mode only).
	S []bool
	// DecideOnly lets the engines recycle the state set of every child
	// node back to the run arena as soon as its parent has consumed it,
	// bounding peak memory by the active frontier instead of the whole
	// tree. Only the root set survives: Found works, Enumerate panics.
	// Decide band solves run this way; find and separating solves keep
	// full sets to enumerate their witnesses.
	DecideOnly bool
	// Cancel, when non-nil, lets the engines abandon the DP mid-flight:
	// they poll it at node (sequential engine) and path (pmdag)
	// boundaries and return early with a partial Result once it fires.
	// Callers that observe Cancel fired must discard the Result — only
	// completeness of the run, never the content of completed node sets,
	// is affected, so an uncancelled rerun produces identical answers.
	Cancel *par.Canceller
	// Trace, when non-nil, receives one event when the engine observes
	// Cancel fired at a checkpoint — the span that makes mid-band
	// cancellation visible in a query's trace timeline. Never touched on
	// the per-state hot path.
	Trace *obs.Recorder
	// Cost, when non-nil, receives the run's cost record (Result.Cost)
	// once, when the run ends, cancelled runs included.
	Cost *obs.CostCounter
}

func (p *Problem) allowed(v int32) bool {
	return p.Allowed == nil || p.Allowed[v]
}

// Result carries the per-node valid state sets of a DP run. It doubles as
// the transition engine: Step and the *Successors methods are shared
// between the sequential bottom-up run (Section 3.2) and the path-DAG
// parallel engine of Section 3.3 (package pmdag), so both compute
// identical semantics.
type Result struct {
	p *Problem
	// Sets[i] holds the valid states of nice node i (nil when the node
	// has not been solved, or when its set was recycled in DecideOnly
	// mode after its parent consumed it).
	Sets []*StateSet
	pi   patternInfo
	// nodeSlot caches, per nice node, the slot of the introduced vertex
	// in its own bag (introduce nodes) or of the forgotten vertex in the
	// child's bag (forget nodes); -1 elsewhere. introAdj caches, per
	// introduce node, the bitmask of bag slots holding G-neighbors of the
	// introduced vertex. Both are per-node constants that the per-state
	// transition loops would otherwise recompute million-fold.
	nodeSlot []int32
	introAdj []uint32
	// cost is the run's cost record. Only the goroutine driving the run
	// writes it: the sequential engine at every node, pmdag when it folds
	// a layer's per-path results.
	cost obs.Cost
	// arena recycles per-node StateSets within this run.
	arena arena
}

// Cost returns the run's cost record so far. Its Emissions field is the
// Lemma 3.1 work measure: every state emission the transitions made.
func (r *Result) Cost() obs.Cost { return r.cost }

// AddCost folds a batch of the run's work into its cost record. Only the
// goroutine driving the run may call it.
func (r *Result) AddCost(c obs.Cost) { r.cost.Accumulate(c) }

// NewSet returns an empty StateSet from the run's arena, pre-sized for
// about hint states. Engines use it for the per-node sets they store into
// Sets.
func (r *Result) NewSet(hint int) *StateSet { return r.arena.get(hint) }

// RecycleNode returns node i's state set to the run arena and clears the
// entry. The caller must be the set's only remaining consumer; in the
// bottom-up order that is node i's parent, right after it consumed the
// set (DecideOnly mode).
func (r *Result) RecycleNode(i int32) {
	if s := r.Sets[i]; s != nil {
		r.Sets[i] = nil
		r.arena.put(s)
	}
}

// Recycle returns a scratch set obtained from NewSet to the run arena.
// The caller must hold the only reference (including States() slices).
func (r *Result) Recycle(s *StateSet) { r.arena.put(s) }

// nodeMeta is the pattern-independent per-node metadata of a (target,
// decomposition) pair: the introduced/forgotten vertex's slot and the
// introduce-node neighbor masks. It depends on G and ND only, so a
// multi-pattern sweep computes it once and shares it (read-only) across
// every pattern's engine.
type nodeMeta struct {
	nodeSlot []int32
	introAdj []uint32
}

// buildNodeMeta computes the shared per-node metadata for (g, nd).
func buildNodeMeta(g *graph.Graph, nd *treedecomp.Nice) nodeMeta {
	n := nd.NumNodes()
	m := nodeMeta{nodeSlot: make([]int32, n), introAdj: make([]uint32, n)}
	for i := 0; i < n; i++ {
		m.nodeSlot[i] = -1
		switch nd.Kind[i] {
		case treedecomp.Introduce:
			v := nd.Vertex[i]
			m.nodeSlot[i] = int32(nd.Slot(int32(i), v))
			var mask uint32
			for _, w := range g.Neighbors(v) {
				if ws := nd.Slot(int32(i), w); ws >= 0 {
					mask |= 1 << uint(ws)
				}
			}
			m.introAdj[i] = mask
		case treedecomp.Forget:
			m.nodeSlot[i] = int32(nd.Slot(nd.Left[i], nd.Vertex[i]))
		}
	}
	return m
}

// newEngineMeta builds one pattern's engine on top of shared node
// metadata.
func newEngineMeta(p *Problem, m nodeMeta) *Result {
	r := &Result{p: p, pi: newPatternInfo(p.H)}
	r.Sets = make([]*StateSet, p.ND.NumNodes())
	r.nodeSlot = m.nodeSlot
	r.introAdj = m.introAdj
	return r
}

// NewEngines prepares one engine per problem of a multi-pattern sweep.
// All problems must share the same target graph and nice decomposition
// (their H, Cancel, Cost and flags may differ); the pattern-independent
// per-node metadata is computed once and shared read-only.
func NewEngines(ps []*Problem) []*Result {
	if len(ps) == 0 {
		return nil
	}
	p0 := ps[0]
	if p0.ND.Width+1 > MaxBag {
		panic(fmt.Sprintf("match: bag size %d exceeds %d", p0.ND.Width+1, MaxBag))
	}
	for _, p := range ps[1:] {
		if p.G != p0.G || p.ND != p0.ND {
			panic("match: NewEngines requires problems sharing one target and decomposition")
		}
	}
	m := buildNodeMeta(p0.G, p0.ND)
	rs := make([]*Result, len(ps))
	for i, p := range ps {
		rs[i] = newEngineMeta(p, m)
	}
	return rs
}

// Problem returns the instance this engine was built for.
func (r *Result) Problem() *Problem { return r.p }

// K returns the pattern size.
func (r *Result) K() int { return r.pi.k }

// Found reports whether the root certifies an occurrence: every pattern
// vertex matched, and in separating mode S seen on both sides.
func (r *Result) Found() bool {
	root := r.p.ND.Root
	want := r.pi.allMatched()
	// A cancelled run may never have solved the root; States() on the nil
	// set is empty, so a partial result reports not-found rather than
	// crashing (callers that saw Cancel fire discard the answer anyway).
	for _, s := range r.Sets[root].States() {
		if s.C == want && (!r.p.Separating || (s.IX && s.OX)) {
			return true
		}
	}
	return false
}

// Run executes the sequential bottom-up DP (Section 3.2) and returns the
// per-node valid state sets.
func Run(p *Problem, tr *wd.Tracker) *Result { return RunMulti([]*Problem{p}, tr)[0] }

// RunMulti executes the sequential bottom-up DP for several patterns in
// one pass over the shared decomposition: the node traversal is walked
// once, and each still-active pattern performs its own
// introduce/forget/join at every node. Per-pattern state sets and cost
// records are byte-identical to len(ps) separate Run calls — only the tree walk (and the NewEngines node metadata) is
// shared. A pattern whose Cancel fires drops out of the sweep at its
// next node checkpoint with a partial Result, exactly as a solo Run
// would, without stopping its batch-mates. Each run flushes its cost
// record once, at the end: to tr's "dp" phase (work = States, and for
// a run not cancelled one round per node) and to its Problem.Cost.
func RunMulti(ps []*Problem, tr *wd.Tracker) []*Result {
	rs := NewEngines(ps)
	runSequential(rs, tr)
	return rs
}

// runSequential drives the bottom-up node loop for one or more engines
// sharing a decomposition.
func runSequential(rs []*Result, tr *wd.Tracker) {
	if len(rs) == 0 {
		return
	}
	nd := rs[0].p.ND
	jis := make([]JoinIndex, len(rs))
	alive := make([]bool, len(rs))
	remaining := len(rs)
	for x := range alive {
		alive[x] = true
	}
	for _, i := range nd.Order {
		if remaining == 0 {
			break
		}
		for x, r := range rs {
			if !alive[x] {
				continue
			}
			if r.p.Cancel.Cancelled() {
				// Partial: the caller observed Cancel and discards this
				// pattern's Result. The single event marks where in the
				// bottom-up order the pattern's run was abandoned.
				r.p.Trace.Event("dp.cancel", -1, -1, "sequential engine abandoned at node checkpoint")
				alive[x] = false
				remaining--
				continue
			}
			r.runNode(i, &jis[x])
		}
	}
	for x, r := range rs {
		tr.AddPhaseWork("dp", r.cost.States)
		if alive[x] {
			tr.AddPhaseRounds("dp", r.cost.Nodes)
		}
		r.p.Cost.Add(r.cost)
	}
}

// runNode executes one pattern's bottom-up step at nice node i: Step,
// then the store, the cost record and the DecideOnly recycle.
func (r *Result) runNode(i int32, ji *JoinIndex) {
	p := r.p
	nd := p.ND
	var emitted int64
	set := r.Step(i, ji, &emitted)
	r.Sets[i] = set
	// Children are still resident here (DecideOnly recycles below), so
	// their lengths price the states read.
	var read int64
	if l := nd.Left[i]; l >= 0 {
		read += int64(r.Sets[l].Len())
	}
	if rt := nd.Right[i]; rt >= 0 {
		read += int64(r.Sets[rt].Len())
	}
	r.cost.Nodes++
	r.cost.States += int64(set.Len())
	r.cost.Emissions += emitted
	r.cost.Bytes += (read + int64(set.Len())) * StateBytes
	if nd.Kind[i] == treedecomp.Join {
		r.cost.Joins += emitted
	}
	if p.DecideOnly {
		if l := nd.Left[i]; l >= 0 {
			r.RecycleNode(l)
		}
		if rt := nd.Right[i]; rt >= 0 {
			r.RecycleNode(rt)
		}
	}
}

// Step computes the valid state set of nice node i from its children's
// sets, which must be resident in Sets: the Section 3.2 leaf, introduce,
// forget or join transition applied to every child state. It neither
// stores the set nor touches the cost record; it adds one to *emitted
// per state emission (per attempted combination at a join). The
// sequential engine runs it at every node, the path-DAG engine at each
// path's bottom node.
func (r *Result) Step(i int32, ji *JoinIndex, emitted *int64) *StateSet {
	nd := r.p.ND
	// Separating sets keep one state per mirror pair. Successors commute
	// with mirror, so the representatives' successors cover the pairs of
	// the full set's successors.
	sep := r.p.Separating
	switch nd.Kind[i] {
	case treedecomp.Leaf:
		set := r.arena.get(1)
		set.Add(emptyState())
		return set
	case treedecomp.Introduce:
		child := r.Sets[nd.Left[i]]
		set := r.arena.get(child.Len())
		for _, cs := range child.States() {
			r.IntroduceSuccessors(i, cs, func(s State, _ bool) {
				if sep {
					s = pairRep(s)
				}
				set.Add(s)
				*emitted++
			})
		}
		return set
	case treedecomp.Forget:
		child := r.Sets[nd.Left[i]]
		set := r.arena.get(child.Len())
		for _, cs := range child.States() {
			*emitted++
			if s, ok := r.ForgetSuccessor(i, cs); ok {
				if sep {
					s = pairRep(s)
				}
				set.Add(s)
			}
		}
		return set
	case treedecomp.Join:
		return r.joinStep(r.Sets[nd.Left[i]], r.Sets[nd.Right[i]], ji, emitted)
	}
	panic(fmt.Sprintf("match: unknown kind of nice node %d", i))
}

// IntroduceSuccessors enumerates the parent states that child state cs of
// introduce node i transitions to, calling emit(state, newMatch) for each.
// newMatch is true exactly when the transition maps a new pattern vertex
// (a non-forest edge of Section 3.3.2); the skip/label transitions are the
// no-new-match extensions of Figure 5. The caller counts emissions (one
// per emit call) into the run's cost record.
func (r *Result) IntroduceSuccessors(i int32, cs State, emit func(State, bool)) {
	p, pi := r.p, &r.pi
	nd := p.ND
	v := nd.Vertex[i]
	slot := int(r.nodeSlot[i])
	adjMask := r.introAdj[i]
	// The mapped-vertex mask is invariant under slot remapping, so it is
	// computed in the same pass that shifts the slots instead of by a
	// second k-iteration MMask scan per state.
	base, mmask := remapIntroduceM(cs, slot, pi.k)
	// Option (a): leave v unmatched by the pattern.
	if !p.Separating {
		emit(base, false)
	} else {
		// Label v inside or outside, respecting G-edges to other
		// unmapped bag vertices. Label masks only carry bits on unmapped
		// slots (a vertex is mapped only at its own introduce, before any
		// label), so intersecting them with the neighbor mask suffices.
		forcedIn := base.In&adjMask != 0
		forcedOut := base.Out&adjMask != 0
		if !(forcedIn && forcedOut) {
			if !forcedOut {
				s := base
				s.In |= 1 << uint(slot)
				if p.S != nil && p.S[v] {
					s.IX = true
				}
				emit(s, false)
			}
			if !forcedIn {
				s := base
				s.Out |= 1 << uint(slot)
				if p.S != nil && p.S[v] {
					s.OX = true
				}
				emit(s, false)
			}
		}
	}
	// Option (b): map some unmatched pattern vertex u onto v.
	if !p.allowed(v) {
		return
	}
	for u := 0; u < pi.k; u++ {
		if base.Phi[u] >= 0 || base.C&(1<<u) != 0 {
			continue
		}
		// No H-neighbor of u may be matched-in-a-child.
		if pi.adj[u]&base.C != 0 {
			continue
		}
		// Every H-neighbor already in M must map to a G-neighbor of v.
		ok := true
		for nb := pi.adj[u] & mmask; nb != 0; nb &= nb - 1 {
			w := bits.TrailingZeros16(nb)
			if adjMask>>uint(base.Phi[w])&1 == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		s := base
		s.Phi[u] = int8(slot)
		emit(s, true)
	}
}

// ForgetSuccessor computes the unique parent state of child state cs at
// forget node i, or ok=false when the transition is invalid (a mapped
// vertex leaves the bag while an H-neighbor is still unmatched). Forget
// transitions never match a new vertex: they are always forest edges.
// Like all transitions it does not count work; the caller accumulates one
// emission per call.
func (r *Result) ForgetSuccessor(i int32, cs State) (State, bool) {
	pi := &r.pi
	slot := int(r.nodeSlot[i]) // slot of v in the child's bag
	// One pass finds the pattern vertex mapped to the forgotten slot (if
	// any) and builds the mapped mask the validity check needs.
	mapped := -1
	var mmask uint16
	for u := 0; u < pi.k; u++ {
		if cs.Phi[u] >= 0 {
			mmask |= 1 << u
			if cs.Phi[u] == int8(slot) {
				mapped = u
			}
		}
	}
	if mapped >= 0 {
		// u's image leaves the bags: all H-neighbors must already be
		// matched (in M or C), else an edge could never realize.
		if pi.adj[mapped]&^(mmask|cs.C) != 0 {
			return State{}, false
		}
		s := remapForget(cs, slot)
		s.Phi[mapped] = -1
		s.C |= 1 << uint(mapped)
		return s, true
	}
	return remapForget(cs, slot), true
}

// JoinSignature is the shared-bag part of a state two join children must
// agree on.
type JoinSignature struct {
	Phi     [MaxK]int8
	In, Out uint32
}

// Signature extracts the join signature of a state.
func (s *State) Signature() JoinSignature {
	return JoinSignature{Phi: s.Phi, In: s.In, Out: s.Out}
}

// joinBlock returns the word-parallel join compatibility mask of a C
// set: c itself plus the union of its members' H-neighborhoods. A right
// state rs (same signature) is join-compatible with a left state of C
// set c exactly when joinBlock(c) & rs.C == 0 — the two C sets are
// disjoint AND no H-edge connects them — so the per-state subset probe
// of combineJoin (a loop over c's bits) collapses to one AND over the
// packed C word, computed once per left state and amortized over its
// whole signature bucket.
func (pi *patternInfo) joinBlock(c uint16) uint16 {
	b := c
	for cl := c; cl != 0; cl &= cl - 1 {
		b |= pi.adj[bits.TrailingZeros16(cl)]
	}
	return b
}

// JoinBlockMask exposes joinBlock for the path-DAG engine: the blocked-C
// mask of a left state's C set, valid for any join partner with equal
// signature.
func (r *Result) JoinBlockMask(c uint16) uint16 { return r.pi.joinBlock(c) }

// JoinCombineBlocked merges a left and a right state with equal join
// signatures (the caller's responsibility), given the left state's block
// mask from JoinBlockMask: the whole compatibility check is one word
// operation, and ok=false means the pair does not combine. The caller
// counts one emission per call.
func (r *Result) JoinCombineBlocked(ls State, block uint16, rs *State) (State, bool) {
	if block&rs.C != 0 {
		return State{}, false
	}
	s := ls
	s.C |= rs.C
	s.IX = ls.IX || rs.IX
	s.OX = ls.OX || rs.OX
	return s, true
}

// joinStep combines the states of a join node's two children: the right
// side is grouped by join signature into the reused JoinIndex, and every
// left state scans its signature bucket. emitted accumulates one count
// per attempted combination — the counting the path-DAG engine always
// used; the old sequential joinStep counted successes only, and the two
// measures are harmonized on attempts (the work actually performed) so
// the engines' Lemma 3.1 counters are comparable. The per-pair
// compatibility test is the word-parallel joinBlock probe, accepting and
// emitting exactly the states combineJoin would in the same order.
//
// In separating mode both children hold mirror-pair representatives, and
// two representatives with one signature combine to a representative. A
// labelled bag ties the sides' orientations, so those pairings are all
// there is. A bag without labels does not: a right state also joins as
// its mirror. That adds a new pair only when both sides saw S inside
// alone, and the pair is the state that saw S on both sides; it counts
// as one more attempt.
func (r *Result) joinStep(left, right *StateSet, ji *JoinIndex, emitted *int64) *StateSet {
	pi := &r.pi
	ji.Build(right.States())
	out := r.arena.get(left.Len())
	for _, ls := range left.States() {
		lo, hi := ji.Bucket(&ls)
		if lo == hi {
			continue
		}
		block := pi.joinBlock(ls.C)
		insideOnly := r.p.Separating && ls.In|ls.Out == 0 && ls.IX && !ls.OX
		for t := lo; t < hi; t++ {
			*emitted++
			rs := ji.At(t)
			twin := insideOnly && rs.IX && !rs.OX
			if twin {
				*emitted++
			}
			if block&rs.C != 0 {
				continue
			}
			s := ls
			s.C |= rs.C
			s.IX = ls.IX || rs.IX
			s.OX = ls.OX || rs.OX
			out.Add(s)
			if twin {
				s.OX = true
				out.Add(s)
			}
		}
	}
	return out
}

// combineJoin merges compatible left/right states at a join (equal Phi and
// labels are the caller's responsibility). It is the bit-by-bit reference
// the word-parallel joinBlock path must agree with (the equivalence tests
// check this).
func combineJoin(pi *patternInfo, ls, rs State) (State, bool) {
	if ls.C&rs.C != 0 {
		return State{}, false // a pattern vertex matched in both subtrees
	}
	// No H-edge may connect the two forgotten regions.
	for cl := ls.C; cl != 0; cl &= cl - 1 {
		u := bits.TrailingZeros16(cl)
		if pi.adj[u]&rs.C != 0 {
			return State{}, false
		}
	}
	s := ls
	s.C |= rs.C
	s.IX = ls.IX || rs.IX
	s.OX = ls.OX || rs.OX
	return s, true
}

// remapIntroduce shifts slot indices for a bag that gained a vertex at
// position slot.
func remapIntroduce(s State, slot int) State {
	for u := range s.Phi {
		if s.Phi[u] >= int8(slot) {
			s.Phi[u]++
		}
	}
	s.In = shiftMaskUp(s.In, slot)
	s.Out = shiftMaskUp(s.Out, slot)
	return s
}

// remapIntroduceM is remapIntroduce fused with the mapped-vertex mask:
// one pass over the k live Phi entries both shifts the slots and collects
// MMask (which remapping does not change). Entries at u >= k are always
// -1 in engine states, so the shorter loop is equivalent.
func remapIntroduceM(s State, slot int, k int) (State, uint16) {
	var m uint16
	for u := 0; u < k; u++ {
		if s.Phi[u] >= 0 {
			m |= 1 << u
			if s.Phi[u] >= int8(slot) {
				s.Phi[u]++
			}
		}
	}
	s.In = shiftMaskUp(s.In, slot)
	s.Out = shiftMaskUp(s.Out, slot)
	return s, m
}

// remapForget shifts slot indices for a bag that lost the vertex at
// position slot (no pattern vertex maps there; labels at the slot drop).
func remapForget(s State, slot int) State {
	for u := range s.Phi {
		if s.Phi[u] > int8(slot) {
			s.Phi[u]--
		}
	}
	s.In = shiftMaskDown(s.In, slot)
	s.Out = shiftMaskDown(s.Out, slot)
	return s
}

// shiftMaskUp inserts a zero bit at position slot. The caller guarantees
// bit 31 is clear: a child bag has at most MaxBag-1 slots before an
// introduce grows it to MaxBag, so label masks never occupy the top bit
// prior to insertion.
func shiftMaskUp(m uint32, slot int) uint32 {
	low := m & ((1 << uint(slot)) - 1)
	high := m &^ ((1 << uint(slot)) - 1)
	return low | high<<1
}

// shiftMaskDown removes the bit at position slot.
func shiftMaskDown(m uint32, slot int) uint32 {
	low := m & ((1 << uint(slot)) - 1)
	high := m >> uint(slot+1)
	return low | high<<uint(slot)
}

// Universe enumerates every locally valid plain-mode state of node i: all
// injective partial maps of pattern vertices onto bag slots realizing the
// H-edges inside the bag and respecting Allowed, combined with every C
// set that has no H-edge into the implicit U set. This is the vertex set
// of the Section 3.3.2 graph of partial matches ("for every other node X
// in P, there is a vertex for every partial match of that node X"); the
// count is bounded by (τ+3)^k.
func (r *Result) Universe(i int32) []State {
	if r.p.Separating {
		panic("match: Universe supports plain mode only (pmdag engine)")
	}
	pi := &r.pi
	nd := r.p.ND
	bag := nd.Bag[i]
	// Per-slot adjacency and allowed masks, computed once per node: the
	// DFS below would otherwise pay a HasEdge scan per candidate.
	bagAdj := make([]uint32, len(bag))
	var allowedMask uint32
	for slot, v := range bag {
		if r.p.allowed(v) {
			allowedMask |= 1 << uint(slot)
		}
		for _, w := range r.p.G.Neighbors(v) {
			if ws := nd.Slot(i, w); ws >= 0 {
				bagAdj[slot] |= 1 << uint(ws)
			}
		}
	}
	var out []State
	var phis []State
	// Enumerate injective maps by DFS over pattern vertices, threading the
	// mapped mask through the recursion instead of recomputing it per call.
	var rec func(u int, s State, usedSlots uint32, mmask uint16)
	rec = func(u int, s State, usedSlots uint32, mmask uint16) {
		if u == pi.k {
			phis = append(phis, s)
			return
		}
		rec(u+1, s, usedSlots, mmask) // leave u unmapped for now
		for slot := 0; slot < len(bag); slot++ {
			if usedSlots&(1<<uint(slot)) != 0 || allowedMask>>uint(slot)&1 == 0 {
				continue
			}
			ok := true
			for nb := pi.adj[u] & mmask; nb != 0; nb &= nb - 1 {
				w := bits.TrailingZeros16(nb)
				if bagAdj[slot]>>uint(s.Phi[w])&1 == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			s2 := s
			s2.Phi[u] = int8(slot)
			rec(u+1, s2, usedSlots|1<<uint(slot), mmask|1<<u)
		}
	}
	rec(0, emptyState(), 0, 0)
	// Attach every C subset of the unmapped vertices with no edge to U.
	for _, s := range phis {
		m := s.MMask(pi.k)
		free := uint16((1<<pi.k)-1) &^ m
		for c := free; ; c = (c - 1) & free {
			uSet := free &^ c
			ok := true
			for cc := c; cc != 0; cc &= cc - 1 {
				u := bits.TrailingZeros16(cc)
				if pi.adj[u]&uSet != 0 {
					ok = false
					break
				}
			}
			if ok {
				s2 := s
				s2.C = c
				out = append(out, s2)
			}
			if c == 0 {
				break
			}
		}
	}
	return out
}
