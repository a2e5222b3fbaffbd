// Package treepath implements Lemma 3.2 and Appendix A of the paper:
// decomposing a rooted tree or forest into O(log n) layers of
// vertex-disjoint paths, with the layer numbers computed either
// sequentially or by parallel tree contraction over the closed family of
// unary functions {f≠i, g=i} the appendix exhibits.
//
// The path-DAG engine (package pmdag) uses the decomposition twice: its
// layer loop schedules the nice tree decomposition's paths layer by layer
// (Section 3.3.1, LayersParallel), and its shortcut construction places
// hubs along the paths of the forest of no-new-match transitions (Section
// 3.3.3, LayersSequential). Both read the same flat Paths form.
//
// The layer number L of a node is 0 at leaves; an interior node takes the
// maximum layer among its children if that maximum is unique, and the
// maximum plus one otherwise. Nodes of equal layer form vertex-disjoint
// paths (no node has two children of its own layer), and the layer count
// is at most ⌊log₂ n⌋ + 1 because a layer increment requires two children
// of equal maximal layer, halving the population per layer.
package treepath

import (
	"planarsi/internal/wd"
)

// childCounts returns the number of children of every node of a parent
// array (roots have parent -1; forests with several roots are allowed).
func childCounts(parent []int32) []int32 {
	cnt := make([]int32, len(parent))
	for _, p := range parent {
		if p >= 0 {
			cnt[p]++
		}
	}
	return cnt
}

// LayersSequential computes layer numbers with a Kahn sweep from the
// leaves: child counts serve as in-degrees, and a node is finished once
// its last child has reported. Per-node (max, unique) pairs aggregate the
// child layers as they arrive.
func LayersSequential(parent []int32) []int32 {
	n := len(parent)
	pending := childCounts(parent)
	layers := make([]int32, n)
	lmax := make([]int32, n)
	unique := make([]bool, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		lmax[v] = -1
		if pending[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		switch {
		case lmax[v] < 0:
			layers[v] = 0
		case unique[v]:
			layers[v] = lmax[v]
		default:
			layers[v] = lmax[v] + 1
		}
		p := parent[v]
		if p < 0 {
			continue
		}
		switch {
		case layers[v] > lmax[p]:
			lmax[p], unique[p] = layers[v], true
		case layers[v] == lmax[p]:
			unique[p] = false
		}
		pending[p]--
		if pending[p] == 0 {
			queue = append(queue, p)
		}
	}
	return layers
}

// ---- Appendix A: the closed unary function family ----
//
// The appendix proposes the family {f≠i, g=i} with
//
//	f≠i(x) = i+1 if x == i, max(i, x) otherwise
//	g=i(x) = i+1 if i >= x, x otherwise
//
// and claims it is closed under composition. As printed, it is not:
// (f≠2 ∘ f≠1)(1) = f≠2(2) = 3, but the appendix's table says the
// composite equals f≠max(2,1) = f≠2, which maps 1 to 2. The issue arises
// whenever the inner function's bump output collides with the outer
// function's bump point (i = j + 1).
//
// The actual closure of {f≠i, g=i} under composition is the three-
// parameter family
//
//	φ(A,s,t)(x) = A    if x < s
//	            = t+1  if s <= x <= t
//	            = x    if x > t
//
// with A <= t+1 (identity is φ(0,0,-1), f≠i is φ(i,i,i), and g=i is
// φ(i+1,0,i)). Composition stays O(1), so Lemma 3.2's bounds are
// unaffected; DESIGN.md records the deviation, and the tests verify
// closure exhaustively over small parameter ranges.
type uFn struct {
	a, s, t int32
}

var identityFn = uFn{a: 0, s: 0, t: -1}

// fNeq is the appendix's f≠i: "running maximum i, currently unique".
func fNeq(i int32) uFn { return uFn{a: i, s: i, t: i} }

// gEq is the appendix's g=i: "running maximum i, currently tied".
func gEq(i int32) uFn { return uFn{a: i + 1, s: 0, t: i} }

// apply evaluates the function at x.
func (h uFn) apply(x int32) int32 {
	switch {
	case x > h.t:
		return x
	case x >= h.s:
		return h.t + 1
	default:
		return h.a
	}
}

// compose returns a ∘ b (apply b first, then a). The derivation of the
// three cases is in the comment above; each preserves A <= t+1.
func compose(a, b uFn) uFn {
	switch {
	case b.t >= a.t:
		// a is identity above b's plateau: only b's low constant moves.
		return uFn{a: a.apply(b.a), s: b.s, t: b.t}
	case a.s <= b.t+1:
		// b's plateau lands inside a's bump region: plateaus merge.
		return uFn{a: a.apply(b.a), s: b.s, t: a.t}
	default:
		// b's outputs below a.s all collapse onto a's low constant
		// (b.a <= b.t+1 < a.s guarantees a.apply(b.a) == a.a).
		return uFn{a: a.a, s: a.s, t: a.t}
	}
}

// aggregate tracks the (max, unique) state over the child layer values a
// node has received so far.
type aggregate struct {
	lmax   int32 // -1 when nothing arrived
	unique bool
}

func (a *aggregate) add(x int32) {
	switch {
	case x > a.lmax:
		a.lmax, a.unique = x, true
	case x == a.lmax:
		a.unique = false
	}
}

// value finishes the aggregate into the node's layer number.
func (a *aggregate) value() int32 {
	if a.lmax < 0 {
		return 0 // leaf
	}
	if a.unique {
		return a.lmax
	}
	return a.lmax + 1
}

// projection turns the aggregate over all-but-one children into the unary
// function of the missing child's value: L(l1..lk-1, x) = f≠m(x) when the
// received maximum m is unique, g=m(x) otherwise (Appendix A).
func (a *aggregate) projection() uFn {
	if a.lmax < 0 {
		return identityFn // unary node: L(x) = x
	}
	if a.unique {
		return fNeq(a.lmax)
	}
	return gEq(a.lmax)
}

// LayersParallel computes the same layer numbers as LayersSequential via
// randomized tree contraction (Miller-Reif rake and compress), evaluating
// the expression tree of L over the appendix's function family. The round
// count — O(log n) in expectation — is recorded on tr as depth.
func LayersParallel(parent []int32, tr *wd.Tracker) []int32 {
	n := len(parent)
	layers := make([]int32, n)
	if n == 0 {
		return layers
	}
	unresolved := childCounts(parent) // children not yet delivered
	agg := make([]aggregate, n)
	fun := make([]uFn, n) // edge function toward the current parent
	up := make([]int32, n)
	resolved := make([]bool, n)
	spliced := make([]bool, n)
	for v := 0; v < n; v++ {
		agg[v] = aggregate{lmax: -1}
		fun[v] = identityFn
		up[v] = parent[v]
	}
	// Splice events for the expansion phase: when w is spliced out, its
	// layer is proj(fBelow(layer of its unresolved child)); replaying the
	// events in reverse order resolves all spliced nodes.
	type spliceEvent struct {
		w, c   int32
		fBelow uFn
		proj   uFn
	}
	var events []spliceEvent
	pending := n
	rnd := uint64(0x9e3779b97f4a7c15)
	round := 0
	// Per-round scratch, allocated once: the raked nodes, each node's
	// unresolved child when it has exactly one (live, else -1) with the
	// count behind it, and the compress phase's eligibility and splice
	// decisions. All but elig, which every round rewrites whole, are
	// reset at the top of each round.
	raked := make([]int32, 0, n)
	live := make([]int32, n)
	cnt := make([]int32, n)
	elig := make([]bool, n)
	splice := make([]bool, n)
	for pending > 0 {
		round++
		raked = raked[:0]
		for v := 0; v < n; v++ {
			live[v], cnt[v], splice[v] = -1, 0, false
		}
		// Rake: resolve nodes with no unresolved children.
		for v := 0; v < n; v++ {
			if !resolved[v] && !spliced[v] && unresolved[v] == 0 {
				raked = append(raked, int32(v))
			}
		}
		for _, v := range raked {
			layers[v] = agg[v].value()
			resolved[v] = true
			pending--
			if p := up[v]; p >= 0 {
				agg[p].add(fun[v].apply(layers[v]))
				unresolved[p]--
			}
		}
		// Compress: splice unary-pending nodes with coin flips so no two
		// adjacent chain nodes splice in the same round.
		for v := 0; v < n; v++ {
			if resolved[v] || spliced[v] {
				continue
			}
			if p := up[v]; p >= 0 {
				cnt[p]++
				if cnt[p] == 1 {
					live[p] = int32(v)
				} else {
					live[p] = -1
				}
			}
		}
		coin := func(v int32) bool {
			x := rnd + uint64(v)*0xbf58476d1ce4e5b9 + uint64(round)*0x94d049bb133111eb
			x ^= x >> 31
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			return x&1 == 0
		}
		// Decide all splices from a snapshot before mutating anything:
		// deciding and mutating in one pass would let a node observe its
		// chain-child as already spliced and splice adjacent to it, which
		// orphans the child's delivery and stalls the contraction.
		for v := 0; v < n; v++ {
			elig[v] = !resolved[v] && !spliced[v] && unresolved[v] == 1 && live[v] >= 0 && up[v] >= 0
		}
		for v := 0; v < n; v++ {
			if !elig[v] || !coin(int32(v)) {
				continue
			}
			// Defer to a chain-child that also flipped heads, so no two
			// adjacent chain nodes splice in the same round.
			c := live[v]
			cChain := elig[c]
			if !cChain || !coin(c) {
				splice[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if !splice[v] {
				continue
			}
			w := int32(v)
			c := live[w]
			// Splice w: c now reports to up[w] through w's projection.
			events = append(events, spliceEvent{w: w, c: c, fBelow: fun[c], proj: agg[w].projection()})
			fun[c] = compose(compose(fun[w], agg[w].projection()), fun[c])
			up[c] = up[w]
			spliced[w] = true
			pending--
		}
		tr.AddPhaseRounds("treecontract", 1)
		tr.AddPhaseWork("treecontract", int64(n))
	}
	// Expansion: replay splice events in reverse. When the event for w
	// is processed, its child c has already been resolved (either during
	// contraction or by a later event processed earlier in this loop),
	// so layer[w] = proj(fBelow(layer[c])).
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		layers[e.w] = e.proj.apply(e.fBelow.apply(layers[e.c]))
	}
	tr.AddPhaseRounds("treecontract", 1)
	return layers
}
