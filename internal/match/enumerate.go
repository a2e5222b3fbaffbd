package match

import (
	"math/bits"

	"planarsi/internal/treedecomp"
)

// Assignment maps pattern vertices to target vertices (length k).
type Assignment []int32

// key renders an assignment as a comparable string for deduplication (the
// paper removes duplicate occurrences "by hashing").
func (a Assignment) key() string {
	b := make([]byte, 0, len(a)*4)
	for _, v := range a {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// Enumerate reconstructs occurrences top-down from the valid state sets
// (Section 4.2.1): starting from every accepting root state it walks the
// decomposition downwards, inverting each transition; introduce-map edges
// contribute one pattern-vertex assignment each (the paper's "only k edges
// introduce a new vertex"). At most limit occurrences are returned
// (limit <= 0 means no bound). In plain mode each subgraph isomorphism is
// produced exactly once because, for a fixed assignment, the DP
// trajectory through the states is unique. In separating mode the
// trajectory also fixes the inside/outside labels of the unmapped
// vertices, so an occurrence is produced once per valid labelling.
//
// Separating sets store one representative per mirror pair, so the walk
// tests membership through pairRep and tries both members of each stored
// state at joins. The root bag is empty, so an accepting root state (IX
// and OX, no labels) is its own mirror and needs no second try.
func (r *Result) Enumerate(limit int) []Assignment {
	if r.p.DecideOnly {
		panic("match: Enumerate needs the full per-node state sets; the run was DecideOnly")
	}
	pi := &r.pi
	nd := r.p.ND
	want := pi.allMatched()
	var out []Assignment
	budget := limit
	for _, s := range r.Sets[nd.Root].States() {
		if s.C != want || (r.p.Separating && !(s.IX && s.OX)) {
			continue
		}
		partials := r.enumerateAt(nd.Root, s, budget)
		out = append(out, partials...)
		if limit > 0 {
			budget = limit - len(out)
			if budget <= 0 {
				break
			}
		}
	}
	return out
}

// enumerateAt returns every assignment realizable by the subtree under
// node `i` ending in state s. Assignments are partial (unassigned = -1)
// and cover exactly the pattern vertices in M(s) ∪ C(s).
func (r *Result) enumerateAt(i int32, s State, budget int) []Assignment {
	pi := &r.pi
	p := r.p
	nd := p.ND
	blank := func() Assignment {
		a := make(Assignment, pi.k)
		for u := range a {
			a[u] = -1
		}
		return a
	}
	switch nd.Kind[i] {
	case treedecomp.Leaf:
		return []Assignment{blank()}

	case treedecomp.Introduce:
		v := nd.Vertex[i]
		slot := nd.Slot(i, v)
		child := nd.Left[i]
		var out []Assignment
		// Case (b)⁻¹: some pattern vertex u maps to v's slot; the child
		// state is s without that mapping.
		for u := 0; u < pi.k; u++ {
			if s.Phi[u] == int8(slot) {
				cs := s
				cs.Phi[u] = -1
				cs = unmapIntroduce(cs, slot)
				if r.holds(child, cs) {
					for _, a := range r.enumerateAt(child, cs, budget) {
						a[u] = v
						out = append(out, a)
						if budget > 0 && len(out) >= budget {
							return out
						}
					}
				}
			}
		}
		// Case (a)⁻¹: v unmatched (possibly labeled); drop its slot.
		if s.OccupiedSlots(pi.k)&(1<<uint(slot)) == 0 {
			cs := s
			if p.Separating {
				// The forward rule is parent.IX = child.IX || bumpIn where
				// bumpIn means v ∈ S labeled inside at this introduce (and
				// symmetrically for OX). Only invert flag pairs consistent
				// with it: allowing child.IX=false without the bump would
				// splice the φ of one lineage onto the separation flags of
				// another and fabricate non-separating witnesses.
				vInS := p.S != nil && p.S[v]
				bumpIn := vInS && s.In&(1<<uint(slot)) != 0
				bumpOut := vInS && s.Out&(1<<uint(slot)) != 0
				cs.In &^= 1 << uint(slot)
				cs.Out &^= 1 << uint(slot)
				for _, ix := range childFlagChoices(s.IX, bumpIn) {
					for _, ox := range childFlagChoices(s.OX, bumpOut) {
						c2 := cs
						c2.IX, c2.OX = ix, ox
						c2 = unmapIntroduce(c2, slot)
						if r.holds(child, c2) {
							out = append(out, r.enumerateAt(child, c2, budgetLeft(budget, len(out)))...)
							if budget > 0 && len(out) >= budget {
								return out
							}
						}
					}
				}
			} else {
				cs = unmapIntroduce(cs, slot)
				if r.holds(child, cs) {
					out = append(out, r.enumerateAt(child, cs, budgetLeft(budget, len(out)))...)
				}
			}
		}
		return out

	case treedecomp.Forget:
		v := nd.Vertex[i]
		child := nd.Left[i]
		slot := nd.Slot(child, v)
		var out []Assignment
		// Case: some u ∈ C(s) was mapped to v in the child.
		for c := s.C; c != 0; c &= c - 1 {
			u := bits.TrailingZeros16(c)
			cs := remapIntroduce(s, slot) // reinsert the slot
			cs.C &^= 1 << uint(u)
			cs.Phi[u] = int8(slot)
			if r.holds(child, cs) {
				for _, a := range r.enumerateAt(child, cs, budgetLeft(budget, len(out))) {
					out = append(out, a)
					if budget > 0 && len(out) >= budget {
						return out
					}
				}
			}
		}
		// Case: v was unmatched in the child (labels either way).
		base := remapIntroduce(s, slot)
		if p.Separating {
			for _, side := range []uint32{1, 2} {
				cs := base
				if side == 1 {
					cs.In |= 1 << uint(slot)
				} else {
					cs.Out |= 1 << uint(slot)
				}
				if r.holds(child, cs) {
					out = append(out, r.enumerateAt(child, cs, budgetLeft(budget, len(out)))...)
					if budget > 0 && len(out) >= budget {
						return out
					}
				}
			}
		} else {
			if r.holds(child, base) {
				out = append(out, r.enumerateAt(child, base, budgetLeft(budget, len(out)))...)
			}
		}
		return out

	case treedecomp.Join:
		l, rgt := nd.Left[i], nd.Right[i]
		var out []Assignment
		// Enumerate left states with C_l ⊆ C(s) and matching signature;
		// the right state is then forced up to its C and flags. A stored
		// separating state stands for itself and its mirror.
		for _, stored := range r.Sets[l].States() {
			// Both members of a mirror pair share Phi and C.
			if stored.Phi != s.Phi || stored.C&^s.C != 0 {
				continue
			}
			pair := [2]State{stored, mirror(stored)}
			members := pair[:1]
			if p.Separating && pair[1] != stored {
				members = pair[:]
			}
			for _, ls := range members {
				if ls.In != s.In || ls.Out != s.Out {
					continue
				}
				crNeeded := s.C &^ ls.C
				for _, ixr := range flagChoices(s.IX) {
					for _, oxr := range flagChoices(s.OX) {
						rs := ls
						rs.C = crNeeded
						rs.IX, rs.OX = ixr, oxr
						if !r.holds(rgt, rs) {
							continue
						}
						comb, ok := combineJoin(pi, ls, rs)
						if !ok || comb != s {
							continue
						}
						la := r.enumerateAt(l, ls, budgetLeft(budget, len(out)))
						if len(la) == 0 {
							continue
						}
						ra := r.enumerateAt(rgt, rs, 0)
						for _, a1 := range la {
							for _, a2 := range ra {
								merged := make(Assignment, pi.k)
								copy(merged, a1)
								for u, tv := range a2 {
									if tv >= 0 {
										merged[u] = tv
									}
								}
								out = append(out, merged)
								if budget > 0 && len(out) >= budget {
									return out
								}
							}
						}
					}
				}
			}
		}
		return out
	}
	return nil
}

// holds reports whether s is a valid state of node i. Separating sets
// store one representative per mirror pair, so the test is on pairRep(s).
func (r *Result) holds(i int32, s State) bool {
	if r.p.Separating {
		s = pairRep(s)
	}
	return r.Sets[i].Contains(s)
}

// unmapIntroduce undoes remapIntroduce: removes the (unoccupied,
// unlabeled) slot and shifts higher slots down.
func unmapIntroduce(s State, slot int) State {
	return remapForget(s, slot)
}

// flagChoices lists the child-flag values consistent with a parent flag:
// a true parent flag may come from either child value, a false one only
// from false. Used at joins, where the comb != s check independently
// validates the pairing.
func flagChoices(parent bool) []bool {
	if parent {
		return []bool{false, true}
	}
	return []bool{false}
}

// childFlagChoices lists the child-flag values consistent with the
// forward rule parent = child || bump at an introduce node:
//
//	parent=false: impossible when bump holds; otherwise child=false.
//	parent=true:  child=true always works; child=false only with bump.
func childFlagChoices(parent, bump bool) []bool {
	if !parent {
		if bump {
			return nil
		}
		return []bool{false}
	}
	if bump {
		return []bool{false, true}
	}
	return []bool{true}
}

func budgetLeft(budget, used int) int {
	if budget <= 0 {
		return 0
	}
	left := budget - used
	if left < 1 {
		return 1
	}
	return left
}
