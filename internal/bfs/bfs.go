// Package bfs implements the level-synchronous parallel breadth-first
// search the paper uses inside low-diameter clusters (Section 2.1, "naive
// parallel BFS"). Each level is expanded with a parallel edge scan:
// frontier degrees are prefix-summed, every frontier edge claims its head
// with an atomic compare-and-swap, and the next frontier is packed out of
// the claimed vertices. Work is O(n + m) and depth is O(D log n) for
// diameter D, which is exactly why the paper only runs it after the
// clustering has bounded D to O(k log n).
package bfs

import (
	"sync/atomic"

	"planarsi/internal/graph"
	"planarsi/internal/par"
	"planarsi/internal/wd"
)

// Result holds the output of a parallel BFS.
type Result struct {
	// Dist is the level of each vertex the search reached. The rest
	// keep what dist held on entry: -1 in a fresh array.
	Dist []int32
	// Rounds is the number of synchronous frontier expansions, the
	// empirical depth of the search (up to the log-factor from packing).
	Rounds int
	// MaxLevel is the largest finite level.
	MaxLevel int
}

// Levels runs a parallel BFS from the given roots. If owner is non-nil,
// the search stays inside the roots' part of that partition: the
// vertices v with owner[v] equal to the roots' owner (every root must
// share it). Edges leaving the part are still scanned and counted, just
// not followed. dist receives the levels; nil allocates a fresh array.
// A caller-supplied dist must hold -1 on every vertex the search may
// reach, and searches of distinct parts may share one dist concurrently,
// since each writes only its own part's entries. tr accumulates work
// and depth.
func Levels(g *graph.Graph, roots []int32, owner []int32, dist []int32, tr *wd.Tracker) *Result {
	if dist == nil {
		dist = make([]int32, g.N())
		for i := range dist {
			dist[i] = -1
		}
	}
	part := int32(-1)
	if owner != nil && len(roots) > 0 {
		part = owner[roots[0]]
	}
	frontier := make([]int32, 0, len(roots))
	for _, r := range roots {
		if owner != nil && owner[r] != part {
			panic("bfs: roots in different parts")
		}
		if atomic.CompareAndSwapInt32(&dist[r], -1, 0) {
			frontier = append(frontier, r)
		}
	}
	level := int32(0)
	rounds, maxLevel := 0, 0
	for len(frontier) > 0 {
		rounds++
		level++
		// Prefix-sum frontier degrees to give every frontier edge a slot.
		deg := make([]int32, len(frontier))
		par.For(0, len(frontier), func(i int) {
			deg[i] = int32(g.Degree(frontier[i]))
		})
		total := par.ExclusivePrefixSum(deg)
		out := make([]int32, total)
		par.For(0, len(frontier), func(i int) {
			v := frontier[i]
			base := deg[i]
			for j, w := range g.Neighbors(v) {
				slot := base + int32(j)
				out[slot] = -1
				if owner != nil && owner[w] != part {
					continue
				}
				if atomic.CompareAndSwapInt32(&dist[w], -1, level) {
					out[slot] = w
				}
			}
		})
		frontier = par.Pack(out, func(i int) bool { return out[i] >= 0 })
		if len(frontier) > 0 {
			maxLevel = int(level)
		}
		tr.AddPhaseWork("bfs", int64(total)+int64(len(frontier)))
		tr.AddPhaseRounds("bfs", 1)
	}
	return &Result{Dist: dist, Rounds: rounds, MaxLevel: maxLevel}
}
