// Package estc implements Exponential Start Time Clustering
// (Miller-Peng-Vladu-Xu, SPAA 2015), the low-diameter decomposition behind
// Lemma 2.3 of the paper:
//
//	With O(n) work and O(β log n) depth, Exponential Start Time
//	β-Clustering produces, w.h.p., clusters of diameter O(β log n) where
//	each edge crosses the clusters with probability at most 1/β.
//
// Every vertex u draws an exponential shift δ_u ~ Exp(1/β) (mean β) and
// becomes a potential cluster center that "starts growing" at time
// (max δ) - δ_u; vertex w joins the center minimizing start_c + d(c, w).
// Because edge lengths are 1 and start times are real, arrival times of a
// round fall in a unit interval and each round's winners are final, so the
// process is simulated exactly by a bucketed level-synchronous expansion
// (one bucket per unit of time), the parallel-BFS-like loop below.
//
// Observation 1 of the paper is the reason this clustering is the right
// one: with β = 2k, a fixed connected k-vertex subgraph keeps all its
// spanning tree edges inside one cluster with probability at least 1/2.
//
// Layered is the deterministic alternative: one cluster per connected
// component, the clustering behind Eppstein's BFS layering (JGAA 1999).
// Its cover keeps every connected occurrence, at the price of BFS depth
// ecc(center) instead of O(β log n).
package estc

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"planarsi/internal/bfs"
	"planarsi/internal/graph"
	"planarsi/internal/par"
	"planarsi/internal/wd"
)

// Clustering is a partition of the vertices into low-diameter clusters.
type Clustering struct {
	// Owner[v] is the dense cluster id of v.
	Owner []int32
	// Center[c] is the vertex that seeded cluster c.
	Center []int32
	// Rounds is the number of synchronous rounds the growth took; the
	// paper's depth bound for this phase is O(β log n).
	Rounds int
}

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Center) }

// CrossingEdges counts edges whose endpoints lie in different clusters.
func (c *Clustering) CrossingEdges(g *graph.Graph) int {
	count := 0
	for _, e := range g.Edges() {
		if c.Owner[e[0]] != c.Owner[e[1]] {
			count++
		}
	}
	return count
}

// candidate is one (vertex, center, arrival) claim attempt of a round.
type candidate struct {
	vertex  int32
	center  int32
	arrival float64
}

// better reports whether a should beat b (smaller arrival; ties broken by
// center id so the outcome is schedule-independent).
func better(a, b candidate) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.center < b.center
}

// Cluster runs Exponential Start Time β-Clustering on g.
//
// The shifts are capped at β·(2 ln n + 6), which changes nothing w.h.p.
// (the exponential tail beyond the cap has probability n^{-2}) and keeps
// the round count deterministic and O(β log n).
func Cluster(g *graph.Graph, beta float64, rng *rand.Rand, tr *wd.Tracker) *Clustering {
	n := g.N()
	if n == 0 {
		return &Clustering{Owner: nil, Center: nil}
	}
	if beta <= 0 {
		panic("estc: beta must be positive")
	}
	cap64 := beta * (2*math.Log(float64(n)+1) + 6)
	delta := make([]float64, n)
	deltaMax := 0.0
	for v := 0; v < n; v++ {
		d := rng.ExpFloat64() * beta
		if d > cap64 {
			d = cap64
		}
		delta[v] = d
		if d > deltaMax {
			deltaMax = d
		}
	}
	// start[v] = deltaMax - delta[v] in [0, deltaMax].
	// Bucket potential centers by floor(start).
	numBuckets := int(deltaMax) + 2
	buckets := make([][]int32, numBuckets)
	start := make([]float64, n)
	for v := 0; v < n; v++ {
		start[v] = deltaMax - delta[v]
		b := int(start[v])
		buckets[b] = append(buckets[b], int32(v))
	}

	owner := make([]int32, n)
	arrival := make([]float64, n)
	claimed := make([]bool, n)
	for v := range owner {
		owner[v] = -1
	}

	// best[v] indexes into the current round's candidate slice; -1 = none.
	best := make([]atomic.Int32, n)
	for v := range best {
		best[v].Store(-1)
	}

	frontier := make([]int32, 0, n)
	rounds := 0
	remaining := n
	for t := 0; remaining > 0; t++ {
		rounds++
		// Gather candidates: center activations of this bucket plus
		// propagations from vertices claimed last round.
		var cands []candidate
		if t < numBuckets {
			for _, v := range buckets[t] {
				if !claimed[v] {
					cands = append(cands, candidate{vertex: v, center: v, arrival: start[v]})
				}
			}
		}
		// Frontier edges, slotted by prefix sums for a parallel scan.
		if len(frontier) > 0 {
			deg := make([]int32, len(frontier))
			par.For(0, len(frontier), func(i int) {
				deg[i] = int32(g.Degree(frontier[i]))
			})
			total := par.ExclusivePrefixSum(deg)
			props := make([]candidate, total)
			par.For(0, len(frontier), func(i int) {
				v := frontier[i]
				base := deg[i]
				for j, w := range g.Neighbors(v) {
					c := candidate{vertex: -1}
					if !claimed[w] {
						c = candidate{vertex: w, center: owner[v], arrival: arrival[v] + 1}
					}
					props[base+int32(j)] = c
				}
			})
			props = par.Pack(props, func(i int) bool { return props[i].vertex >= 0 })
			cands = append(cands, props...)
		}
		if len(cands) == 0 {
			if t >= numBuckets {
				break // nothing can ever activate again
			}
			continue
		}
		// Resolve: atomic best-candidate per vertex.
		par.For(0, len(cands), func(i int) {
			v := cands[i].vertex
			for {
				cur := best[v].Load()
				if cur >= 0 && !better(cands[i], cands[cur]) {
					return
				}
				if best[v].CompareAndSwap(cur, int32(i)) {
					return
				}
			}
		})
		// Claim winners and build the next frontier.
		winners := par.Pack(cands, func(i int) bool {
			c := cands[i]
			return best[c.vertex].Load() == int32(i)
		})
		frontier = frontier[:0]
		for _, w := range winners {
			if !claimed[w.vertex] {
				claimed[w.vertex] = true
				owner[w.vertex] = w.center
				arrival[w.vertex] = w.arrival
				frontier = append(frontier, w.vertex)
				remaining--
			}
			best[w.vertex].Store(-1)
		}
		// Reset best slots touched by losing candidates too.
		par.For(0, len(cands), func(i int) {
			best[cands[i].vertex].Store(-1)
		})
		tr.AddPhaseWork("estc", int64(len(cands)))
		tr.AddPhaseRounds("estc", 1)
	}

	// Relabel owners densely.
	centerIndex := make(map[int32]int32)
	var centers []int32
	dense := make([]int32, n)
	for v := 0; v < n; v++ {
		c := owner[v]
		idx, ok := centerIndex[c]
		if !ok {
			idx = int32(len(centers))
			centerIndex[c] = idx
			centers = append(centers, c)
		}
		dense[v] = idx
	}
	return &Clustering{Owner: dense, Center: centers, Rounds: rounds}
}

// Layered returns one cluster per connected component of g, centered at
// the far end of one BFS sweep from the component's lowest-id vertex
// (the lowest-id vertex on the sweep's deepest level). It draws no
// randomness. A connected occurrence of diameter at most d spans at most
// d+1 BFS levels of its component, so the cover cut from this clustering
// holds every such occurrence in the window that starts at its lowest
// level. Rounds is the longest sweep's round count, and tr counts the
// sweeps as BFS work.
func Layered(g *graph.Graph, tr *wd.Tracker) *Clustering {
	n := g.N()
	if n == 0 {
		return &Clustering{}
	}
	owner, nc := graph.Components(g)
	center := make([]int32, nc)
	for c := range center {
		center[c] = -1
	}
	for v, c := range owner {
		if center[c] < 0 {
			center[c] = int32(v)
		}
	}
	// Components are disjoint, so the sweeps share one level array.
	dist := make([]int32, n)
	for v := range dist {
		dist[v] = -1
	}
	depth := make([]int32, nc)
	rounds := make([]int, nc)
	par.ForGrain(0, nc, 1, func(c int) {
		res := bfs.Levels(g, []int32{center[c]}, nil, dist, tr)
		depth[c], rounds[c] = int32(res.MaxLevel), res.Rounds
	})
	far := make([]bool, nc)
	for v, c := range owner {
		if !far[c] && dist[v] == depth[c] {
			center[c], far[c] = int32(v), true
		}
	}
	return &Clustering{Owner: owner, Center: center, Rounds: slices.Max(rounds)}
}
