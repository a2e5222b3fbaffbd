package graph

// Components labels the connected components of g sequentially (BFS) and
// returns the label array and the number of components.
func Components(g *Graph) ([]int32, int) { return ComponentsWithout(g, nil) }

// ComponentsWithout labels the connected components of g minus the
// vertices marked in drop, which is nil (drop none) or holds one entry
// per vertex, without building the induced subgraph. Dropped vertices
// get -1, and the others are numbered in order of their smallest
// vertex, exactly as Components numbers the subgraph Induce(g, kept)
// for the kept vertices in increasing order.
func ComponentsWithout(g *Graph, drop []bool) ([]int32, int) {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	// A dropped vertex is marked visited up front, so no search starts
	// at it or enters it; -2 is reset to -1 once every label is out.
	for v, d := range drop {
		if d {
			comp[v] = -2
		}
	}
	var queue []int32
	count := 0
	for s := int32(0); s < int32(n); s++ {
		if comp[s] != -1 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if comp[w] == -1 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	for v, d := range drop {
		if d {
			comp[v] = -1
		}
	}
	return comp, count
}

// IsConnected reports whether g is connected (the empty graph counts as
// connected).
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	_, c := Components(g)
	return c == 1
}

// BFSDist returns the distance from src to every vertex (-1 when
// unreachable), computed sequentially.
func BFSDist(g *Graph, src int32) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite distance from src.
func Eccentricity(g *Graph, src int32) int {
	dist := BFSDist(g, src)
	ecc := 0
	for _, d := range dist {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter computes the exact diameter by running a BFS from every vertex.
// Quadratic; intended for pattern graphs, which are small. Disconnected
// graphs return the largest component-internal distance.
func Diameter(g *Graph) int {
	diam := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if e := Eccentricity(g, v); e > diam {
			diam = e
		}
	}
	return diam
}

// Induce returns the subgraph induced by verts, together with the mapping
// from local ids to the original ids (orig[local] = original id). The
// relative order of each adjacency list is preserved, so induced subgraphs
// of embedded graphs keep a valid rotation system.
func Induce(g *Graph, verts []int32) (*Graph, []int32) {
	local := make(map[int32]int32, len(verts))
	for i, v := range verts {
		local[v] = int32(i)
	}
	b := NewBuilder(len(verts))
	for i, v := range verts {
		for _, w := range g.Neighbors(v) {
			if j, ok := local[w]; ok {
				// Append directly to keep rotation order; each edge is
				// seen from both endpoints, so both direction entries
				// get added exactly once.
				b.adj[i] = append(b.adj[i], j)
			}
		}
	}
	orig := make([]int32, len(verts))
	copy(orig, verts)
	sub := b.build(g.embedded, nil, nil)
	return sub, orig
}

// ContractPartition contracts each class of the given partition to a
// single vertex and returns the resulting minor. class[v] must be a dense
// id in [0, numClasses). Parallel edges are deduplicated and self-loops
// dropped, so the result is again simple. The minor does not carry an
// embedding (contraction can invalidate rotations).
func ContractPartition(g *Graph, class []int32, numClasses int) *Graph {
	b := NewBuilder(numClasses)
	seen := make(map[int64]struct{})
	for u := int32(0); u < int32(g.N()); u++ {
		cu := class[u]
		for _, v := range g.Neighbors(u) {
			cv := class[v]
			if cu >= cv { // handle each unordered class pair once, skip loops
				continue
			}
			key := int64(cu)<<32 | int64(uint32(cv))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			b.AddEdge(cu, cv)
		}
	}
	return b.Build()
}

// ArticulationPoints returns a boolean mask of the articulation (cut)
// vertices of g, via an iterative Tarjan lowpoint DFS.
func ArticulationPoints(g *Graph) []bool {
	n := g.N()
	isArt := make([]bool, n)
	disc := make([]int32, n)
	low := make([]int32, n)
	parent := make([]int32, n)
	childCount := make([]int32, n)
	iter := make([]int32, n) // next adjacency index to visit per vertex
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := int32(0)
	var stack []int32
	for s := int32(0); s < int32(n); s++ {
		if disc[s] >= 0 {
			continue
		}
		disc[s] = timer
		low[s] = timer
		timer++
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			nbrs := g.Neighbors(v)
			if int(iter[v]) < len(nbrs) {
				w := nbrs[iter[v]]
				iter[v]++
				if disc[w] < 0 {
					parent[w] = v
					childCount[v]++
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, w)
				} else if w != parent[v] {
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
			} else {
				stack = stack[:len(stack)-1]
				p := parent[v]
				if p >= 0 {
					if low[v] < low[p] {
						low[p] = low[v]
					}
					if p != s && low[v] >= disc[p] {
						isArt[p] = true
					}
				}
			}
		}
		if childCount[s] >= 2 {
			isArt[s] = true
		}
	}
	return isArt
}

// SpanningTreeEdges returns the edges of a BFS spanning forest of g.
func SpanningTreeEdges(g *Graph) [][2]int32 {
	n := g.N()
	visited := make([]bool, n)
	var out [][2]int32
	var queue []int32
	for s := int32(0); s < int32(n); s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					out = append(out, [2]int32{v, w})
					queue = append(queue, w)
				}
			}
		}
	}
	return out
}
