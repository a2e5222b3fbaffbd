package graph

import (
	"math"
	"math/rand/v2"
)

// Generators for the graph families the experiments run on. Every planar
// generator returns an *embedded* graph: the generators maintain a
// straight-line planar drawing and derive the rotation system from it, so
// ValidateEmbedding (Euler's formula) holds by construction. The vertex
// connectivity of the named families is known exactly, which the Section 5
// experiments rely on:
//
//	Path            connectivity 1
//	Cycle, Grid     connectivity 2
//	Wheel, Apollonian networks, Tetrahedron, Cube, Dodecahedron:  3
//	Bipyramid (n>=4 equator), Octahedron:                          4
//	Icosahedron:                                                   5

// Path returns the path on n vertices (n >= 1), embedded on a line.
func Path(n int) *Graph {
	b := NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.BuildEmbedded(x, y)
}

// Cycle returns the cycle on n vertices (n >= 3), embedded on a circle.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	b := NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		x[i], y[i] = math.Cos(a), math.Sin(a)
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.BuildEmbedded(x, y)
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: Star needs n >= 2")
	}
	b := NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 1; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n-1)
		x[i], y[i] = math.Cos(a), math.Sin(a)
		b.AddEdge(0, int32(i))
	}
	return b.BuildEmbedded(x, y)
}

// Wheel returns the wheel: hub 0 joined to a cycle on vertices 1..n-1.
func Wheel(n int) *Graph {
	if n < 4 {
		panic("graph: Wheel needs n >= 4")
	}
	b := NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	rim := n - 1
	for i := 0; i < rim; i++ {
		a := 2 * math.Pi * float64(i) / float64(rim)
		x[i+1], y[i+1] = math.Cos(a), math.Sin(a)
		b.AddEdge(0, int32(i+1))
		b.AddEdge(int32(i+1), int32((i+1)%rim+1))
	}
	return b.BuildEmbedded(x, y)
}

// Grid returns the r x c grid graph, vertex (i,j) = i*c+j.
func Grid(r, c int) *Graph {
	if r < 1 || c < 1 {
		panic("graph: Grid needs positive dimensions")
	}
	n := r * c
	b := NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := int32(i*c + j)
			x[v], y[v] = float64(j), float64(-i)
			if j+1 < c {
				b.AddEdge(v, v+1)
			}
			if i+1 < r {
				b.AddEdge(v, v+int32(c))
			}
		}
	}
	return b.BuildEmbedded(x, y)
}

// Bipyramid returns the n-gonal bipyramid: an equatorial cycle on n
// vertices (ids 0..n-1) plus two poles (ids n and n+1) adjacent to every
// equatorial vertex. For n >= 4 it is a 4-connected planar triangulation
// (the octahedron is the 4-bipyramid on a square equator). The rotation
// system is built combinatorially: one pole drawn inside the equator
// circle, one outside.
func Bipyramid(n int) *Graph {
	if n < 3 {
		panic("graph: Bipyramid needs n >= 3")
	}
	b := NewBuilder(n + 2)
	inner := int32(n)
	outer := int32(n + 1)
	for i := 0; i < n; i++ {
		next := int32((i + 1) % n)
		prev := int32((i - 1 + n) % n)
		// CCW around equator vertex i (on a circle, inner pole at the
		// center, outer pole beyond the circle): next, inner, prev, outer.
		b.adj[i] = []int32{next, inner, prev, outer}
	}
	for i := 0; i < n; i++ {
		b.adj[inner] = append(b.adj[inner], int32(i))
	}
	b.adj[outer] = append(b.adj[outer], 0)
	for i := n - 1; i >= 1; i-- {
		b.adj[outer] = append(b.adj[outer], int32(i))
	}
	return b.BuildWithRotations()
}

// schlegel builds an embedded graph from 3D polyhedron coordinates by
// projecting from just outside the face whose outward direction is dir
// onto that face's plane (a Schlegel diagram, which is a straight-line
// planar drawing for convex polytopes).
func schlegel(coords [][3]float64, edges [][2]int32, dir [3]float64) *Graph {
	n := len(coords)
	// Normalize dir.
	norm := math.Sqrt(dir[0]*dir[0] + dir[1]*dir[1] + dir[2]*dir[2])
	d := [3]float64{dir[0] / norm, dir[1] / norm, dir[2] / norm}
	// Face plane height = max projection; the face consists of the
	// faceSize vertices achieving (close to) it.
	h := math.Inf(-1)
	proj := make([]float64, n)
	for i, c := range coords {
		proj[i] = c[0]*d[0] + c[1]*d[1] + c[2]*d[2]
		if proj[i] > h {
			h = proj[i]
		}
	}
	// Viewpoint slightly beyond the face plane along dir.
	vp := [3]float64{d[0] * h * 1.08, d[1] * h * 1.08, d[2] * h * 1.08}
	// Basis (e1, e2) of the face plane.
	var e1 [3]float64
	if math.Abs(d[0]) < 0.9 {
		e1 = cross3([3]float64{1, 0, 0}, d)
	} else {
		e1 = cross3([3]float64{0, 1, 0}, d)
	}
	e1 = norm3(e1)
	e2 := cross3(d, e1)
	x := make([]float64, n)
	y := make([]float64, n)
	for i, c := range coords {
		// Line vp + t (c - vp); intersect with plane <p, d> = h.
		dirv := [3]float64{c[0] - vp[0], c[1] - vp[1], c[2] - vp[2]}
		denom := dirv[0]*d[0] + dirv[1]*d[1] + dirv[2]*d[2]
		num := h - (vp[0]*d[0] + vp[1]*d[1] + vp[2]*d[2])
		t := num / denom
		p := [3]float64{vp[0] + t*dirv[0], vp[1] + t*dirv[1], vp[2] + t*dirv[2]}
		x[i] = p[0]*e1[0] + p[1]*e1[1] + p[2]*e1[2]
		y[i] = p[0]*e2[0] + p[1]*e2[1] + p[2]*e2[2]
	}
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.BuildEmbedded(x, y)
}

func cross3(a, b [3]float64) [3]float64 {
	return [3]float64{a[1]*b[2] - a[2]*b[1], a[2]*b[0] - a[0]*b[2], a[0]*b[1] - a[1]*b[0]}
}

func norm3(a [3]float64) [3]float64 {
	n := math.Sqrt(a[0]*a[0] + a[1]*a[1] + a[2]*a[2])
	return [3]float64{a[0] / n, a[1] / n, a[2] / n}
}

// edgesAtDistance returns the vertex pairs at squared distance d2 (within
// tolerance), used to derive polyhedron edge lists from coordinates.
func edgesAtDistance(coords [][3]float64, d2 float64) [][2]int32 {
	var out [][2]int32
	for i := 0; i < len(coords); i++ {
		for j := i + 1; j < len(coords); j++ {
			dx := coords[i][0] - coords[j][0]
			dy := coords[i][1] - coords[j][1]
			dz := coords[i][2] - coords[j][2]
			if math.Abs(dx*dx+dy*dy+dz*dz-d2) < 1e-9 {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}

// Tetrahedron returns K4 embedded (3-connected, 4 vertices).
func Tetrahedron() *Graph {
	coords := [][3]float64{{1, 1, 1}, {1, -1, -1}, {-1, 1, -1}, {-1, -1, 1}}
	edges := edgesAtDistance(coords, 8)
	return schlegel(coords, edges, [3]float64{-1, -1, -1})
}

// Cube returns the 3-cube graph embedded (3-connected, 8 vertices).
func Cube() *Graph {
	var coords [][3]float64
	for i := 0; i < 8; i++ {
		coords = append(coords, [3]float64{
			float64(2*(i&1) - 1), float64(2*((i>>1)&1) - 1), float64(2*((i>>2)&1) - 1),
		})
	}
	edges := edgesAtDistance(coords, 4)
	return schlegel(coords, edges, [3]float64{0, 0, 1})
}

// Octahedron returns the octahedron embedded (4-connected, 6 vertices).
func Octahedron() *Graph {
	coords := [][3]float64{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	edges := edgesAtDistance(coords, 2)
	return schlegel(coords, edges, [3]float64{1, 1, 1})
}

// Dodecahedron returns the dodecahedron embedded (3-connected, 20 vertices).
func Dodecahedron() *Graph {
	phi := (1 + math.Sqrt(5)) / 2
	var coords [][3]float64
	for i := 0; i < 8; i++ {
		coords = append(coords, [3]float64{
			float64(2*(i&1) - 1), float64(2*((i>>1)&1) - 1), float64(2*((i>>2)&1) - 1),
		})
	}
	for _, s1 := range []float64{-1, 1} {
		for _, s2 := range []float64{-1, 1} {
			coords = append(coords, [3]float64{0, s1 / phi, s2 * phi})
			coords = append(coords, [3]float64{s1 / phi, s2 * phi, 0})
			coords = append(coords, [3]float64{s1 * phi, 0, s2 / phi})
		}
	}
	// Edge length of this standard dodecahedron is 2/phi.
	l := 2 / phi
	edges := edgesAtDistance(coords, l*l)
	// Face direction: an icosahedron vertex direction (dual).
	return schlegel(coords, edges, [3]float64{0, 1, phi})
}

// Icosahedron returns the icosahedron embedded (5-connected, 12 vertices).
func Icosahedron() *Graph {
	phi := (1 + math.Sqrt(5)) / 2
	var coords [][3]float64
	for _, s1 := range []float64{-1, 1} {
		for _, s2 := range []float64{-1, 1} {
			coords = append(coords, [3]float64{0, s1, s2 * phi})
			coords = append(coords, [3]float64{s1, s2 * phi, 0})
			coords = append(coords, [3]float64{s1 * phi, 0, s2})
		}
	}
	edges := edgesAtDistance(coords, 4)
	// Face direction: a dodecahedron vertex direction (dual), e.g. (1,1,1).
	return schlegel(coords, edges, [3]float64{1, 1, 1})
}

// Apollonian returns a random Apollonian network (stacked planar
// triangulation) with n >= 3 vertices: starting from a triangle,
// repeatedly pick a random triangular face and insert a vertex at its
// centroid joined to its three corners. The result is a 3-connected planar
// triangulation with an exact straight-line drawing.
func Apollonian(n int, rng *rand.Rand) *Graph {
	if n < 3 {
		panic("graph: Apollonian needs n >= 3")
	}
	b := NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	x[0], y[0] = 0, 0
	x[1], y[1] = 1, 0
	x[2], y[2] = 0.5, math.Sqrt(3)/2
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	faces := [][3]int32{{0, 1, 2}}
	for v := int32(3); v < int32(n); v++ {
		fi := rng.IntN(len(faces))
		f := faces[fi]
		x[v] = (x[f[0]] + x[f[1]] + x[f[2]]) / 3
		y[v] = (y[f[0]] + y[f[1]] + y[f[2]]) / 3
		b.AddEdge(v, f[0])
		b.AddEdge(v, f[1])
		b.AddEdge(v, f[2])
		faces[fi] = [3]int32{f[0], f[1], v}
		faces = append(faces, [3]int32{f[1], f[2], v}, [3]int32{f[2], f[0], v})
	}
	return b.BuildEmbedded(x, y)
}

// RandomPlanar returns a connected random planar graph with n vertices:
// an Apollonian triangulation thinned by keeping a spanning tree plus each
// remaining edge independently with probability keep. The drawing (and so
// the embedding) remains valid for the subgraph.
func RandomPlanar(n int, keep float64, rng *rand.Rand) *Graph {
	tri := Apollonian(n, rng)
	inTree := make(map[int64]bool)
	for _, e := range SpanningTreeEdges(tri) {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		inTree[int64(u)<<32|int64(uint32(v))] = true
	}
	b := NewBuilder(n)
	for _, e := range tri.Edges() {
		u, v := e[0], e[1]
		if inTree[int64(u)<<32|int64(uint32(v))] || rng.Float64() < keep {
			b.AddEdge(u, v)
		}
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		x[v], y[v] = tri.Coords(v)
	}
	return b.BuildEmbedded(x, y)
}

// RandomTree returns a uniform random recursive tree on n vertices.
func RandomTree(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(rng.IntN(v)))
	}
	return b.Build()
}

// Caterpillar returns a caterpillar tree: a spine path with legs leaves
// attached to every spine vertex. Useful for long-chain decomposition
// trees in the Section 3.3 experiments.
func Caterpillar(spine, legs int) *Graph {
	n := spine * (1 + legs)
	b := NewBuilder(n)
	for i := 0; i < spine; i++ {
		if i+1 < spine {
			b.AddEdge(int32(i), int32(i+1))
		}
		for l := 0; l < legs; l++ {
			b.AddEdge(int32(i), int32(spine+i*legs+l))
		}
	}
	return b.Build()
}

// Complete returns K_n (planar only for n <= 4; used by small tests and
// the naive baseline).
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// DisjointUnion returns the disjoint union of the given graphs (no
// embedding). Vertex ids are offset in argument order.
func DisjointUnion(gs ...*Graph) *Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := NewBuilder(n)
	off := int32(0)
	for _, g := range gs {
		for _, e := range g.Edges() {
			b.AddEdge(e[0]+off, e[1]+off)
		}
		off += int32(g.N())
	}
	return b.Build()
}

// GridWithDiagonals returns the r x c grid with one diagonal added in each
// cell, a planar near-triangulation used as a denser test family.
func GridWithDiagonals(r, c int) *Graph {
	if r < 2 || c < 2 {
		panic("graph: GridWithDiagonals needs r, c >= 2")
	}
	n := r * c
	b := NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := int32(i*c + j)
			x[v], y[v] = float64(j), float64(-i)
			if j+1 < c {
				b.AddEdge(v, v+1)
			}
			if i+1 < r {
				b.AddEdge(v, v+int32(c))
			}
			if i+1 < r && j+1 < c {
				b.AddEdge(v, v+int32(c)+1)
			}
		}
	}
	return b.BuildEmbedded(x, y)
}

// TorusGrid returns the r x c grid with wraparound edges in both
// directions: a 4-regular graph of genus 1 (not planar for r, c >= 3,
// but of locally bounded treewidth — the Section 4.3 family the paper's
// apex-minor-free extension covers). No embedding is attached.
func TorusGrid(r, c int) *Graph {
	if r < 3 || c < 3 {
		panic("graph: TorusGrid needs r, c >= 3")
	}
	b := NewBuilder(r * c)
	id := func(i, j int) int32 { return int32(((i+r)%r)*c + (j+c)%c) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			b.AddEdge(id(i, j), id(i, j+1))
			b.AddEdge(id(i, j), id(i+1, j))
		}
	}
	return b.Build()
}

// GridWithHandles returns the r x c grid plus `handles` extra edges
// between random distant vertices: each handle raises the genus by at
// most one, giving a bounded-genus, locally-bounded-treewidth family for
// the Section 4.3 experiments. No embedding is attached.
func GridWithHandles(r, c, handles int, rng *rand.Rand) *Graph {
	base := Grid(r, c)
	b := NewBuilder(base.N())
	for _, e := range base.Edges() {
		b.AddEdge(e[0], e[1])
	}
	for h := 0; h < handles; h++ {
		for tries := 0; tries < 100; tries++ {
			u := rng.Int32N(int32(base.N()))
			v := rng.Int32N(int32(base.N()))
			if u != v && !b.HasEdge(u, v) {
				b.AddEdge(u, v)
				break
			}
		}
	}
	return b.Build()
}
