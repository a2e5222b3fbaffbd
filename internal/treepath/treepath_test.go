package treepath

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"planarsi/internal/wd"
)

// randomTreeParents builds a random rooted tree on n nodes (parent[0]=-1).
func randomTreeParents(n int, rng *rand.Rand) []int32 {
	parent := make([]int32, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = int32(rng.IntN(v))
	}
	return parent
}

// pathParents builds a path 0 <- 1 <- ... <- n-1 rooted at 0.
func pathParents(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = int32(v - 1)
	}
	return parent
}

// completeBinaryParents builds a complete binary tree.
func completeBinaryParents(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = int32((v - 1) / 2)
	}
	return parent
}

func TestLayersSequentialPath(t *testing.T) {
	layers := LayersSequential(pathParents(10))
	for v, l := range layers {
		if l != 0 {
			t.Fatalf("path node %d layer=%d want 0", v, l)
		}
	}
}

func TestLayersSequentialCompleteBinary(t *testing.T) {
	// A complete binary tree of height h has root layer h: every internal
	// node has two children of equal layer.
	n := 1<<6 - 1
	layers := LayersSequential(completeBinaryParents(n))
	if layers[0] != 5 {
		t.Fatalf("root layer=%d want 5", layers[0])
	}
	for v := n / 2; v < n; v++ {
		if layers[v] != 0 {
			t.Fatalf("leaf %d layer=%d", v, layers[v])
		}
	}
}

func TestLayerCountLogBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(3000)
		parent := randomTreeParents(n, rng)
		layers := LayersSequential(parent)
		maxL := int32(0)
		for _, l := range layers {
			if l > maxL {
				maxL = l
			}
		}
		bound := int32(math.Log2(float64(n))) + 1
		if maxL+1 > bound {
			t.Fatalf("n=%d: %d layers exceed log bound %d", n, maxL+1, bound)
		}
	}
}

func TestLayersParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	shapes := [][]int32{
		pathParents(1),
		pathParents(2),
		pathParents(50),
		completeBinaryParents(63),
		randomTreeParents(500, rng),
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, randomTreeParents(2+rng.IntN(300), rng))
	}
	for i, parent := range shapes {
		want := LayersSequential(parent)
		got := LayersParallel(parent, nil)
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("shape %d: node %d: parallel=%d sequential=%d", i, v, got[v], want[v])
			}
		}
	}
}

func TestLayersParallelRoundsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	tr := wd.NewTracker()
	n := 20000
	parent := randomTreeParents(n, rng)
	LayersParallel(parent, tr)
	rounds := tr.PhaseRounds("treecontract")
	// Expect O(log n); allow a generous constant.
	if rounds > 30*int64(math.Log2(float64(n))) {
		t.Fatalf("tree contraction took %d rounds for n=%d", rounds, n)
	}
}

func TestLayersParallelForest(t *testing.T) {
	// Forest: two roots.
	parent := []int32{-1, 0, 0, -1, 3, 3, 4}
	want := LayersSequential(parent)
	got := LayersParallel(parent, nil)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("forest node %d: parallel=%d sequential=%d", v, got[v], want[v])
		}
	}
}

func TestFunctionFamilyClosure(t *testing.T) {
	// compose(a, b).apply(x) must equal a.apply(b.apply(x)) for all small
	// combinations: verifies the Appendix A composition table.
	var fns []uFn
	fns = append(fns, identityFn)
	for i := int32(0); i < 5; i++ {
		fns = append(fns, fNeq(i), gEq(i))
	}
	// Include two-deep composites so closure is checked beyond the base
	// generators (this is where the paper's printed table fails).
	base := append([]uFn(nil), fns...)
	for _, a := range base {
		for _, b := range base {
			fns = append(fns, compose(a, b))
		}
	}
	for _, a := range fns {
		for _, b := range fns {
			c := compose(a, b)
			for x := int32(0); x < 8; x++ {
				want := a.apply(b.apply(x))
				got := c.apply(x)
				if want != got {
					t.Fatalf("compose(%v,%v)(%d) = %d want %d", a, b, x, got, want)
				}
			}
		}
	}
}

// randomForestParents builds a random forest on n nodes with about
// roots trees: every node after the first picks an earlier parent, or
// becomes a root with probability roots/n.
func randomForestParents(n, roots int, rng *rand.Rand) []int32 {
	parent := randomTreeParents(n, rng)
	for v := 1; v < n; v++ {
		if rng.IntN(n) < roots {
			parent[v] = -1
		}
	}
	return parent
}

func TestDecomposeProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	var shapes [][]int32
	for trial := 0; trial < 30; trial++ {
		shapes = append(shapes, randomTreeParents(2+rng.IntN(500), rng))
	}
	// Forests with many roots: the shape of the no-new-match forest the
	// path-DAG engine's shortcut construction decomposes.
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(500)
		shapes = append(shapes, randomForestParents(n, 1+rng.IntN(n), rng))
	}
	// Long chains give long paths.
	shapes = append(shapes, chainParent(300), broomParent(200, 50),
		[]int32{-1, -1, -1}, []int32{-1, 0, 0, -1, 3, 3, 4})
	for i, parent := range shapes {
		n := len(parent)
		layers := LayersSequential(parent)
		ps := Decompose(parent, layers)
		// Every node in exactly one path.
		pathOf := make([]int, n)
		seen := make([]int, n)
		prevBottom := int32(-1)
		for p := 0; p < ps.Len(); p++ {
			path := ps.Path(p)
			if len(path) == 0 {
				t.Fatalf("shape %d: empty path", i)
			}
			for _, v := range path {
				seen[v]++
				pathOf[v] = p
				if layers[v] != ps.Layer(p) {
					t.Fatalf("shape %d: path mixes layers", i)
				}
			}
			// Consecutive nodes are parent-linked bottom-up.
			for j := 0; j+1 < len(path); j++ {
				if parent[path[j]] != path[j+1] {
					t.Fatalf("shape %d: path not parent-linked", i)
				}
			}
			// Paths come in the order of their bottom nodes.
			if path[0] <= prevBottom {
				t.Fatalf("shape %d: paths out of bottom-node order", i)
			}
			prevBottom = path[0]
		}
		for v, s := range seen {
			if s != 1 {
				t.Fatalf("shape %d: node %d in %d paths", i, v, s)
			}
		}
		// Lemma 3.2 schedule: a child on its parent's path shares the
		// layer, and every other child sits in a strictly lower layer, so
		// a path only waits on paths of lower layers.
		for v := 0; v < n; v++ {
			p := parent[v]
			if p < 0 {
				continue
			}
			if pathOf[v] == pathOf[p] {
				if layers[v] != layers[p] {
					t.Fatalf("shape %d: path edge %d->%d crosses layers", i, v, p)
				}
			} else if layers[v] >= layers[p] {
				t.Fatalf("shape %d: off-path child %d (layer %d) not below parent %d (layer %d)",
					i, v, layers[v], p, layers[p])
			}
		}
	}
}

func TestPathsByLayerSchedule(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	parent := randomTreeParents(300, rng)
	layers := LayersSequential(parent)
	ps := Decompose(parent, layers)
	byLayer := ps.ByLayer()
	count := 0
	for l, paths := range byLayer {
		for _, p := range paths {
			if ps.Layer(int(p)) != int32(l) {
				t.Fatal("path in wrong layer bucket")
			}
			count++
		}
	}
	if count != ps.Len() {
		t.Fatal("ByLayer lost paths")
	}
	if want := int(layers[0]) + 1; len(byLayer) != want {
		t.Fatalf("ByLayer has %d layers, want %d", len(byLayer), want)
	}
}

// Regression: the randomized compress phase once spliced two adjacent
// chain nodes in one round (the second observing the first's mutation),
// orphaning a delivery and hanging the contraction. Stress the parallel
// layers on shapes that maximize chains: long paths, brooms, and many
// random trees.
func TestLayersParallelStress(t *testing.T) {
	shapes := [][]int32{
		chainParent(500),
		broomParent(200, 50),
	}
	rng := rand.New(rand.NewPCG(71, 72))
	for trial := 0; trial < 60; trial++ {
		shapes = append(shapes, randomParent(5+rng.IntN(300), rng))
	}
	for i, parent := range shapes {
		done := make(chan []int32, 1)
		go func() { done <- LayersParallel(parent, nil) }()
		select {
		case got := <-done:
			want := LayersSequential(parent)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("shape %d: layer mismatch at %d: %d vs %d", i, v, got[v], want[v])
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("shape %d: contraction hung", i)
		}
	}
}

// chainParent builds a path rooted at 0.
func chainParent(n int) []int32 {
	parent := make([]int32, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = int32(v - 1)
	}
	return parent
}

// broomParent builds a chain with a fan of leaves at the end.
func broomParent(chain, leaves int) []int32 {
	parent := chainParent(chain + leaves)
	for l := 0; l < leaves; l++ {
		parent[chain+l] = int32(chain - 1)
	}
	return parent
}

func randomParent(n int, rng *rand.Rand) []int32 {
	parent := make([]int32, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = int32(rng.IntN(v))
	}
	return parent
}
