package estc

import (
	"math"
	"math/rand/v2"
	"testing"

	"planarsi/internal/bfs"
	"planarsi/internal/graph"
)

func TestClusterIsPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := graph.RandomPlanar(300, 0.5, rng)
	c := Cluster(g, 4, rng, nil)
	if len(c.Owner) != g.N() {
		t.Fatal("owner array wrong size")
	}
	for v, o := range c.Owner {
		if o < 0 || int(o) >= c.NumClusters() {
			t.Fatalf("vertex %d has invalid owner %d", v, o)
		}
	}
	// Every center owns itself.
	for i, ctr := range c.Center {
		if c.Owner[ctr] != int32(i) {
			t.Fatalf("center %d not in its own cluster", ctr)
		}
	}
}

// Clusters must be connected: each vertex joined via a neighbor in the
// same cluster (or is the center).
func TestClustersConnected(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomPlanar(200, rng.Float64(), rng)
		c := Cluster(g, 3, rng, nil)
		for cl := 0; cl < c.NumClusters(); cl++ {
			var members []int32
			for v := int32(0); v < int32(g.N()); v++ {
				if c.Owner[v] == int32(cl) {
					members = append(members, v)
				}
			}
			res := bfs.Levels(g, []int32{c.Center[cl]}, c.Owner, nil, nil)
			for _, v := range members {
				if res.Dist[v] < 0 {
					t.Fatalf("trial %d: cluster %d disconnected at vertex %d", trial, cl, v)
				}
			}
		}
	}
}

// Lemma 2.3 shape check: each edge crosses with probability about 1/beta.
// We test the empirical crossing fraction stays below 2/beta over many
// runs (the union-bound constant in the paper's proof allows slack).
func TestCrossingProbabilityBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	g := graph.Grid(30, 30)
	for _, beta := range []float64{4, 8, 16} {
		crossing := 0
		totalEdges := 0
		for trial := 0; trial < 30; trial++ {
			c := Cluster(g, beta, rng, nil)
			crossing += c.CrossingEdges(g)
			totalEdges += g.M()
		}
		frac := float64(crossing) / float64(totalEdges)
		if frac > 2/beta {
			t.Errorf("beta=%v: crossing fraction %.4f exceeds 2/beta=%.4f", beta, frac, 2/beta)
		}
		if frac == 0 {
			t.Errorf("beta=%v: suspiciously zero crossing fraction", beta)
		}
	}
}

// Lemma 2.3 diameter check: cluster radius (distance from center) is
// O(beta log n); the cap in the implementation makes the worst case
// beta(2 ln n + 6) + O(1).
func TestClusterDiameterBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	g := graph.Grid(40, 40)
	beta := 6.0
	bound := int(beta*(2*math.Log(float64(g.N())+1)+6)) + 2
	for trial := 0; trial < 5; trial++ {
		c := Cluster(g, beta, rng, nil)
		for cl := 0; cl < c.NumClusters(); cl++ {
			res := bfs.Levels(g, []int32{c.Center[cl]}, c.Owner, nil, nil)
			if res.MaxLevel > bound {
				t.Fatalf("cluster %d radius %d exceeds bound %d", cl, res.MaxLevel, bound)
			}
		}
		if c.Rounds > 2*bound {
			t.Fatalf("rounds %d exceed 2x radius bound %d", c.Rounds, bound)
		}
	}
}

// Observation 1: with beta = 2k, a fixed connected k-vertex subgraph stays
// inside one cluster with probability at least 1/2. We plant a k-cycle in
// a grid-like graph and measure the survival frequency.
func TestObservation1Survival(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	// Grid with a known 8-cycle: vertices of a 3x3 block border.
	g := graph.Grid(20, 20)
	k := 8
	cyc := []int32{0, 1, 2, 22, 42, 41, 40, 20} // border of the top-left 3x3 block
	survived := 0
	trials := 200
	for trial := 0; trial < trials; trial++ {
		c := Cluster(g, float64(2*k), rng, nil)
		same := true
		for _, v := range cyc[1:] {
			if c.Owner[v] != c.Owner[cyc[0]] {
				same = false
				break
			}
		}
		if same {
			survived++
		}
	}
	frac := float64(survived) / float64(trials)
	if frac < 0.5 {
		t.Errorf("survival fraction %.3f below the 1/2 of Observation 1", frac)
	}
}

func TestSingletonAndSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	g := graph.Path(1)
	c := Cluster(g, 4, rng, nil)
	if c.NumClusters() != 1 || c.Owner[0] != 0 {
		t.Fatal("single vertex should form one cluster")
	}
	g2 := graph.DisjointUnion(graph.Path(3), graph.Path(2))
	c2 := Cluster(g2, 4, rng, nil)
	// Separate components can never share a cluster.
	for v := 0; v < 3; v++ {
		for w := 3; w < 5; w++ {
			if c2.Owner[v] == c2.Owner[w] {
				t.Fatal("clusters bridged disconnected components")
			}
		}
	}
}

// Determinism: the same seed yields the same clustering.
func TestClusterDeterministic(t *testing.T) {
	g := graph.Grid(15, 15)
	a := Cluster(g, 5, rand.New(rand.NewPCG(42, 42)), nil)
	b := Cluster(g, 5, rand.New(rand.NewPCG(42, 42)), nil)
	for v := range a.Owner {
		if a.Owner[v] != b.Owner[v] {
			t.Fatalf("nondeterministic owner at %d", v)
		}
	}
}
