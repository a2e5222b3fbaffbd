package index

import (
	"context"
	"math/rand/v2"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/fault"
	"planarsi/internal/graph"
)

// relabeled returns an isomorphic copy of h under a fixed scramble, for
// exercising the canonical dedupe path.
func relabeled(h *graph.Graph, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 99))
	perm := rng.Perm(h.N())
	b := graph.NewBuilder(h.N())
	for _, e := range h.Edges() {
		b.AddEdge(int32(perm[e[0]]), int32(perm[e[1]]))
	}
	return b.Build()
}

// diamond returns K4 minus one edge — same size and diameter as C4, so
// the two land in one shape group, but not isomorphic to it.
func diamond() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	return b.Build()
}

// TestScanBatchMatchesSingletonQueries: a batch mixing groupable
// members (shared shape), isomorphic duplicates, solo-path members
// (disconnected, single-vertex, trivially absent) and a failing member
// (oversized) must answer each position exactly like the corresponding
// singleton query — for both Scan and ScanCount.
func TestScanBatchMatchesSingletonQueries(t *testing.T) {
	g := graph.Grid(5, 5)
	opt := core.Options{Seed: 11}
	twoEdges := graph.NewBuilder(4) // disconnected: solo classification
	twoEdges.AddEdge(0, 1)
	twoEdges.AddEdge(2, 3)
	one := graph.NewBuilder(1) // k = 1: solo classification
	patterns := []*graph.Graph{
		graph.Cycle(4),               // grouped with the diamond (k=4, d=2)
		relabeled(graph.Cycle(4), 1), // isomorphic duplicate of member 0
		diamond(),                    // same shape, contains a triangle: absent
		graph.Cycle(6),               // present
		graph.Cycle(3),               // bipartite target: absent
		graph.Path(4),                // present
		graph.Star(5),                // present (interior degree 4)
		twoEdges.Build(),
		one.Build(),
		graph.Path(17), // k > MaxK: per-member error
	}

	ix := New(g, opt)
	for i, res := range ix.Scan(context.Background(), patterns) {
		want, err := core.Decide(g, patterns[i], opt)
		if (res.Err == nil) != (err == nil) {
			t.Fatalf("Scan member %d: err = %v, singleton err = %v", i, res.Err, err)
		}
		if err != nil {
			continue
		}
		if res.Found != want {
			t.Fatalf("Scan member %d: found = %v, singleton = %v", i, res.Found, want)
		}
	}
	for i, res := range ix.ScanCount(context.Background(), patterns) {
		want, err := core.Count(g, patterns[i], opt)
		if (res.Err == nil) != (err == nil) {
			t.Fatalf("ScanCount member %d: err = %v, singleton err = %v", i, res.Err, err)
		}
		if err != nil {
			continue
		}
		if res.Count != want || res.Found != (want > 0) {
			t.Fatalf("ScanCount member %d: count = %d found = %v, singleton = %d",
				i, res.Count, res.Found, want)
		}
	}
}

// TestScanDedupeAndSweepAccounting: queries stay per logical pattern
// while sweeps count physical DP dispatches — isomorphic duplicates add
// queries but no sweeps, and shape-mates share one sweep.
func TestScanDedupeAndSweepAccounting(t *testing.T) {
	g := graph.Grid(4, 4)
	ix := New(g, core.Options{Seed: 5})

	c4 := graph.Cycle(4)
	base := ix.Stats()

	// Three isomorphs of one pattern: three queries, one sweep.
	rs := ix.Scan(context.Background(), []*graph.Graph{c4, relabeled(c4, 2), relabeled(c4, 3)})
	for i, r := range rs {
		if r.Err != nil || !r.Found {
			t.Fatalf("member %d: %+v", i, r)
		}
	}
	st := ix.Stats()
	if q := st.Queries - base.Queries; q != 3 {
		t.Fatalf("isomorph batch charged %d queries, want 3", q)
	}
	if s := st.Sweeps - base.Sweeps; s != 1 {
		t.Fatalf("isomorph batch dispatched %d sweeps, want 1", s)
	}

	// Two distinct patterns of one shape (k=4, d=2): two queries, one
	// shared group sweep.
	base = st
	rs = ix.Scan(context.Background(), []*graph.Graph{c4, diamond()})
	if rs[0].Err != nil || !rs[0].Found {
		t.Fatalf("C4 member: %+v", rs[0])
	}
	if rs[1].Err != nil || rs[1].Found {
		t.Fatalf("diamond member: %+v (triangles cannot embed in a grid)", rs[1])
	}
	st = ix.Stats()
	if q := st.Queries - base.Queries; q != 2 {
		t.Fatalf("group batch charged %d queries, want 2", q)
	}
	if s := st.Sweeps - base.Sweeps; s != 1 {
		t.Fatalf("group batch dispatched %d sweeps, want 1", s)
	}
}

// TestScanGroupPanicFallsBackToSolo: a panic inside a shared group
// sweep must not fail the group — the group decomposes into per-pattern
// solo queries and every member still gets its answer.
func TestScanGroupPanicFallsBackToSolo(t *testing.T) {
	defer fault.Disable()
	g := graph.Grid(4, 4)
	ix := New(g, core.Options{Seed: 9})
	patterns := []*graph.Graph{graph.Cycle(4), diamond(), relabeled(graph.Cycle(4), 7)}

	// Warm the shape's covers so the injected fault lands inside the
	// shared group sweep's DP, not inside artifact preparation.
	warm := ix.Scan(context.Background(), patterns)
	base := ix.Stats()

	if err := fault.Enable("dp.panic=first:1", 1); err != nil {
		t.Fatal(err)
	}
	rs := ix.Scan(context.Background(), patterns)
	fault.Disable()

	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("member %d: %v (group panic must fall back to solo, not fail)", i, r.Err)
		}
		if r.Found != warm[i].Found {
			t.Fatalf("member %d: found = %v after fallback, want %v", i, r.Found, warm[i].Found)
		}
	}
	// Accounting: one poisoned group dispatch plus one solo rerun per
	// distinct pattern (C4 and the diamond; the C4 isomorph rides along).
	if s := ix.Stats().Sweeps - base.Sweeps; s != 3 {
		t.Fatalf("fallback batch dispatched %d sweeps, want 3 (group + 2 solo reruns)", s)
	}
}
