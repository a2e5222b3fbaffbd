// Performance benchmarks of the pipeline's hot paths, each asserting its
// answers so that a drifting result fails loudly: the Table 1 decision
// pipeline, the path-DAG engine (Fig. 5 and its shortcut ablation),
// connectivity (Fig. 6), the separating search (Fig. 7), listing
// (Theorem 4.2), disconnected patterns (Lemma 4.1), and the Index and
// serving layers. make bench-smoke runs every one once and make benchstat
// repeats the tracked ones; BENCH_*.json records their trajectory. The
// paper's claims are checked by internal/experiments instead: make
// paper-smoke gates CI on their shape checks, and cmd/paperbench prints
// the full tables.
//
//	go test -bench=. -benchmem            # everything
//	go test -bench=Table1                 # one artifact
package planarsi_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"planarsi"
	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/pmdag"
	"planarsi/internal/serve"
	"planarsi/internal/treedecomp"
	"planarsi/internal/wd"
)

// ---- Table 1: deciding subgraph isomorphism ----

func BenchmarkTable1DecideOurs(b *testing.B) {
	// The five sizes match the BENCH_*.json perf-trajectory snapshots
	// (ns/op, B/op, allocs/op, work/op at n = 2^10 .. 2^14). The engine is
	// pinned to the Section 3.3 path-DAG engine, the one Table 1 reports,
	// so the series does not follow EngineAuto's default.
	for _, n := range []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			g := graph.RandomPlanar(n, 0.7, rng)
			h := graph.Cycle(4)
			tr := wd.NewTracker()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				found, err := planarsi.Decide(g, h, planarsi.Options{Seed: uint64(i), Engine: planarsi.EnginePathDAG, Tracker: tr})
				if err != nil || !found {
					b.Fatalf("decide: %v %v", found, err)
				}
			}
			b.ReportMetric(float64(tr.Work())/float64(b.N), "work/op")
		})
	}
}

// ---- Figure 5: path-DAG engine with shortcuts ----

func BenchmarkFig5PathDAG(b *testing.B) {
	for _, n := range []int{512, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Path(n)
			h := graph.Path(4)
			nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
			p := &match.Problem{G: g, H: h, ND: nd}
			b.ResetTimer()
			hops := 0
			for i := 0; i < b.N; i++ {
				eng, stats := pmdag.Run(p, nil)
				if !eng.Found() {
					b.Fatal("P4 not found")
				}
				hops = stats.MaxHops
			}
			b.ReportMetric(float64(hops), "bfs-hops")
		})
	}
}

// ---- Figure 6: planar vertex connectivity ----

func BenchmarkFig6Connectivity(b *testing.B) {
	families := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"cycle", graph.Cycle(200), 2},
		{"wheel", graph.Wheel(40), 3},
		{"bipyramid", graph.Bipyramid(24), 4},
		{"icosahedron", graph.Icosahedron(), 5},
	}
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			tr := wd.NewTracker()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := conn.VertexConnectivity(fam.g, conn.Options{Seed: uint64(i), MaxRuns: 8, Tracker: tr})
				if err != nil || res.Connectivity != fam.want {
					b.Fatalf("connectivity %d, want %d (%v)", res.Connectivity, fam.want, err)
				}
			}
			b.ReportMetric(float64(tr.Work())/float64(b.N), "work/op")
		})
	}
}

// ---- Figure 7: separating subgraph isomorphism ----

func BenchmarkFig7Separating(b *testing.B) {
	rim := 8
	bld := graph.NewBuilder(rim + 2)
	for i := 0; i < rim; i++ {
		bld.AddEdge(int32(i), int32((i+1)%rim))
		bld.AddEdge(int32(i), int32(rim))
		bld.AddEdge(int32(i), int32(rim+1))
	}
	g := bld.Build()
	s := make([]bool, g.N())
	s[rim], s[rim+1] = true, true
	h := graph.Cycle(rim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ, err := planarsi.DecideSeparating(g, h, s, planarsi.Options{Seed: uint64(i)})
		if err != nil || occ == nil {
			b.Fatalf("separating rim not found: %v", err)
		}
	}
}

// ---- Theorem 4.2: listing all occurrences ----

func BenchmarkListAll(b *testing.B) {
	g := graph.Grid(8, 8)
	h := graph.Cycle(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occs, err := planarsi.ListOccurrences(g, h, planarsi.Options{Seed: uint64(i)})
		if err != nil || len(occs) != 7*7*8 {
			b.Fatalf("listed %d, want %d (%v)", len(occs), 7*7*8, err)
		}
	}
}

// ---- Lemma 4.1: disconnected patterns ----

func BenchmarkDisconnected(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 7))
	g := graph.RandomPlanar(60, 0.7, rng)
	h := graph.DisjointUnion(graph.Path(2), graph.Path(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := planarsi.Decide(g, h, planarsi.Options{Seed: uint64(i)})
		if err != nil || !found {
			b.Fatalf("disconnected decide: %v %v", found, err)
		}
	}
}

// ---- Ablation: path-DAG shortcut spacing ----

func BenchmarkAblationShortcutPaper(b *testing.B) {
	benchShortcut(b, pmdag.Config{})
}

func BenchmarkAblationShortcutDense(b *testing.B) {
	benchShortcut(b, pmdag.Config{ShortcutSpacing: 1})
}

func benchShortcut(b *testing.B, cfg pmdag.Config) {
	g := graph.Path(2048)
	h := graph.Path(4)
	nd := treedecomp.MakeNice(treedecomp.Build(g, treedecomp.MinDegree))
	p := &match.Problem{G: g, H: h, ND: nd}
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		engs, stats := pmdag.RunMulti([]*match.Problem{p}, cfg, nil)
		if !engs[0].Found() {
			b.Fatal("missed")
		}
		edges = stats.ShortcutEdges
	}
	b.ReportMetric(float64(edges), "shortcut-edges")
}

// ---- Index: shared-preprocessing batch queries ----

// indexBenchBatch returns the 8-pattern motif batch the Index benchmarks
// scan: the four connected 4-vertex diameter-2 graphs, three 5-vertex
// diameter-2 graphs, and P3. Patterns of one shape (k, d) share their
// covers and decompositions outright in the batched path.
func indexBenchBatch() []*graph.Graph {
	small := func(edges ...[2]int32) *graph.Graph {
		n := int32(0)
		for _, e := range edges {
			n = max(n, max(e[0], e[1])+1)
		}
		bld := graph.NewBuilder(int(n))
		for _, e := range edges {
			bld.AddEdge(e[0], e[1])
		}
		return bld.Build()
	}
	paw := small([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 0}, [2]int32{2, 3})
	diamond := small([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 0}, [2]int32{1, 3}, [2]int32{2, 3})
	house := small([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}, [2]int32{3, 0}, [2]int32{4, 0}, [2]int32{4, 1})
	cricket := small([2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 0}, [2]int32{0, 3}, [2]int32{0, 4})
	return []*graph.Graph{
		graph.Cycle(4), graph.Star(4), paw, diamond, // shape (k=4, d=2)
		graph.Cycle(5), house, cricket, graph.Path(3), // (5,2) ×3, (3,2)
	}
}

// BenchmarkIndexScan compares answering an 8-pattern batch through a
// shared Index (build + Scan, preprocessing paid once) against 8
// independent Decide calls that each rebuild the pipeline, plus the
// steady-state cost of scanning through an already-warm Index. Both
// paths see the same seeds and run budgets and return identical answers.
func BenchmarkIndexScan(b *testing.B) {
	rng := rand.New(rand.NewPCG(12, 34))
	g := graph.RandomPlanar(1<<11, 0.7, rng)
	patterns := indexBenchBatch()
	opt := planarsi.Options{Seed: 1, MaxRuns: 8}
	check := func(b *testing.B, res []planarsi.ScanResult) {
		for i, r := range res {
			if r.Err != nil {
				b.Fatalf("pattern %d: %v", i, r.Err)
			}
		}
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := planarsi.NewIndex(g, opt)
			check(b, ix.Scan(context.Background(), patterns))
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, h := range patterns {
				if _, err := planarsi.Decide(g, h, opt); err != nil {
					b.Fatalf("pattern %d: %v", j, err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ix := planarsi.NewIndex(g, opt)
		check(b, ix.Scan(context.Background(), patterns)) // populate the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(b, ix.Scan(context.Background(), patterns))
		}
	})
}

// BenchmarkServeLoad is the serving-layer load benchmark: concurrent
// clients firing repeated (warm) pattern queries against one resident
// host graph. The coalesced path is the planarsid architecture — a
// registry-owned shared Index behind the micro-batching scheduler, so
// requests landing in one window share a single Scan — while the
// perRequest path is what a stateless server does: build an Index (and
// with it all target-side preprocessing) per request. Both paths assert
// their answers against the direct API.
func BenchmarkServeLoad(b *testing.B) {
	rng := rand.New(rand.NewPCG(12, 34))
	g := graph.RandomPlanar(1<<11, 0.7, rng)
	patterns := indexBenchBatch()
	opt := planarsi.Options{Seed: 1, MaxRuns: 8}
	want := make([]bool, len(patterns))
	for i, h := range patterns {
		var err error
		if want[i], err = planarsi.Decide(g, h, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("coalesced", func(b *testing.B) {
		reg := serve.NewRegistry(serve.RegistryOptions{Pipeline: core.Options{Seed: 1, MaxRuns: 8}})
		e, err := reg.Register("g", g, true)
		if err != nil {
			b.Fatal(err)
		}
		sched := serve.NewScheduler(serve.SchedulerOptions{Window: 500 * time.Microsecond})
		var next atomic.Int64
		b.SetParallelism(8) // 8 concurrent clients per core: load to coalesce
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(next.Add(1)-1) % len(patterns)
				res, err := sched.Submit(context.Background(), e, serve.KindDecide, patterns[i])
				if err != nil || res.Err != nil {
					b.Errorf("submit: %v / %v", err, res.Err)
					return
				}
				if res.Found != want[i] {
					b.Errorf("pattern %d: got %v, want %v", i, res.Found, want[i])
					return
				}
			}
		})
		st := sched.Stats()
		if st.Batches > 0 {
			b.ReportMetric(float64(st.Requests)/float64(st.Batches), "req/batch")
		}
	})
	b.Run("perRequest", func(b *testing.B) {
		var next atomic.Int64
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(next.Add(1)-1) % len(patterns)
				ix := planarsi.NewIndex(g, opt)
				found, err := ix.Decide(patterns[i])
				if err != nil {
					b.Errorf("decide: %v", err)
					return
				}
				if found != want[i] {
					b.Errorf("pattern %d: got %v, want %v", i, found, want[i])
					return
				}
			}
		})
	})
}

// ---- Multi-pattern scan: shared sweeps vs per-pattern queries ----

// benchPermuted relabels h under a fixed scramble — an isomorphic
// pattern that exercises the scan's canonical dedupe.
func benchPermuted(h *planarsi.Graph, seed uint64) *planarsi.Graph {
	rng := rand.New(rand.NewPCG(seed, 99))
	perm := rng.Perm(h.N())
	bld := planarsi.NewBuilder(h.N())
	for _, e := range h.Edges() {
		bld.AddEdge(int32(perm[e[0]]), int32(perm[e[1]]))
	}
	return bld.Build()
}

// BenchmarkScanMultiPattern measures the batching leverage of Scan on a
// warm index at n = 2^12: "shared" batches draw relabeled (k=4, d=2)
// motifs that dedupe and share one group sweep, "mixed" batches spread
// across shapes so most members dispatch separately. The solo variants
// answer the same patterns one Decide at a time — the baseline the
// batch variants are compared against (answers are asserted identical
// in both).
func BenchmarkScanMultiPattern(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 12))
	g := graph.RandomPlanar(1<<12, 0.7, rng)
	opt := planarsi.Options{Seed: 21}

	paw := planarsi.NewBuilder(4) // triangle with a pendant: k=4, d=2
	paw.AddEdge(0, 1)
	paw.AddEdge(1, 2)
	paw.AddEdge(0, 2)
	paw.AddEdge(2, 3)
	diamond := planarsi.NewBuilder(4) // K4 minus an edge: k=4, d=2
	diamond.AddEdge(0, 1)
	diamond.AddEdge(0, 2)
	diamond.AddEdge(1, 2)
	diamond.AddEdge(1, 3)
	diamond.AddEdge(2, 3)
	sharedPool := []*planarsi.Graph{graph.Cycle(4), diamond.Build(), paw.Build(), graph.Star(4)}
	mixedPool := []*planarsi.Graph{
		graph.Cycle(4), graph.Cycle(6), graph.Path(4), graph.Path(6),
		graph.Star(5), graph.Cycle(5), graph.Path(5), graph.Star(6),
	}

	for _, tc := range []struct {
		name string
		pool []*planarsi.Graph
	}{{"shared", sharedPool}, {"mixed", mixedPool}} {
		for _, np := range []int{1, 4, 8, 16} {
			patterns := make([]*planarsi.Graph, np)
			for i := range patterns {
				patterns[i] = benchPermuted(tc.pool[i%len(tc.pool)], uint64(i))
			}
			ix := planarsi.NewIndex(g, opt)
			want := make([]bool, np)
			for i, h := range patterns { // warm covers; record expected answers
				found, err := ix.Decide(h)
				if err != nil {
					b.Fatal(err)
				}
				want[i] = found
			}
			b.Run(fmt.Sprintf("%s/np=%d/batch", tc.name, np), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, r := range ix.Scan(context.Background(), patterns) {
						if r.Err != nil || r.Found != want[j] {
							b.Fatalf("member %d: %+v, want found=%v", j, r, want[j])
						}
					}
				}
				b.ReportMetric(float64(np)*float64(b.N)/b.Elapsed().Seconds(), "patterns/s")
			})
			b.Run(fmt.Sprintf("%s/np=%d/solo", tc.name, np), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, h := range patterns {
						found, err := ix.Decide(h)
						if err != nil || found != want[j] {
							b.Fatalf("member %d: %v %v, want %v", j, found, err, want[j])
						}
					}
				}
				b.ReportMetric(float64(np)*float64(b.N)/b.Elapsed().Seconds(), "patterns/s")
			})
		}
	}
}
