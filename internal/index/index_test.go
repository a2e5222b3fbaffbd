package index

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
)

// testTargets returns the randomized small planar targets the oracle
// tests sweep: grids, wheels and random planar graphs. They are kept
// small because the oracle tests run full-budget listing on every one.
func testTargets() []struct {
	name string
	g    *graph.Graph
} {
	rng := rand.New(rand.NewPCG(41, 43))
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"grid4x4", graph.Grid(4, 4)},
		{"grid4x3", graph.Grid(4, 3)},
		{"wheel7", graph.Wheel(7)},
		{"rand18", graph.RandomPlanar(18, 0.6, rng)},
		{"rand22", graph.RandomPlanar(22, 0.4, rng)},
	}
}

// testPatterns returns the pattern sweep: paths, cycles, stars and trees.
func testPatterns() []struct {
	name string
	h    *graph.Graph
} {
	rng := rand.New(rand.NewPCG(5, 6))
	return []struct {
		name string
		h    *graph.Graph
	}{
		{"P2", graph.Path(2)},
		{"P3", graph.Path(3)},
		{"P4", graph.Path(4)},
		{"C3", graph.Cycle(3)},
		{"C4", graph.Cycle(4)},
		{"C5", graph.Cycle(5)},
		{"star4", graph.Star(4)},
		{"tree5", graph.RandomTree(5, rng)},
	}
}

func sortedKeys(occs []core.Occurrence) []string {
	keys := make([]string, len(occs))
	for i, o := range occs {
		keys[i] = o.Key()
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexMatchesOracle cross-validates the Index against the
// brute-force oracle on the randomized target/pattern sweep: Decide
// nil-ness, the full listed occurrence set (which also pins down the
// count) and witness validity.
func TestIndexMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep skipped in -short mode")
	}
	for _, tg := range testTargets() {
		t.Run(tg.name, func(t *testing.T) {
			ix := New(tg.g, core.Options{Seed: 7})
			for _, pt := range testPatterns() {
				want := naive.Search(tg.g, pt.h, naive.Options{})

				got, err := ix.Decide(pt.h)
				if err != nil {
					t.Fatalf("%s: Decide: %v", pt.name, err)
				}
				if got != (len(want) > 0) {
					t.Errorf("%s: Decide = %v, oracle has %d occurrences", pt.name, got, len(want))
				}

				occs, err := ix.ListOccurrences(pt.h)
				if err != nil {
					t.Fatalf("%s: List: %v", pt.name, err)
				}
				wantOccs := make([]core.Occurrence, len(want))
				for i, a := range want {
					wantOccs[i] = core.Occurrence(a)
				}
				if !equalKeys(sortedKeys(occs), sortedKeys(wantOccs)) {
					t.Errorf("%s: List returned %d occurrences, oracle %d (sets differ)", pt.name, len(occs), len(want))
				}

				occ, err := ix.FindOccurrence(pt.h)
				if err != nil {
					t.Fatalf("%s: Find: %v", pt.name, err)
				}
				if (occ != nil) != (len(want) > 0) {
					t.Errorf("%s: Find witness = %v, oracle has %d occurrences", pt.name, occ, len(want))
				}
				if occ != nil && !core.VerifyOccurrence(tg.g, pt.h, occ) {
					t.Errorf("%s: Find returned a non-verifying witness %v", pt.name, occ)
				}
			}
			// One full CountOccurrences pass for API coverage (Count is
			// len(List) by construction, so one pattern suffices).
			count, err := ix.CountOccurrences(graph.Cycle(4))
			if err != nil {
				t.Fatal(err)
			}
			if want := len(naive.Search(tg.g, graph.Cycle(4), naive.Options{})); count != want {
				t.Errorf("Count(C4) = %d, oracle = %d", count, want)
			}
		})
	}
}

// TestIndexMatchesDirect locks in the determinism contract: for the same
// Options.Seed, Index answers are identical to the one-shot core API's —
// shared preprocessing must not change results. Identity holds per run,
// so a reduced MaxRuns budget keeps the test fast without making the
// comparison weaker (both sides see exactly the same covers).
func TestIndexMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep skipped in -short mode")
	}
	// Listing re-enumerates every band per run, so the List equality
	// sweep uses a pattern subset; Decide equality covers the full set.
	listPatterns := map[string]bool{"P3": true, "C4": true, "star4": true, "tree5": true}
	for _, tg := range testTargets() {
		t.Run(tg.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				opt := core.Options{Seed: seed, MaxRuns: 6}
				ix := New(tg.g, opt)
				for _, pt := range testPatterns() {
					direct, err1 := core.Decide(tg.g, pt.h, opt)
					indexed, err2 := ix.Decide(pt.h)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s seed=%d: %v %v", pt.name, seed, err1, err2)
					}
					if direct != indexed {
						t.Errorf("%s seed=%d: Decide direct=%v indexed=%v", pt.name, seed, direct, indexed)
					}
					if !listPatterns[pt.name] {
						continue
					}
					directList, err1 := core.List(tg.g, pt.h, opt)
					indexedList, err2 := ix.ListOccurrences(pt.h)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s seed=%d: %v %v", pt.name, seed, err1, err2)
					}
					if !equalKeys(sortedKeys(directList), sortedKeys(indexedList)) {
						t.Errorf("%s seed=%d: List direct %d occurrences, indexed %d (sets differ)",
							pt.name, seed, len(directList), len(indexedList))
					}
				}
			}
		})
	}
}

// TestScanMatchesPerPattern is the table-driven regression for the batch
// path: Scan/ScanCount must equal per-pattern Decide/CountOccurrences for
// the same seed, indexed and direct.
func TestScanMatchesPerPattern(t *testing.T) {
	patterns := testPatterns()
	batch := make([]*graph.Graph, len(patterns))
	for i, pt := range patterns {
		batch[i] = pt.h
	}
	for ti, tg := range testTargets() {
		countTarget := ti < 2 // ScanCount pays for full listings; two targets suffice
		t.Run(tg.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("statistical sweep skipped in -short mode")
			}
			opt := core.Options{Seed: 11, MaxRuns: 8}
			ix := New(tg.g, opt)
			for i, res := range ix.Scan(context.Background(), batch) {
				if res.Err != nil {
					t.Fatalf("%s: Scan: %v", patterns[i].name, res.Err)
				}
				direct, err := core.Decide(tg.g, batch[i], opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.Found != direct {
					t.Errorf("%s: Scan=%v, direct Decide=%v", patterns[i].name, res.Found, direct)
				}
				single, err := ix.Decide(batch[i])
				if err != nil {
					t.Fatal(err)
				}
				if res.Found != single {
					t.Errorf("%s: Scan=%v, per-pattern Index.Decide=%v", patterns[i].name, res.Found, single)
				}
			}
			if !countTarget {
				return
			}
			for i, res := range ix.ScanCount(context.Background(), batch) {
				if res.Err != nil {
					t.Fatalf("%s: ScanCount: %v", patterns[i].name, res.Err)
				}
				direct, err := core.Count(tg.g, batch[i], opt)
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != direct {
					t.Errorf("%s: ScanCount=%d, direct Count=%d", patterns[i].name, res.Count, direct)
				}
				if res.Found != (res.Count > 0) {
					t.Errorf("%s: ScanCount Found=%v inconsistent with Count=%d", patterns[i].name, res.Found, res.Count)
				}
			}
		})
	}
}

// TestScanOversizedPattern checks that a per-pattern failure does not
// poison the rest of the batch.
func TestScanOversizedPattern(t *testing.T) {
	ix := New(graph.Grid(4, 4), core.Options{Seed: 1})
	batch := []*graph.Graph{graph.Cycle(4), graph.Path(20), graph.Path(3)}
	res := ix.Scan(context.Background(), batch)
	if res[0].Err != nil || !res[0].Found {
		t.Errorf("C4: %+v", res[0])
	}
	if res[1].Err == nil {
		t.Error("oversized pattern: expected ErrPatternTooLarge")
	}
	if res[2].Err != nil || !res[2].Found {
		t.Errorf("P3: %+v", res[2])
	}
}

// TestIndexSeparating cross-validates DecideSeparating through the Index:
// the witness must verify and nil-ness must match the direct call.
func TestIndexSeparating(t *testing.T) {
	// A rim cycle whose removal separates the two poles (the Figure 7
	// family used by the core tests).
	rim := 6
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

	opt := core.Options{Seed: 4}
	ix := New(g, opt)
	occ, err := ix.DecideSeparating(h, s)
	if err != nil {
		t.Fatal(err)
	}
	if occ == nil {
		t.Fatal("separating rim not found through the Index")
	}
	if !core.VerifySeparating(g, h, s, occ) {
		t.Fatalf("witness does not verify: %v", occ)
	}
	direct, err := core.DecideSeparating(g, h, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if (direct == nil) != (occ == nil) {
		t.Errorf("separating nil-ness differs: direct=%v indexed=%v", direct, occ)
	}

	// A triangle cannot separate the poles of this target.
	none, err := ix.DecideSeparating(graph.Cycle(3), s)
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Errorf("C3 should not separate, got %v", none)
	}
}

// cachedCovers counts the covers (plain + separating) ix holds.
func cachedCovers(ix *Index) int {
	st := ix.Stats()
	return st.PlainCovers + st.SeparatingCovers
}

// TestCacheReuse pins down the memoization contract: repeated requests
// return the same prepared artifacts, and clusterings are shared across
// pattern diameters of one size class.
func TestCacheReuse(t *testing.T) {
	ix := New(graph.Grid(6, 6), core.Options{Seed: 9})
	gen := ix.acquire()
	a := gen.Prepared(nil, 4, 2, 0)
	b := gen.Prepared(nil, 4, 2, 0)
	if a != b {
		t.Error("Prepared(4,2,0) rebuilt instead of cached")
	}
	if got := cachedCovers(ix); got != 1 {
		t.Errorf("cached covers = %d, want 1", got)
	}
	// Same k, different d: new cover, same clustering.
	c := gen.Prepared(nil, 4, 3, 0)
	if c == a {
		t.Error("distinct (k,d) shapes must not share a prepared cover")
	}
	if got := ix.Stats().Clusterings; got != 1 {
		t.Errorf("cached clusterings = %d, want 1 (shared across d)", got)
	}
	if a.Clustering != c.Clustering {
		t.Error("covers of one (beta, run) must share the clustering")
	}
	// Separating covers share the clustering too.
	s := make([]bool, 36)
	s[0], s[35] = true, true
	sp := gen.Prepared(s, 4, 2, 0)
	if sp.Clustering != a.Clustering {
		t.Error("separating cover must reuse the (beta, run) clustering")
	}
	// Runs past the decide budget must not be memoized (the listing
	// loop can request arbitrarily deep run indices).
	before := cachedCovers(ix)
	if gen.Prepared(nil, 4, 2, core.RunBudget(36, core.Options{Seed: 9})) == nil {
		t.Error("overflow run returned nil")
	}
	if got := cachedCovers(ix); got != before {
		t.Errorf("overflow run was cached: cached covers %d -> %d", before, got)
	}
	ix.release(gen)
	ix.Reset()
	if cachedCovers(ix) != 0 || ix.Stats().Clusterings != 0 {
		t.Error("Reset left artifacts cached")
	}
	gen = ix.acquire()
	defer ix.release(gen)
	if gen.Prepared(nil, 4, 2, 0) == a {
		t.Error("Reset must drop memoized covers")
	}
}

// TestPrewarm checks that Prewarm materializes the full run budget and
// that subsequent same-shape queries are served entirely from cache.
func TestPrewarm(t *testing.T) {
	g := graph.Grid(6, 6)
	opt := core.Options{Seed: 2}
	ix := New(g, opt)
	ix.Prewarm(4, 2)
	want := core.RunBudget(g.N(), opt)
	if got := cachedCovers(ix); got != want {
		t.Fatalf("cached covers after Prewarm = %d, want %d", got, want)
	}
	// C4 has k=4, d=2: deciding it must not build anything new.
	if _, err := ix.Decide(graph.Cycle(4)); err != nil {
		t.Fatal(err)
	}
	if got := cachedCovers(ix); got != want {
		t.Errorf("Decide after Prewarm built new covers: %d, want %d", got, want)
	}
}

// TestIndexPlanarity exercises the cached embedding.
func TestIndexPlanarity(t *testing.T) {
	ix := New(graph.Grid(5, 5), core.Options{})
	if !ix.Planar() {
		t.Error("grid reported non-planar")
	}
	if emb, err := ix.Embedded(); err != nil || emb == nil {
		t.Errorf("Embedded: %v %v", emb, err)
	}
	k5 := New(graph.Complete(5), core.Options{})
	if k5.Planar() {
		t.Error("K5 reported planar")
	}
}

// TestConcurrentIndexQueries hammers one shared Index from a t.Run
// fan-out of parallel workers mixing every query type; run under -race
// this locks in the thread-safety of the memoized decompositions. The
// expectations are computed with the same (capped) options, so they are
// exact regardless of the budget.
func TestConcurrentIndexQueries(t *testing.T) {
	g := graph.Grid(6, 6)
	opt := core.Options{Seed: 13, MaxRuns: 8}
	ix := New(g, opt)
	patterns := testPatterns()
	batch := make([]*graph.Graph, len(patterns))
	want := make([]bool, len(patterns))
	wantCount := make([]int, len(patterns))
	for i, pt := range patterns {
		batch[i] = pt.h
		var err error
		if want[i], err = core.Decide(g, pt.h, opt); err != nil {
			t.Fatal(err)
		}
		if wantCount[i], err = core.Count(g, pt.h, opt); err != nil {
			t.Fatal(err)
		}
	}
	s := make([]bool, g.N())
	s[0], s[g.N()-1] = true, true

	t.Run("fanout", func(t *testing.T) {
		for w := 0; w < 8; w++ {
			t.Run(fmt.Sprintf("worker-%d", w), func(t *testing.T) {
				t.Parallel()
				for i, h := range batch {
					got, err := ix.Decide(h)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[i] {
						t.Errorf("%s: concurrent Decide = %v, want %v", patterns[i].name, got, want[i])
					}
				}
				for i, res := range ix.Scan(context.Background(), batch) {
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					if res.Found != want[i] {
						t.Errorf("%s: concurrent Scan = %v, want %v", patterns[i].name, res.Found, want[i])
					}
				}
				// Every worker counts one pattern and runs one separating
				// query, exercising List and the separating cache too.
				i := w % len(batch)
				count, err := ix.CountOccurrences(batch[i])
				if err != nil {
					t.Fatal(err)
				}
				if count != wantCount[i] {
					t.Errorf("%s: concurrent Count = %d, want %d", patterns[i].name, count, wantCount[i])
				}
				if _, err := ix.DecideSeparating(graph.Cycle(3), s); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}
