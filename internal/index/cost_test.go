package index

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/obs"
)

// TestCostParityBandSpansMatchCounters is the cost-soundness check: a
// traced query must attribute its DP work so that three independent
// views agree exactly — the per-band span costs, the query-level
// CostCounter, and Stats.Cost all receive each band's summed cost
// records once, so their totals are equal byte for byte, not
// approximately. Every query kind runs through the one band sweep, so
// each is checked: Decide on a warm miss (every run and band executes)
// and on a disconnected pattern (whose inner color-class searches
// charge Stats like any other search), Count, and Find and
// DecideSeparating on hits that fell their sibling bands.
func TestCostParityBandSpansMatchCounters(t *testing.T) {
	grid := graph.Grid(6, 6)
	// The path 1-7-6 cuts corner 0 off, so a 3-vertex path separates the
	// opposite corners.
	corners := make([]bool, grid.N())
	corners[0], corners[grid.N()-1] = true, true
	decide := func(h *graph.Graph) func(core.CoverSource, *graph.Graph, core.Options) (string, error) {
		return func(src core.CoverSource, g *graph.Graph, o core.Options) (string, error) {
			found, err := core.DecideFrom(src, g, h, o)
			return fmt.Sprint(found), err
		}
	}
	cases := []struct {
		name string
		g    *graph.Graph
		run  func(core.CoverSource, *graph.Graph, core.Options) (string, error)
		want string
	}{
		{"warm-miss", grid, decide(graph.Cycle(3)), "false"}, // no triangles in a grid
		{"disconnected", graph.Grid(8, 8), decide(graph.DisjointUnion(graph.Path(2), graph.Path(3))), "true"},
		{"count", grid, func(src core.CoverSource, g *graph.Graph, o core.Options) (string, error) {
			n, err := core.CountFrom(src, g, graph.Cycle(4), o)
			return fmt.Sprint(n), err
		}, "200"}, // 25 squares, 8 maps each
		{"find", grid, func(src core.CoverSource, g *graph.Graph, o core.Options) (string, error) {
			occ, err := core.FindOneFrom(src, g, graph.Path(4), o)
			return fmt.Sprint(core.VerifyOccurrence(g, graph.Path(4), occ)), err
		}, "true"},
		{"separating", grid, func(src core.CoverSource, g *graph.Graph, o core.Options) (string, error) {
			occ, err := core.DecideSeparatingFrom(src, g, graph.Path(3), corners, o)
			return fmt.Sprint(core.VerifySeparating(g, graph.Path(3), corners, occ)), err
		}, "true"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := core.Options{Seed: 3, MaxRuns: 4}
			ix := New(c.g, opt)
			gen := ix.acquire()
			defer ix.release(gen)
			if got, err := c.run(gen, c.g, opt); err != nil || got != c.want {
				t.Fatalf("warm-up = %s, %v; want %s, nil", got, err, c.want)
			}

			var st core.Stats
			rec := obs.NewRecorder(0)
			counter := new(obs.CostCounter)
			qopt := opt
			qopt.Stats = &st
			qopt.Trace = rec
			qopt.Cost = counter
			if got, err := c.run(gen, c.g, qopt); err != nil || got != c.want {
				t.Fatalf("traced call = %s, %v; want %s, nil", got, err, c.want)
			}

			total := counter.Snapshot()
			if total.IsZero() || total.Emissions == 0 || total.Nodes == 0 {
				t.Fatalf("query cost counter empty: %+v", total)
			}
			if st.Cost != total {
				t.Fatalf("Stats.Cost = %+v, counter = %+v; want identical", st.Cost, total)
			}

			spans, dropped := rec.Snapshot()
			if dropped != 0 {
				t.Fatalf("dropped %d spans; raise the limit for this test", dropped)
			}
			var sum obs.Cost
			var bands int
			for _, sp := range spans {
				if sp.Name != "band" {
					continue
				}
				bands++
				// A band that ran its DP to the end carries nonzero cost;
				// only skipped, cancelled and fallback bands may be zero.
				if sp.Note == "miss" || sp.Note == "found" || (strings.HasPrefix(sp.Note, "occs=") && sp.Note != "occs=0") {
					if sp.Cost == nil || sp.Cost.IsZero() {
						t.Errorf("band span run=%d band=%d note=%q has no cost", sp.Run, sp.Band, sp.Note)
					}
				}
				if sp.Cost != nil {
					sum.Accumulate(*sp.Cost)
				}
			}
			if bands == 0 || bands != st.Bands {
				t.Fatalf("%d band spans, Stats.Bands = %d", bands, st.Bands)
			}
			if sum != total {
				t.Fatalf("sum of band span costs = %+v, counter = %+v; want identical", sum, total)
			}
			// Prepare spans carry only artifact residency bytes and must
			// stay out of the query's DP totals.
			for _, sp := range spans {
				if sp.Name == "prepare" && sp.Cost != nil {
					if sp.Cost.Emissions != 0 || sp.Cost.Nodes != 0 {
						t.Errorf("prepare span carries DP counters: %+v", sp.Cost)
					}
				}
			}
		})
	}
}

// TestDecideCtxPicksUpCostCounter checks the context carrier end to
// end: a counter attached via obs.WithCost reaches the engines through
// DecideCtx and accumulates nonzero work.
func TestDecideCtxPicksUpCostCounter(t *testing.T) {
	g := graph.Grid(5, 5)
	ix := New(g, core.Options{Seed: 1, MaxRuns: 2})
	counter := new(obs.CostCounter)
	ctx := obs.WithCost(context.Background(), counter)
	if _, err := ix.DecideCtx(ctx, graph.Cycle(4)); err != nil {
		t.Fatal(err)
	}
	if c := counter.Snapshot(); c.Emissions == 0 {
		t.Fatalf("cost counter stayed empty through DecideCtx: %+v", c)
	}
}

// TestMemoStats checks the cache-traffic counters: a cold query builds
// (misses, build time), a repeat of the same query hits, and residency
// (bytes, entries) reflects the built artifacts.
func TestMemoStats(t *testing.T) {
	g := graph.Grid(6, 6)
	ix := New(g, core.Options{Seed: 1, MaxRuns: 3})

	byClass := func() map[string]MemoStats {
		m := make(map[string]MemoStats)
		for _, ms := range ix.MemoStats() {
			m[ms.Class] = ms
		}
		return m
	}

	cold := byClass()
	if len(cold) != 4 {
		t.Fatalf("MemoStats classes = %d, want 4", len(cold))
	}
	for _, class := range []string{"cover", "separating", "pattern", "epoch"} {
		if _, ok := cold[class]; !ok {
			t.Fatalf("missing class %q in %+v", class, cold)
		}
	}
	if cold["epoch"].Entries != 1 {
		t.Fatalf("quiescent index should report one live generation: %+v", cold["epoch"])
	}

	h := graph.Cycle(4)
	if _, err := ix.Decide(h); err != nil {
		t.Fatal(err)
	}
	warm := byClass()
	if warm["cover"].Misses == 0 {
		t.Fatalf("cold query recorded no cover misses: %+v", warm["cover"])
	}
	if warm["cover"].BuildSeconds <= 0 {
		t.Fatalf("cover builds recorded no build time: %+v", warm["cover"])
	}
	if warm["cover"].Entries == 0 || warm["cover"].Bytes == 0 {
		t.Fatalf("built covers not resident: %+v", warm["cover"])
	}

	if _, err := ix.Decide(h); err != nil {
		t.Fatal(err)
	}
	again := byClass()
	if again["cover"].Hits <= warm["cover"].Hits {
		t.Fatalf("repeat query recorded no cover hits: %+v -> %+v", warm["cover"], again["cover"])
	}
	if again["cover"].Misses != warm["cover"].Misses {
		t.Fatalf("repeat query missed: %+v -> %+v", warm["cover"], again["cover"])
	}
}
