package index

import (
	"context"
	"sync"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/graph"
)

// TestConcurrentScanReset churns an Index the way the serving layer's
// eviction does — batched scans racing cache resets — and checks that
// every answer stays identical to the direct API's: in-flight queries
// keep the immutable artifacts they already hold, and rebuilt artifacts
// are bit-identical by the derived-randomness property. It runs the
// path-DAG engine, so concurrent scans share each prepared band through
// pmdag; TestConcurrentIndexQueries covers the default engine.
func TestConcurrentScanReset(t *testing.T) {
	g := graph.Grid(6, 6)
	opt := core.Options{Seed: 11, MaxRuns: 4, Engine: core.EnginePathDAG}
	patterns := []*graph.Graph{
		graph.Cycle(4), graph.Cycle(3), graph.Path(4), graph.Star(4),
	}
	want := make([]bool, len(patterns))
	for i, h := range patterns {
		var err error
		if want[i], err = core.Decide(g, h, opt); err != nil {
			t.Fatal(err)
		}
	}

	ix := New(g, opt)
	const rounds = 8
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, res := range ix.Scan(context.Background(), patterns) {
					if res.Err != nil {
						t.Errorf("scan: %v", res.Err)
						return
					}
					if res.Found != want[i] {
						t.Errorf("pattern %d under churn: got %v, want %v", i, res.Found, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 4*rounds; r++ {
			ix.Reset()
			ix.Stats() // snapshotting races the rebuilds too
		}
	}()
	wg.Wait()

	if got := ix.Stats().Queries; got != 3*rounds*uint64(len(patterns)) {
		t.Errorf("queries = %d, want %d", got, 3*rounds*len(patterns))
	}
}

// TestStatsAccounting locks Stats() to the actual cached artifacts: the
// counts must equal what Prewarm materialized, and MemBytes must equal
// the sum of MemBytes over exactly those artifacts.
func TestStatsAccounting(t *testing.T) {
	g := graph.Grid(6, 6)
	opt := core.Options{Seed: 5, MaxRuns: 3}
	ix := New(g, opt)

	if st := ix.Stats(); st.PlainCovers != 0 || st.SeparatingCovers != 0 ||
		st.Bands != 0 || st.MemBytes != 0 {
		t.Fatalf("fresh index has nonzero cache stats: %+v", st)
	}
	if got, want := ix.Stats().GraphBytes, g.MemBytes(); got != want {
		t.Fatalf("GraphBytes = %d, want %d", got, want)
	}

	const k, d = 4, 2
	ix.Prewarm(k, d)
	runs := core.CoverRuns(g.N(), opt)

	st := ix.Stats()
	if st.PlainCovers != runs {
		t.Fatalf("after Prewarm(%d,%d): plainCovers=%d, want %d", k, d, st.PlainCovers, runs)
	}
	if st.SeparatingCovers != 0 {
		t.Fatalf("plain prewarm cached %d separating covers", st.SeparatingCovers)
	}

	// Recompute the footprint from the artifacts themselves.
	var wantBytes int64
	wantBands := 0
	gen := ix.acquire()
	for run := 0; run < runs; run++ {
		pc := gen.Prepared(nil, k, d, run)
		wantBytes += pc.MemBytes()
		wantBands += len(pc.Bands)
	}
	if st.MemBytes != wantBytes {
		t.Fatalf("MemBytes = %d, want %d (sum over cached artifacts)", st.MemBytes, wantBytes)
	}
	if st.Bands != wantBands {
		t.Fatalf("Bands = %d, want %d", st.Bands, wantBands)
	}

	// Separating covers are accounted separately.
	s := make([]bool, g.N())
	s[0], s[g.N()-1] = true, true
	pc := gen.Prepared(s, k, d, 0)
	ix.release(gen)
	st2 := ix.Stats()
	if st2.SeparatingCovers != 1 {
		t.Fatalf("SeparatingCovers = %d, want 1", st2.SeparatingCovers)
	}
	if want := st.MemBytes + pc.MemBytes(); st2.MemBytes != want {
		t.Fatalf("MemBytes after separating cover = %d, want %d", st2.MemBytes, want)
	}

	// Queries count queries, not cache fills.
	if st2.Queries != 0 {
		t.Fatalf("Queries = %d before any query", st2.Queries)
	}
	if _, err := ix.Decide(graph.Cycle(4)); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().Queries; got != 1 {
		t.Fatalf("Queries = %d after one Decide", got)
	}

	// Reset drops the artifacts but keeps the lifetime query counter.
	ix.Reset()
	st3 := ix.Stats()
	if st3.PlainCovers != 0 || st3.SeparatingCovers != 0 ||
		st3.Bands != 0 || st3.MemBytes != 0 {
		t.Fatalf("after Reset: %+v", st3)
	}
	if st3.Queries != 1 {
		t.Fatalf("Reset cleared the query counter: %d", st3.Queries)
	}
}
