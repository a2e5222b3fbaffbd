package index

import (
	"context"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/obs"
)

// TestTraceSpansMatchStatsBands is the trace-soundness check: on a warm
// index, a traced miss query (no early exit, so every run and band
// executes) must record exactly one "band" span per Stats band and one
// "prepare" span per Stats run — the trace timeline and the counters
// describe the same work.
func TestTraceSpansMatchStatsBands(t *testing.T) {
	g := graph.Grid(6, 6)
	opt := core.Options{Seed: 3, MaxRuns: 4}
	ix := New(g, opt)
	h := graph.Cycle(3) // no triangles in a grid: a guaranteed miss

	// Warm the caches so the traced query serves purely memoized covers.
	if found, err := ix.Decide(h); err != nil || found {
		t.Fatalf("warm-up Decide = %v, %v; want false, nil", found, err)
	}

	var st core.Stats
	rec := obs.NewRecorder(0)
	qopt := opt
	qopt.Stats = &st
	qopt.Trace = rec
	gen := ix.acquire()
	found, err := core.DecideFrom(gen, g, h, qopt)
	ix.release(gen)
	if err != nil || found {
		t.Fatalf("traced Decide = %v, %v; want false, nil", found, err)
	}

	spans, dropped := rec.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d spans; raise the limit for this test", dropped)
	}
	var bands, prepares int
	for _, s := range spans {
		switch s.Name {
		case "band":
			bands++
		case "prepare":
			prepares++
		}
	}
	if st.Bands == 0 || st.Runs == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if bands != st.Bands {
		t.Errorf("band spans = %d, Stats.Bands = %d", bands, st.Bands)
	}
	if prepares != st.Runs {
		t.Errorf("prepare spans = %d, Stats.Runs = %d", prepares, st.Runs)
	}
}

// TestDecideCtxPicksUpRecorder checks the context carrier end to end:
// a recorder attached via obs.WithRecorder reaches the pipeline through
// DecideCtx and receives at least one band span.
func TestDecideCtxPicksUpRecorder(t *testing.T) {
	g := graph.Grid(5, 5)
	ix := New(g, core.Options{Seed: 1, MaxRuns: 2})
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := ix.DecideCtx(ctx, graph.Cycle(4)); err != nil {
		t.Fatal(err)
	}
	spans, _ := rec.Snapshot()
	var bands int
	for _, s := range spans {
		if s.Name == "band" {
			bands++
		}
	}
	if bands == 0 {
		t.Fatalf("no band spans recorded; spans = %+v", spans)
	}
}
