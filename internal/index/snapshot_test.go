package index

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/snap"
)

// populate runs a representative query mix so the Index caches
// clusterings, plain covers and separating covers.
func populate(t *testing.T, ix *Index, g *graph.Graph) {
	t.Helper()
	if found, err := ix.Decide(graph.Cycle(4)); err != nil || !found {
		t.Fatalf("Decide(C4) = %v, %v", found, err)
	}
	if _, err := ix.CountOccurrences(graph.Path(3)); err != nil {
		t.Fatalf("Count(P3): %v", err)
	}
	mask := make([]bool, g.N())
	mask[0], mask[g.N()-1] = true, true
	if _, err := ix.DecideSeparating(graph.Cycle(4), mask); err != nil {
		t.Fatalf("DecideSeparating: %v", err)
	}
}

// TestSaveLoadEquivalence is the round-trip property the persistence
// subsystem promises: a loaded snapshot serves byte-identical answers
// and byte-identical Stats to the live Index that produced it, and
// serves them from cache (no artifact rebuilds for snapshotted keys).
func TestSaveLoadEquivalence(t *testing.T) {
	g := graph.Grid(5, 5)
	ix := New(g, core.Options{Seed: 3, MaxRuns: 4})
	populate(t, ix, g)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Stats must match to the byte: same artifact counts, same MemBytes
	// (footprints are carried verbatim), same lifetime query counter.
	if got, want := loaded.Stats(), ix.Stats(); got != want {
		t.Fatalf("Stats diverge after load:\n got %+v\nwant %+v", got, want)
	}

	// The snapshotted shapes must be served from cache, not rebuilt:
	// re-answering the populate queries must not grow the cache.
	covers, clusters := cachedCovers(loaded), loaded.Stats().Clusterings
	if covers == 0 || clusters == 0 {
		t.Fatalf("loaded Index has an empty cache (%d covers, %d clusterings)", covers, clusters)
	}

	// Answers must be identical, both for snapshotted shapes and for
	// fresh ones (built on demand from the same derived randomness).
	patterns := []*graph.Graph{
		graph.Cycle(4), graph.Path(3), // snapshotted shapes
		graph.Cycle(6), graph.Star(5), // fresh shapes
	}
	for i, h := range patterns {
		want, err1 := ix.Decide(h)
		got, err2 := loaded.Decide(h)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("pattern %d: Decide diverges: live (%v, %v) vs loaded (%v, %v)", i, want, err1, got, err2)
		}
		wc, err1 := ix.CountOccurrences(h)
		gc, err2 := loaded.CountOccurrences(h)
		if err1 != nil || err2 != nil || gc != wc {
			t.Fatalf("pattern %d: Count diverges: live (%d, %v) vs loaded (%d, %v)", i, wc, err1, gc, err2)
		}
	}
	mask := make([]bool, g.N())
	mask[0], mask[g.N()-1] = true, true
	wo, err1 := ix.DecideSeparating(graph.Cycle(4), mask)
	lo, err2 := loaded.DecideSeparating(graph.Cycle(4), mask)
	if err1 != nil || err2 != nil || string(wo.Key()) != string(lo.Key()) {
		t.Fatalf("DecideSeparating diverges: (%v, %v) vs (%v, %v)", wo, err1, lo, err2)
	}

	if cachedCovers(loaded) < covers || loaded.Stats().Clusterings < clusters {
		t.Fatalf("cache shrank while querying a loaded Index")
	}
}

// TestSaveLoadAgainstFresh pins the stronger form of the property: a
// loaded Index answers exactly like a *fresh* Index with the same graph
// and Options (the deterministic (Seed, stream, run) derivation makes
// caches transparent).
func TestSaveLoadAgainstFresh(t *testing.T) {
	g := graph.Grid(4, 6)
	opt := core.Options{Seed: 11, MaxRuns: 3}
	ix := New(g, opt)
	populate(t, ix, g)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	fresh := New(g, opt)
	for _, h := range []*graph.Graph{graph.Cycle(4), graph.Path(4), graph.Star(4)} {
		a, err1 := loaded.Decide(h)
		b, err2 := fresh.Decide(h)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("loaded (%v, %v) vs fresh (%v, %v) for %v", a, err1, b, err2, h)
		}
	}
}

// TestSaveMidChurn saves while concurrent scans are in flight: the
// snapshot must always decode to a valid Index whose answers match,
// whatever subset of completed artifacts it captured.
func TestSaveMidChurn(t *testing.T) {
	g := graph.Grid(5, 5)
	ix := New(g, core.Options{Seed: 5, MaxRuns: 3})
	patterns := []*graph.Graph{graph.Cycle(4), graph.Path(3), graph.Path(5), graph.Star(4)}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ix.Scan(context.Background(), patterns)
			}
		}
	}()

	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Errorf("Save mid-churn: %v", err)
			break
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Errorf("Load mid-churn: %v", err)
			break
		}
		for _, r := range loaded.Scan(context.Background(), patterns) {
			if r.Err != nil {
				t.Errorf("loaded scan: %v", r.Err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// After quiescing, answers from a final save/load match the live ones.
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	live := ix.Scan(context.Background(), patterns)
	warm := loaded.Scan(context.Background(), patterns)
	for i := range live {
		if live[i].Found != warm[i].Found {
			t.Fatalf("pattern %d: live %v vs warm %v", i, live[i].Found, warm[i].Found)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"badmagic":  []byte("NOTASNAPxxxxxxxxxxxxxxxx"),
		"truncated": nil, // filled below
	}
	g := graph.Grid(3, 3)
	ix := New(g, core.Options{Seed: 1})
	if _, err := ix.Decide(graph.Path(3)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cases["truncated"] = buf.Bytes()[:buf.Len()/2]
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, snap.ErrFormat) {
			t.Errorf("%s: got %v, want snap.ErrFormat", name, err)
		}
	}
}
