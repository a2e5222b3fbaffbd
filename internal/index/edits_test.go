package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/par"
	"planarsi/internal/snap"
)

// editBase returns the non-embedded grid the edit tests mutate. Serving
// targets arrive as edge lists (never embedded), so the tests exercise
// that representation.
func editBase(r, c int) *graph.Graph {
	g := graph.Grid(r, c)
	return graph.FromEdges(g.N(), g.Edges())
}

// editOracleQueries runs the query mix the oracle tests compare across
// an edited and a fresh index.
func editOracleQueries(t *testing.T, ix *Index) []string {
	t.Helper()
	var out []string
	for _, h := range []*graph.Graph{graph.Cycle(3), graph.Cycle(4), graph.Path(4)} {
		found, err := ix.Decide(h)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		n, err := ix.CountOccurrences(h)
		if err != nil {
			t.Fatalf("Count: %v", err)
		}
		occ, err := ix.FindOccurrence(h)
		if err != nil {
			t.Fatalf("Find: %v", err)
		}
		out = append(out, fmt.Sprintf("found=%v count=%d occ=%v", found, n, occ))
	}
	s := make([]bool, ix.Graph().N())
	s[0] = true
	s[ix.Graph().N()-1] = true
	occ, err := ix.DecideSeparating(graph.Cycle(4), s)
	if err != nil {
		t.Fatalf("DecideSeparating: %v", err)
	}
	out = append(out, fmt.Sprintf("sep=%v", occ))
	for _, r := range ix.Scan(context.Background(), []*graph.Graph{graph.Cycle(4), graph.Path(3)}) {
		if r.Err != nil {
			t.Fatalf("Scan: %v", r.Err)
		}
		out = append(out, fmt.Sprintf("scan found=%v", r.Found))
	}
	return out
}

// TestApplyEditsOracle is the acceptance-criteria check: after a batch
// of edits, the index answers byte-identically to a fresh Index built on
// the edited graph, and its artifact tables serialize to the same bytes.
//
// The byte comparison warms both sides via Prewarm rather than queries:
// Prewarm materializes a deterministic key set (the full run budget,
// which depends only on N), whereas queries early-exit on found and so
// memoize different run counts on different graphs. Per-key the migrated
// artifacts are bit-identical to fresh ones; the fixed key set makes
// whole snapshots comparable.
func TestApplyEditsOracle(t *testing.T) {
	g := editBase(6, 6)
	opt := core.Options{Seed: 7, MaxRuns: 3}
	ix := New(g, opt)
	ix.Prewarm(4, 2)

	add := [][2]int32{{0, 7}, {14, 21}}
	remove := [][2]int32{{0, 1}, {28, 29}}
	res, err := ix.ApplyEdits(EditBatch{Add: add, Remove: remove})
	if err != nil {
		t.Fatalf("ApplyEdits: %v", err)
	}
	if res.Epoch != 1 || ix.Epoch() != 1 {
		t.Fatalf("epoch = %d / %d, want 1", res.Epoch, ix.Epoch())
	}
	if res.Added != 2 || res.Removed != 2 {
		t.Fatalf("res = %+v, want 2 added / 2 removed", res)
	}

	g2, err := g.WithEdits(add, remove)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(ix.Graph(), g2) {
		t.Fatal("edited index graph differs from WithEdits result")
	}
	fresh := New(g2, opt)
	fresh.Prewarm(4, 2)

	// Artifact-table identity: with traffic counters normalized, the
	// migrated index and the fresh one serialize byte-identically.
	se, sf := ix.Snapshot(), fresh.Snapshot()
	se.Queries, se.Sweeps, se.Epoch = 0, 0, 0
	sf.Queries, sf.Sweeps, sf.Epoch = 0, 0, 0
	var be, bf bytes.Buffer
	if err := snap.Write(&be, se); err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(&bf, sf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(be.Bytes(), bf.Bytes()) {
		t.Fatalf("artifact snapshots diverged: edited %d bytes, fresh %d bytes", be.Len(), bf.Len())
	}

	// A Find witness is whichever band certifies the pattern first, so
	// the witnesses are comparable only with band order pinned.
	par.SetParallelism(1)
	defer par.SetParallelism(0)
	got := editOracleQueries(t, ix)
	want := editOracleQueries(t, fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d diverged after edit:\n edited: %s\n fresh:  %s", i, got[i], want[i])
		}
	}
}

// TestApplyEditsSurgical checks the invalidation is band-granular: a
// single removed edge rebuilds some bands but keeps the rest, and the
// lifetime counters expose both sides.
func TestApplyEditsSurgical(t *testing.T) {
	ix := New(editBase(8, 8), core.Options{Seed: 3, MaxRuns: 3})
	ix.Prewarm(4, 2)

	res, err := ix.ApplyEdits(EditBatch{Remove: [][2]int32{{0, 1}}})
	if err != nil {
		t.Fatalf("ApplyEdits: %v", err)
	}
	total := res.Bands.Kept + res.Bands.Rebuilt
	if total == 0 {
		t.Fatal("no bands migrated; Prewarm built nothing?")
	}
	if res.Bands.Kept == 0 {
		t.Fatalf("edit of one edge rebuilt every band (%d): invalidation is not surgical", total)
	}
	if res.Bands.Rebuilt == total {
		t.Fatalf("every band rebuilt (%d of %d)", res.Bands.Rebuilt, total)
	}

	inv := map[string]InvalidationStats{}
	for _, st := range ix.InvalidationStats() {
		inv[st.Class] = st
	}
	if got := inv["band"]; got.Retained != uint64(res.Bands.Kept) || got.Invalidated != uint64(res.Bands.Rebuilt) {
		t.Fatalf("band counters %+v disagree with result %+v", got, res.Bands)
	}
	if inv["clustering"].Retained+inv["clustering"].Invalidated == 0 {
		t.Fatal("no clustering migration recorded")
	}
	if st := ix.Stats(); st.Epoch != 1 {
		t.Fatalf("Stats.Epoch = %d, want 1", st.Epoch)
	}
}

func TestApplyEditsEpochConflict(t *testing.T) {
	ix := New(editBase(3, 3), core.Options{Seed: 1, MaxRuns: 2})
	zero, one := uint64(0), uint64(1)

	if _, err := ix.ApplyEdits(EditBatch{Add: [][2]int32{{0, 4}}, IfEpoch: &one}); !errors.Is(err, ErrEpochConflict) {
		t.Fatalf("stale IfEpoch: err = %v, want ErrEpochConflict", err)
	}
	if ix.Epoch() != 0 {
		t.Fatal("failed batch advanced the epoch")
	}
	if _, err := ix.ApplyEdits(EditBatch{Add: [][2]int32{{0, 4}}, IfEpoch: &zero}); err != nil {
		t.Fatalf("matching IfEpoch rejected: %v", err)
	}
	if ix.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", ix.Epoch())
	}
}

func TestApplyEditsRejectsBadBatch(t *testing.T) {
	g := editBase(3, 3)
	ix := New(g, core.Options{Seed: 1, MaxRuns: 2})
	cases := []EditBatch{
		{Add: [][2]int32{{0, 1}}},     // already present
		{Remove: [][2]int32{{0, 8}}},  // absent
		{Add: [][2]int32{{2, 2}}},     // self-loop
		{Add: [][2]int32{{0, 99}}},    // out of range
		{Remove: [][2]int32{{-1, 0}}}, // negative
	}
	for i, b := range cases {
		if _, err := ix.ApplyEdits(b); !errors.Is(err, graph.ErrEdit) {
			t.Fatalf("case %d: err = %v, want graph.ErrEdit", i, err)
		}
	}
	if ix.Epoch() != 0 || !graph.Equal(ix.Graph(), g) {
		t.Fatal("rejected batches must leave the index unchanged")
	}
}

func TestApplyEditsRequirePlanar(t *testing.T) {
	// K4 plus an isolated-ish path; adding the fifth clique vertex's
	// edges would create K5.
	g := graph.FromEdges(5, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4},
	})
	ix := New(g, core.Options{Seed: 1, MaxRuns: 2})
	k5 := EditBatch{Add: [][2]int32{{0, 4}, {1, 4}, {2, 4}}, RequirePlanar: true}
	if _, err := ix.ApplyEdits(k5); !errors.Is(err, ErrNonPlanarEdit) {
		t.Fatalf("err = %v, want ErrNonPlanarEdit", err)
	}
	if ix.Epoch() != 0 {
		t.Fatal("rejected batch advanced the epoch")
	}
	if !ix.Planar() {
		t.Fatal("base graph should be planar")
	}
	// Without the gate the same batch applies, and the index keeps
	// answering (correctness does not need planarity, only the work
	// bound does).
	k5.RequirePlanar = false
	if _, err := ix.ApplyEdits(k5); err != nil {
		t.Fatalf("ungated batch rejected: %v", err)
	}
	if ix.Planar() {
		t.Fatal("K5 must not be planar")
	}
	found, err := ix.Decide(graph.Cycle(3))
	if err != nil || !found {
		t.Fatalf("post-edit Decide(C3) = %v, %v; want true", found, err)
	}
}

// TestApplyEditsEpochDrain is the concurrency contract under -race:
// scans pin one generation (answers always match exactly one epoch's
// oracle, never a mixture), concurrent saves stay decodable and
// byte-stable per epoch, and retired generations drain to zero.
func TestApplyEditsEpochDrain(t *testing.T) {
	opt := core.Options{Seed: 5, MaxRuns: 2}
	base := editBase(4, 4)
	patterns := []*graph.Graph{graph.Cycle(3), graph.Cycle(4)}

	// Precompute each epoch's expected answer vector (and graph) from
	// fresh builds: epoch e = base plus e diagonal edges.
	diagonals := [][2]int32{{0, 5}, {10, 15}, {2, 7}}
	oracle := make(map[uint64]string)
	graphs := make([]*graph.Graph, len(diagonals)+1)
	graphs[0] = base
	for e := 0; e <= len(diagonals); e++ {
		if e > 0 {
			var err error
			graphs[e], err = graphs[e-1].WithEdits([][2]int32{diagonals[e-1]}, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		fresh := New(graphs[e], opt)
		var vec string
		for _, r := range fresh.Scan(context.Background(), patterns) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			vec += fmt.Sprintf("%v,", r.Found)
		}
		oracle[uint64(e)] = vec
	}

	ix := New(base, opt)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 64)

	// Scanners: every result vector must be exactly one epoch's.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var vec string
				for _, r := range ix.Scan(context.Background(), patterns) {
					if r.Err != nil {
						errc <- r.Err
						return
					}
					vec += fmt.Sprintf("%v,", r.Found)
				}
				ok := false
				for _, want := range oracle {
					if vec == want {
						ok = true
						break
					}
				}
				if !ok {
					errc <- fmt.Errorf("scan vector %q matches no epoch oracle %v", vec, oracle)
					return
				}
			}
		}()
	}

	// Saver: snapshots taken mid-churn must decode, and each must carry
	// a valid epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				errc <- err
				return
			}
			s, err := snap.Read(&buf)
			if err != nil {
				errc <- fmt.Errorf("mid-churn snapshot unreadable: %w", err)
				return
			}
			if s.Epoch > uint64(len(diagonals)) {
				errc <- fmt.Errorf("snapshot epoch %d out of range", s.Epoch)
				return
			}
			if !graph.Equal(s.Graph, graphs[s.Epoch]) {
				errc <- fmt.Errorf("snapshot at epoch %d carries a different epoch's graph", s.Epoch)
				return
			}
		}
	}()

	// Editor: apply the diagonal edits with small gaps.
	for _, d := range diagonals {
		time.Sleep(20 * time.Millisecond)
		if _, err := ix.ApplyEdits(EditBatch{Add: [][2]int32{d}}); err != nil {
			t.Fatalf("ApplyEdits: %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if ix.Epoch() != uint64(len(diagonals)) {
		t.Fatalf("final epoch = %d, want %d", ix.Epoch(), len(diagonals))
	}
	// All pins are released: retired generations have drained.
	for i := 0; i < 100 && ix.RetiredGenerations() != 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := ix.RetiredGenerations(); n != 0 {
		t.Fatalf("%d retired generations still pinned after drain", n)
	}

	// Quiescent byte-stability at the final epoch.
	var a, b bytes.Buffer
	if err := ix.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("quiescent saves are not byte-stable")
	}
}

// TestApplyEditsSnapshotRoundTrip checks a warm boot resumes the
// mutation history: epoch and artifacts survive Save/Load, and further
// edits continue from the restored epoch.
func TestApplyEditsSnapshotRoundTrip(t *testing.T) {
	ix := New(editBase(4, 4), core.Options{Seed: 2, MaxRuns: 2})
	if _, err := ix.Decide(graph.Cycle(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyEdits(EditBatch{Add: [][2]int32{{0, 5}}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Epoch() != 1 {
		t.Fatalf("restored epoch = %d, want 1", ix2.Epoch())
	}
	if !graph.Equal(ix2.Graph(), ix.Graph()) {
		t.Fatal("restored graph differs")
	}
	if _, err := ix2.ApplyEdits(EditBatch{Remove: [][2]int32{{0, 5}}}); err != nil {
		t.Fatal(err)
	}
	if ix2.Epoch() != 2 {
		t.Fatalf("epoch after restored edit = %d, want 2", ix2.Epoch())
	}
}
