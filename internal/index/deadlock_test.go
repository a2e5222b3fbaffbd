package index

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/fault"
	"planarsi/internal/graph"
	"planarsi/internal/par"
)

// deadlockWatchdog bounds one round of TestMemoBuildsOffPool: a round
// takes milliseconds, so a round still running after it is stuck.
const deadlockWatchdog = 30 * time.Second

// withWatchdog runs f and fails the test instead of hanging when f has
// not returned within deadlockWatchdog.
func withWatchdog(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(deadlockWatchdog):
		t.Fatalf("no progress after %v: a memo build is waiting on itself", deadlockWatchdog)
	}
}

// TestMemoBuildsOffPool is the regression test for the memo table's one
// rule: get is never called from a par pool task. Each round races
// several requesters of the same cover keys: three Scans of one batch
// after an edit, or Prewarm(4, 2) beside two Scans whose paw and C4
// members draw the same run-0 and layered covers. When scan units and
// Prewarm runs were pool tasks, the work-stealing join inside one
// goroutine's cover build could run another requester's unit for the key
// being built on the building goroutine, and that unit then blocked on
// the build its own goroutine held. Every round uses a fresh Index, so
// every round races the same builds from scratch, and every band sleeps
// 1ms (band.latency) so that the requesters meet inside a build on
// every run, not by chance.
func TestMemoBuildsOffPool(t *testing.T) {
	par.SetParallelism(4)
	defer par.SetParallelism(0)
	if err := fault.Enable("band.latency=dur:1ms", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	g := editBase(8, 8)
	opt := core.Options{Seed: 5}
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	// The paw (a triangle with a pendant edge) misses the grid, so its
	// shape group draws the layered cover too.
	paw := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	batch := []*graph.Graph{graph.Path(4), graph.Cycle(4), paw, graph.Cycle(3), graph.Path(3), graph.Path(5)}
	scan := func(t *testing.T, ix *Index) func() {
		return func() {
			for i, r := range ix.Scan(context.Background(), batch) {
				if r.Err != nil {
					t.Errorf("member %d: %v", i, r.Err)
				}
			}
		}
	}
	// race runs every f at once and waits for all of them.
	race := func(fs ...func()) {
		var wg sync.WaitGroup
		for _, f := range fs {
			wg.Add(1)
			go func() { defer wg.Done(); f() }()
		}
		wg.Wait()
	}

	t.Run("scan-after-edit", func(t *testing.T) {
		for round := 0; round < rounds; round++ {
			withWatchdog(t, func() {
				ix := New(g, opt)
				if _, err := ix.ApplyEdits(EditBatch{Remove: [][2]int32{{0, 1}}}); err != nil {
					t.Error(err)
					return
				}
				race(scan(t, ix), scan(t, ix), scan(t, ix))
			})
		}
	})

	t.Run("prewarm-with-scan", func(t *testing.T) {
		for round := 0; round < rounds; round++ {
			withWatchdog(t, func() {
				ix := New(g, opt)
				race(func() { ix.Prewarm(4, 2) }, scan(t, ix), scan(t, ix))
			})
		}
	})
}

// TestOffPool checks the loop beneath Scan and Prewarm: every index runs
// exactly once, at most par.Parallelism() at a time, and a panic in any
// f reaches the caller's Guard with its original value.
func TestOffPool(t *testing.T) {
	par.SetParallelism(4)
	defer par.SetParallelism(0)
	for _, n := range []int{0, 1, 3, 4, 40} {
		runs := make([]atomic.Int32, n)
		var live, peak atomic.Int32
		offPool(n, func(i int) {
			l := live.Add(1)
			for p := peak.Load(); l > p && !peak.CompareAndSwap(p, l); p = peak.Load() {
			}
			runs[i].Add(1)
			time.Sleep(time.Millisecond)
			live.Add(-1)
		})
		for i := range runs {
			if r := runs[i].Load(); r != 1 {
				t.Errorf("n=%d: f(%d) ran %d times", n, i, r)
			}
		}
		if p := peak.Load(); p > 4 {
			t.Errorf("n=%d: %d calls at once, want at most 4", n, p)
		}
	}

	err := Guard(func() error {
		offPool(8, func(i int) {
			if i == 5 {
				panic("unit 5")
			}
		})
		return nil
	})
	var qp *QueryPanicError
	if !errors.As(err, &qp) || qp.Value != "unit 5" {
		t.Fatalf("err = %v, want the panic of f(5)", err)
	}
}
