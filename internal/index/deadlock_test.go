package index

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planarsi/internal/core"
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
// rule: get is never called from a par pool task. Scan members of one
// pattern size share a clustering, and so do Prewarm's shapes of one
// size. When scan units and Prewarm runs were pool tasks, the
// work-stealing join inside one unit's clustering build could run a
// sibling unit on the building goroutine, and the sibling then blocked
// on the build that goroutine held. Every round uses a fresh Index, so
// every round races the same builds from scratch.
func TestMemoBuildsOffPool(t *testing.T) {
	par.SetParallelism(4)
	defer par.SetParallelism(0)
	g := editBase(8, 8)
	opt := core.Options{Seed: 5}
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	scan := func(t *testing.T, ix *Index, hs ...*graph.Graph) {
		for i, r := range ix.Scan(context.Background(), hs) {
			if r.Err != nil {
				t.Errorf("member %d: %v", i, r.Err)
			}
		}
	}

	t.Run("scan-after-edit", func(t *testing.T) {
		for round := 0; round < rounds; round++ {
			withWatchdog(t, func() {
				ix := New(g, opt)
				if _, err := ix.ApplyEdits(EditBatch{Remove: [][2]int32{{0, 1}}}); err != nil {
					t.Error(err)
					return
				}
				scan(t, ix, graph.Cycle(4), graph.Cycle(3), graph.Path(4))
			})
		}
	})

	t.Run("prewarm-with-scan", func(t *testing.T) {
		for round := 0; round < rounds; round++ {
			withWatchdog(t, func() {
				ix := New(g, opt)
				var wg sync.WaitGroup
				wg.Add(3)
				go func() { defer wg.Done(); ix.Prewarm(4, 2) }()
				go func() { defer wg.Done(); ix.Prewarm(4, 3) }()
				go func() { defer wg.Done(); scan(t, ix, graph.Path(4)) }()
				wg.Wait()
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
