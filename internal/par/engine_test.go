package par

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// withEngine runs f as the "pool" subtest: the combinator contracts the
// work-stealing pool behind the package-level functions must satisfy.
func withEngine(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("pool", f)
}

func TestEnginesCoverRangeExactlyOnce(t *testing.T) {
	withEngine(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 100, 10_000} {
			counts := make([]atomic.Int32, n)
			For(0, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if counts[i].Load() != 1 {
					t.Fatalf("n=%d: index %d visited %d times", n, i, counts[i].Load())
				}
			}
		}
	})
}

func TestEnginesNestedFor(t *testing.T) {
	withEngine(t, func(t *testing.T) {
		var total atomic.Int64
		For(0, 40, func(i int) {
			For(0, 40, func(j int) {
				For(0, 5, func(k int) { total.Add(1) })
			})
		})
		if total.Load() != 40*40*5 {
			t.Fatalf("triple-nested For total=%d want %d", total.Load(), 40*40*5)
		}
	})
}

func TestEnginesReducePackPrefix(t *testing.T) {
	withEngine(t, func(t *testing.T) {
		n := 4096
		if got := Reduce(0, n, 0, func(i int) int { return i }, func(a, b int) int { return a + b }); got != n*(n-1)/2 {
			t.Fatalf("Reduce=%d want %d", got, n*(n-1)/2)
		}
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = 1
		}
		if total := ExclusivePrefixSum(xs); total != int64(n) {
			t.Fatalf("prefix total=%d want %d", total, n)
		}
		for i := range xs {
			if xs[i] != int64(i) {
				t.Fatalf("prefix[%d]=%d want %d", i, xs[i], i)
			}
		}
		idx := PackIndex(n, func(i int) bool { return i%7 == 0 })
		if len(idx) != (n+6)/7 {
			t.Fatalf("PackIndex len=%d", len(idx))
		}
	})
}

// TestPoolNestedForConcurrentResize is the cancellation-soundness
// satellite's race test: deeply nested pool-backed loops must stay
// correct while SetParallelism keeps swapping the shared pool under
// them (run under -race by make race).
func TestPoolNestedForConcurrentResize(t *testing.T) {
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	// Deferred calls run last-in first-out: the flipper is stopped and
	// joined before the unpin, so no late SetParallelism outlives the test.
	defer SetParallelism(0)
	defer flipper.Wait()
	defer close(stop)
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetParallelism(1 + i%5)
			}
		}
	}()
	for iter := 0; iter < 30; iter++ {
		var total atomic.Int64
		For(0, 30, func(i int) {
			For(0, 30, func(j int) { total.Add(1) })
		})
		if total.Load() != 900 {
			t.Fatalf("iteration %d: total=%d want 900", iter, total.Load())
		}
	}
}

// TestSetParallelismOneRetiresPool: downsizing to a sequential
// configuration must not strand the shared pool's parked workers.
func TestSetParallelismOneRetiresPool(t *testing.T) {
	SetParallelism(3)
	defer SetParallelism(0)
	var sum atomic.Int64
	For(0, 1000, func(i int) { sum.Add(1) })
	if sum.Load() != 1000 {
		t.Fatalf("For sum=%d", sum.Load())
	}
	if sharedPool.Load() == nil {
		t.Fatal("parallel For should have started the shared pool")
	}
	SetParallelism(1)
	if p := sharedPool.Load(); p != nil {
		t.Fatalf("SetParallelism(1) left the shared pool alive (procs=%d)", p.procs)
	}
	// Still functional sequentially, and again after re-upsizing.
	sum.Store(0)
	For(0, 100, func(i int) { sum.Add(1) })
	SetParallelism(4)
	For(0, 100, func(i int) { sum.Add(1) })
	if sum.Load() != 200 {
		t.Fatalf("post-resize sum=%d", sum.Load())
	}
}

// TestPoolSharedAcrossGoroutines drives many goroutines through the
// shared pool at once; every loop must still cover its range exactly
// once (scopes from different goroutines steal from each other).
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	const G = 8
	errc := make(chan error, G)
	for g := 0; g < G; g++ {
		go func() {
			for iter := 0; iter < 20; iter++ {
				n := 500
				counts := make([]atomic.Int32, n)
				For(0, n, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if counts[i].Load() != 1 {
						errc <- fmt.Errorf("index %d visited %d times", i, counts[i].Load())
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < G; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
