package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelismTracksGOMAXPROCS is the regression test for the
// init-frozen worker count: a daemon that adjusts GOMAXPROCS at runtime
// must see the package-level engine follow, not the value read at package
// init.
func TestParallelismTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	for _, want := range []int{1, 3, 2} {
		runtime.GOMAXPROCS(want)
		if got := Parallelism(); got != want {
			t.Fatalf("after GOMAXPROCS(%d): Parallelism() = %d", want, got)
		}
		// The engine must stay functional across every resize.
		var sum atomic.Int64
		For(0, 100, func(i int) { sum.Add(int64(i)) })
		if sum.Load() != 4950 {
			t.Fatalf("after GOMAXPROCS(%d): For sum = %d, want 4950", want, sum.Load())
		}
	}
}

// TestSetParallelism checks that an explicit worker count pins the engine
// against GOMAXPROCS changes until unpinned with SetParallelism(0).
func TestSetParallelism(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer func() {
		SetParallelism(0)
		runtime.GOMAXPROCS(old)
	}()

	SetParallelism(2)
	if got := Parallelism(); got != 2 {
		t.Fatalf("after SetParallelism(2): Parallelism() = %d", got)
	}
	runtime.GOMAXPROCS(4)
	if got := Parallelism(); got != 2 {
		t.Fatalf("pinned engine must ignore GOMAXPROCS: Parallelism() = %d", got)
	}

	done := make(chan struct{})
	Do(func() {}, func() { close(done) })
	<-done

	SetParallelism(0)
	if got := Parallelism(); got != 4 {
		t.Fatalf("after unpin: Parallelism() = %d, want 4", got)
	}
}

// TestParallelismConcurrentResize hammers the engine while GOMAXPROCS
// flips, for the race detector.
func TestParallelismConcurrentResize(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	// Deferred calls run last-in first-out: the flipper is stopped and
	// joined before GOMAXPROCS is restored, so no late resize outlives
	// the test.
	defer runtime.GOMAXPROCS(old)
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
				runtime.GOMAXPROCS(1 + i%4)
			}
		}
	}()
	for iter := 0; iter < 50; iter++ {
		var sum atomic.Int64
		For(0, 1000, func(i int) { sum.Add(1) })
		if sum.Load() != 1000 {
			t.Fatalf("iteration %d: %d calls, want 1000", iter, sum.Load())
		}
	}
}
