package par

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatalf("Do did not run all functions: %d %d %d", a.Load(), b.Load(), c.Load())
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	Do() // must not panic
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("single-function Do did not run")
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 10_000} {
		counts := make([]atomic.Int32, n)
		For(0, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, counts[i].Load())
			}
		}
	}
}

func TestForNegativeRange(t *testing.T) {
	called := false
	For(5, 3, func(i int) { called = true })
	if called {
		t.Fatal("For on empty range called body")
	}
}

func TestForGrainVariants(t *testing.T) {
	for _, grain := range []int{-1, 0, 1, 3, 1000} {
		n := 257
		counts := make([]atomic.Int32, n)
		ForGrain(0, n, grain, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("grain=%d: index %d visited %d times", grain, i, counts[i].Load())
			}
		}
	}
}

func TestForBlocksPartition(t *testing.T) {
	n := 1023
	seen := make([]atomic.Int32, n)
	ForBlocks(0, n, 10, func(lo, hi int) {
		if hi-lo > 10 || hi <= lo {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, seen[i].Load())
		}
	}
}

func prefixSumSeq(xs []int64) ([]int64, int64) {
	out := make([]int64, len(xs))
	var acc int64
	for i, v := range xs {
		out[i] = acc
		acc += v
	}
	return out, acc
}

func TestExclusivePrefixSumMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 1000, 4096} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int64N(100) - 50
		}
		want, wantTotal := prefixSumSeq(xs)
		got := make([]int64, n)
		copy(got, xs)
		total := ExclusivePrefixSum(got)
		if total != wantTotal {
			t.Fatalf("n=%d: total=%d want %d", n, total, wantTotal)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: prefix[%d]=%d want %d", n, i, got[i], want[i])
			}
		}
	}
}

// Property: ExclusivePrefixSum agrees with the sequential scan on random
// inputs of random sizes.
func TestExclusivePrefixSumQuick(t *testing.T) {
	f := func(xs []int64) bool {
		want, wantTotal := prefixSumSeq(xs)
		got := make([]int64, len(xs))
		copy(got, xs)
		total := ExclusivePrefixSum(got)
		if total != wantTotal {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackKeepsOrder(t *testing.T) {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = i
	}
	got := Pack(xs, func(i int) bool { return xs[i]%3 == 0 })
	want := 0
	for _, v := range got {
		if v != want {
			t.Fatalf("Pack out of order: got %d want %d", v, want)
		}
		want += 3
	}
	if len(got) != 334 {
		t.Fatalf("Pack len=%d want 334", len(got))
	}
}

func TestNestedParallelFor(t *testing.T) {
	// Nesting must not deadlock even when it exceeds the worker count.
	var total atomic.Int64
	For(0, 50, func(i int) {
		For(0, 50, func(j int) {
			total.Add(1)
		})
	})
	if total.Load() != 2500 {
		t.Fatalf("nested For total=%d want 2500", total.Load())
	}
}
