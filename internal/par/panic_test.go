package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// recoverPanicError runs f and returns the *PanicError it panics with
// (nil if f returns normally; the test fails on any other panic value).
func recoverPanicError(t *testing.T, f func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			pe, ok = v.(*PanicError)
			if !ok {
				t.Fatalf("panicked with %T (%v), want *PanicError", v, v)
			}
		}
	}()
	f()
	return nil
}

func TestPoolTaskPanicReachesJoin(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 3; round++ {
		var ran atomic.Int32
		var pe *PanicError
		inScope(p, func(c *Ctx) {
			pe = recoverPanicError(t, func() {
				// Block 1 of three is forked, never the owner's inline block.
				c.ForBlocks(0, 3, 1, func(lo, _ int) {
					if lo == 1 {
						panic("boom")
					}
					ran.Add(1)
				})
			})
		})
		if pe == nil {
			t.Fatalf("round %d: panic did not reach join", round)
		}
		if pe.Value != "boom" {
			t.Fatalf("round %d: Value = %v", round, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("round %d: no stack captured", round)
		}
		if ran.Load() != 2 {
			t.Fatalf("round %d: siblings ran %d times, want 2", round, ran.Load())
		}
		// The pool must still work after the panic: same pool, new scope.
		var sum atomic.Int64
		inScope(p, func(c *Ctx) {
			c.ForBlocks(0, 1000, 1, func(lo, _ int) { sum.Add(int64(lo)) })
		})
		if sum.Load() != 999*1000/2 {
			t.Fatalf("round %d: pool wedged after panic: sum=%d", round, sum.Load())
		}
	}
}

func TestPoolInlinePanicStillJoinsForks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	errInline := errors.New("inline")
	var ran atomic.Int32
	var v any
	inScope(p, func(c *Ctx) {
		defer func() { v = recover() }()
		c.ForBlocks(0, 3, 1, func(lo, _ int) {
			if lo == 0 {
				panic(errInline) // block 0 runs inline on the scope owner
			}
			ran.Add(1)
		})
	})
	if err, ok := v.(error); !ok || !errors.Is(err, errInline) {
		t.Fatalf("inline panic lost or changed: %v", v)
	}
	if ran.Load() != 2 {
		t.Fatalf("forked siblings ran %d times before panic propagated, want 2", ran.Load())
	}
}

func TestPanicWrappedExactlyOnceAcrossNesting(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var pe *PanicError
	inScope(p, func(c *Ctx) {
		pe = recoverPanicError(t, func() {
			// Block 5 is forked inside the forked half [4, 8): the value
			// must cross both joins as the same *PanicError.
			c.ForBlocks(0, 8, 1, func(lo, _ int) {
				if lo == 5 {
					panic(fmt.Sprintf("nested-%d", lo))
				}
			})
		})
	})
	if pe == nil {
		t.Fatal("nested panic lost")
	}
	if pe.Value != "nested-5" {
		t.Fatalf("Value = %v (double-wrapped?)", pe.Value)
	}
}

func TestPackagePanicIsolationBothEngines(t *testing.T) {
	withEngine(t, func(t *testing.T) {
		SetParallelism(4)
		defer SetParallelism(0)

		pe := recoverPanicError(t, func() {
			ForGrain(0, 64, 1, func(i int) {
				if i == 17 {
					panic("for-panic")
				}
			})
		})
		if pe == nil || pe.Value != "for-panic" {
			t.Fatalf("For: pe=%v", pe)
		}

		pe = recoverPanicError(t, func() {
			ForBlocks(0, 64, 8, func(lo, _ int) {
				if lo == 32 {
					panic("blocks-panic")
				}
			})
		})
		if pe == nil || pe.Value != "blocks-panic" {
			t.Fatalf("ForBlocks: pe=%v", pe)
		}

		// The pool must be fully usable afterwards.
		var sum atomic.Int64
		For(0, 1000, func(i int) { sum.Add(int64(i)) })
		if sum.Load() != 999*1000/2 {
			t.Fatalf("pool wedged after panic: sum=%d", sum.Load())
		}
	})
}

// TestPackPanicPropagates: a panic in a forked block of Pack reaches the
// caller wrapped once as *PanicError, and one in an input short enough
// to run inline (at most minGrain elements) reaches it as the raw value.
func TestPackPanicPropagates(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	keep := func(at int) func(int) bool {
		return func(i int) bool {
			if i == at {
				panic("pack")
			}
			return true
		}
	}
	// Index 3000 of 4096 lies outside block 0, the owner's inline block.
	xs := make([]int, 8*minGrain)
	pe := recoverPanicError(t, func() { Pack(xs, keep(3000)) })
	if pe == nil || pe.Value != "pack" {
		t.Fatalf("Pack: pe=%v", pe)
	}

	func() {
		defer func() {
			if v := recover(); v != "pack" {
				t.Fatalf("inline Pack: recovered %v, want the raw value", v)
			}
		}()
		Pack(make([]int, 100), keep(42))
	}()
}

func TestSequentialPathPanicPropagates(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	// procs==1 runs inline with no recover machinery: the raw value
	// reaches the caller (nothing to isolate — it is the owner's own
	// goroutine). Assert it is not swallowed.
	defer func() {
		if v := recover(); v == nil {
			t.Fatal("sequential panic swallowed")
		}
	}()
	For(0, 10, func(i int) {
		if i == 3 {
			panic("seq")
		}
	})
}
