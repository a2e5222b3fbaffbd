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
		p.Run(func(c *Ctx) {
			pe = recoverPanicError(t, func() {
				c.Do(
					func(*Ctx) { ran.Add(1) },
					func(*Ctx) { panic("boom") },
					func(*Ctx) { ran.Add(1) },
				)
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
		p.Run(func(c *Ctx) {
			c.For(0, 1000, 1, func(i int) { sum.Add(int64(i)) })
		})
		if sum.Load() != 999*1000/2 {
			t.Fatalf("round %d: pool wedged after panic: sum=%d", round, sum.Load())
		}
	}
}

func TestPoolInlinePanicStillJoinsForks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int32
	p.Run(func(c *Ctx) {
		pe := recoverPanicError(t, func() {
			c.Do(
				func(*Ctx) { panic(errors.New("inline")) }, // runs inline on the scope owner
				func(*Ctx) { ran.Add(1) },
				func(*Ctx) { ran.Add(1) },
			)
		})
		if pe == nil {
			t.Fatal("inline panic lost")
		}
		if !errors.Is(pe, errors.New("inline")) && pe.Unwrap() == nil {
			t.Fatalf("error panic value not unwrappable: %v", pe)
		}
	})
	if ran.Load() != 2 {
		t.Fatalf("forked siblings ran %d times before panic propagated, want 2", ran.Load())
	}
}

func TestPanicWrappedExactlyOnceAcrossNesting(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var pe *PanicError
	p.Run(func(c *Ctx) {
		pe = recoverPanicError(t, func() {
			// Outer For → nested For inside a forked block → panic: the
			// value must cross both joins as the same *PanicError.
			c.For(0, 8, 1, func(i int) {
				if i == 5 {
					panic(fmt.Sprintf("nested-%d", i))
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
			Do(
				func() {},
				func() { panic("do-panic") },
				func() {},
			)
		})
		if pe == nil || pe.Value != "do-panic" {
			t.Fatalf("Do: pe=%v", pe)
		}

		// The pool must be fully usable afterwards.
		var sum atomic.Int64
		For(0, 1000, func(i int) { sum.Add(int64(i)) })
		if sum.Load() != 999*1000/2 {
			t.Fatalf("pool wedged after panic: sum=%d", sum.Load())
		}
	})
}

func TestReducePanicPropagates(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	pe := recoverPanicError(t, func() {
		Reduce(0, 100, 0, func(i int) int {
			if i == 42 {
				panic("reduce")
			}
			return i
		}, func(a, b int) int { return a + b })
	})
	if pe == nil || pe.Value != "reduce" {
		t.Fatalf("Reduce: pe=%v", pe)
	}
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
