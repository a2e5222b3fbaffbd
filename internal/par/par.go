// Package par provides the shared-memory parallel primitives that stand in
// for the paper's CREW PRAM: fork-join parallel loops, parallel prefix
// sums, packing, an explicit work-stealing pool, and a lightweight
// cooperative cancellation token (Canceller).
//
// The package-level functions (For, ForBlocks, ExclusivePrefixSum, Pack, ...)
// run every operation as a structured fork-join scope on a shared, lazily
// started work-stealing Pool (Chase-Lev deques, help-while-joining — the
// greedy scheduler the paper's Brent-style bounds assume). Scopes keep
// load balanced when item costs are skewed: an idle participant steals
// half-ranges from whoever is behind.
//
// The worker count is SetParallelism's when pinned, else
// runtime.GOMAXPROCS(0) re-read per operation; with one worker every
// operation runs inline and sequentially.
package par

import (
	"runtime"
	"sync/atomic"
)

// engine is one sizing of the package-level runtime. Engines are
// immutable; resizing installs a fresh engine, and operations in flight
// keep the engine they captured at entry.
type engine struct {
	procs int
	// pinned marks an engine installed by SetParallelism: current() stops
	// tracking runtime.GOMAXPROCS until SetParallelism(0) unpins.
	pinned bool
}

var eng atomic.Pointer[engine]

func init() { eng.Store(newEngine(runtime.GOMAXPROCS(0), false)) }

func newEngine(procs int, pinned bool) *engine {
	if procs < 1 {
		procs = 1
	}
	return &engine{procs: procs, pinned: pinned}
}

// current returns the engine sizing to use for one operation, first
// re-reading runtime.GOMAXPROCS(0) so daemons that resize the scheduler
// at runtime get the parallelism they asked for. The GOMAXPROCS query
// takes a runtime-internal lock, so current() is called once per parallel
// operation (a loop launch, not a loop element) and the helpers thread
// the engine through; pinning with SetParallelism skips the query
// entirely. The CAS race on resize is benign (both candidates are
// correctly sized).
func current() *engine {
	e := eng.Load()
	if e.pinned {
		return e
	}
	if p := runtime.GOMAXPROCS(0); p != e.procs {
		ne := newEngine(p, false)
		if eng.CompareAndSwap(e, ne) {
			return ne
		}
		return eng.Load()
	}
	return e
}

// Parallelism reports the number of workers the package-level functions use:
// the value fixed by SetParallelism, or runtime.GOMAXPROCS(0) (re-read on
// every operation, not frozen at package init).
func Parallelism() int { return current().procs }

// SetParallelism fixes the package-level worker count to n, decoupling it
// from runtime.GOMAXPROCS; n <= 0 reverts to tracking
// runtime.GOMAXPROCS(0). Operations already in flight finish on the
// engine they started with; the shared pool is re-sized lazily by the
// next operation.
func SetParallelism(n int) {
	if n <= 0 {
		eng.Store(newEngine(runtime.GOMAXPROCS(0), false))
	} else {
		eng.Store(newEngine(n, true))
	}
	if eng.Load().procs == 1 {
		// Downsized to sequential: retire the pool now rather than
		// waiting for the next operation's dispatch to do it.
		retireSharedPool()
	}
}

// sharedPool is the lazily started pool behind the package functions,
// swapped whenever the requested worker count changes.
var sharedPool atomic.Pointer[Pool]

// poolFor returns a shared pool with the given parallelism, starting or
// resizing it as needed. A replaced pool is retired asynchronously: its
// workers drain their remaining tasks and exit, while scopes still
// registered on it keep making progress on their own goroutines.
func poolFor(procs int) *Pool {
	for {
		p := sharedPool.Load()
		if p != nil && p.procs == procs {
			return p
		}
		np := NewPool(procs)
		if sharedPool.CompareAndSwap(p, np) {
			poolResizes.Add(1)
			if p != nil {
				go p.Close()
			}
			return np
		}
		go np.Close() // lost the race; another resize installed a pool
	}
}

// retireSharedPool closes and clears the shared pool. The procs==1
// dispatch paths call it so downsizing to a sequential configuration
// (SetParallelism(1) or runtime.GOMAXPROCS(1)) does not strand the
// previous pool's parked workers for the process lifetime; the next
// parallel operation lazily starts a fresh pool.
func retireSharedPool() {
	if p := sharedPool.Load(); p != nil && sharedPool.CompareAndSwap(p, nil) {
		go p.Close()
	}
}

// runBlocks is the engine dispatch shared by every block-structured
// combinator: split [lo, hi) into blocks of at most grain indices and run
// body on each, possibly in parallel, with logarithmic fork depth
// (matching the PRAM convention that a parallel-for costs O(log n) depth
// to fork).
func runBlocks(e *engine, lo, hi, grain int, body func(lo, hi int)) {
	if lo >= hi {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		// A single block: run inline without touching the pool.
		body(lo, hi)
		return
	}
	if e.procs == 1 {
		// Sequential fallback, still honoring the ≤ grain block contract.
		retireSharedPool()
		for l := lo; l < hi; l += grain {
			body(l, min(l+grain, hi))
		}
		return
	}
	p := poolFor(e.procs)
	c := p.enter()
	defer p.exit(c)
	c.ForBlocks(lo, hi, grain, body)
}

// For runs f(i) for every i in [lo, hi), possibly in parallel, with an
// automatically chosen grain size of at least minGrain: it is for cheap
// bodies, and ranges up to minGrain run inline. A heavy per-index body
// belongs in ForGrain(lo, hi, 1, f).
func For(lo, hi int, f func(i int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	e := current()
	runBlocks(e, lo, hi, grainFor(e, n), func(l, h int) {
		for i := l; i < h; i++ {
			f(i)
		}
	})
}

// ForGrain runs f(i) for every i in [lo, hi) with the given grain size:
// ranges of at most grain indices run sequentially.
func ForGrain(lo, hi, grain int, f func(i int)) {
	ForBlocks(lo, hi, grain, func(l, h int) {
		for i := l; i < h; i++ {
			f(i)
		}
	})
}

// ForBlocks splits [lo, hi) into blocks of at most grain indices and runs
// body on each block, possibly in parallel.
func ForBlocks(lo, hi, grain int, body func(lo, hi int)) {
	runBlocks(current(), lo, hi, grain, body)
}

// alignedBlocks partitions [lo, hi) into ⌈n/grain⌉ consecutive blocks of
// exactly grain indices (the last may be short) and runs body(b, l, h) for
// each block b, possibly in parallel. Unlike ForBlocks, block boundaries
// are aligned multiples of grain, so b indexes per-block scratch safely.
func alignedBlocks(e *engine, lo, hi, grain int, body func(b, l, h int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	nblocks := (n + grain - 1) / grain
	runBlocks(e, 0, nblocks, 1, func(bl, bh int) {
		for b := bl; b < bh; b++ {
			l := lo + b*grain
			h := l + grain
			if h > hi {
				h = hi
			}
			body(b, l, h)
		}
	})
}

// minGrain is the smallest block For, ExclusivePrefixSum and Pack fork
// off: their bodies are a few instructions per index, and below about
// this many indices a fork-join costs more than the work it forks.
// Loops whose per-index body is heavy pass their own grain through
// ForGrain.
const minGrain = 512

func grainFor(e *engine, n int) int {
	return max(n/(8*e.procs), minGrain)
}

// Integer is the constraint for the prefix-sum and pack helpers.
type Integer interface {
	~int | ~int32 | ~int64
}

// ExclusivePrefixSum replaces xs with its exclusive prefix sum and returns
// the total. It uses the standard two-pass blocked parallel scan
// (O(n) work, O(log n) depth up to the block-combine pass).
func ExclusivePrefixSum[T Integer](xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	e := current()
	grain := grainFor(e, n)
	nblocks := (n + grain - 1) / grain
	sums := make([]T, nblocks)
	alignedBlocks(e, 0, n, grain, func(b, l, h int) {
		var s T
		for i := l; i < h; i++ {
			s += xs[i]
		}
		sums[b] = s
	})
	var total T
	for b := 0; b < nblocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	alignedBlocks(e, 0, n, grain, func(b, l, h int) {
		acc := sums[b]
		for i := l; i < h; i++ {
			v := xs[i]
			xs[i] = acc
			acc += v
		}
	})
	return total
}

// Pack returns the elements of xs whose index satisfies keep, preserving
// order, using a parallel prefix sum over flags (O(n) work, O(log n) depth).
// keep runs under For's grain, so it should be cheap.
func Pack[T any](xs []T, keep func(i int) bool) []T {
	n := len(xs)
	if n == 0 {
		return nil
	}
	flags := make([]int32, n)
	For(0, n, func(i int) {
		if keep(i) {
			flags[i] = 1
		}
	})
	total := ExclusivePrefixSum(flags)
	out := make([]T, total)
	For(0, n, func(i int) {
		if keep(i) {
			out[flags[i]] = xs[i]
		}
	})
	return out
}
