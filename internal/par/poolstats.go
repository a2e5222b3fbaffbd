package par

import "sync/atomic"

// Pool-wide event counters, package-level so the totals survive pool
// replacements (poolFor retires and reinstalls the shared pool on a
// parallelism change). The hooks sit off the fork fast path: a
// successful steal already paid a CAS, a park is about to block, and a
// resize rebuilds the pool — one atomic add each is noise there.
var (
	poolSteals  atomic.Int64
	poolParks   atomic.Int64
	poolResizes atomic.Int64
)

// PoolStats is a snapshot of the work-stealing runtime's internals: the
// lifetime event counters plus the live shared pool's shape. The
// serving layer exports it as the planarsi_pool_* metric family.
type PoolStats struct {
	// Steals counts successful steals (a task taken from another
	// participant's deque) across every pool this process ran.
	Steals int64
	// Parks counts worker park events: a background worker found no
	// work anywhere and blocked until woken.
	Parks int64
	// Resizes counts shared-pool replacements (parallelism or
	// GOMAXPROCS changes observed by poolFor).
	Resizes int64
	// Workers is the live shared pool's participant count, 0 when no
	// pool is installed (sequential configuration).
	Workers int
	// Parked is how many of those workers are currently blocked waiting
	// for work; Workers - Parked approximates the active worker count.
	Parked int
}

// ReadPoolStats snapshots the pool counters and the live shared pool.
func ReadPoolStats() PoolStats {
	st := PoolStats{
		Steals:  poolSteals.Load(),
		Parks:   poolParks.Load(),
		Resizes: poolResizes.Load(),
	}
	if p := sharedPool.Load(); p != nil {
		st.Workers = p.procs
		st.Parked = int(p.parked.Load())
	}
	return st
}
