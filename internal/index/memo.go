package index

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"planarsi/internal/core"
)

// memo is one cover table: every plain or separating prepared cover of
// a generation is built at most once per key here and shared by every
// query, and every reader of the tables — Stats, MemoStats, Snapshot,
// FromSnapshot, ApplyEdits migration — goes through the same few
// methods.
//
// The one rule: get is never called from a par pool task. A build runs
// par loops, and a pool join helps by running any ready task on the
// joining goroutine; a task that waited in get for the key its own
// goroutine was building would wait forever. Queries and Prewarm call
// get from their own goroutines, between their par loops (the run loops
// in internal/core fetch each run's cover before sweeping its bands).
type memo struct {
	ctr   *memoCounters
	mu    sync.Mutex
	cells map[coverKey]*memoCell
}

// memoCell is one key's entry. ready is closed once the build has
// returned or panicked; done (written under memo.mu before ready closes)
// marks a completed build whose val and bytes are published.
type memoCell struct {
	ready chan struct{}
	done  bool
	val   *core.PreparedCover
	bytes int64
}

// memoEntry is one completed entry, as each visits it.
type memoEntry struct {
	key   coverKey
	val   *core.PreparedCover
	bytes int64
}

// errBuildPanicked is what a waiter on a build that panicked panics
// with; its query's Guard reports it and the next get rebuilds.
var errBuildPanicked = errors.New("index: artifact build panicked concurrently; retry")

func newMemo(ctr *memoCounters) *memo {
	return &memo{ctr: ctr, cells: make(map[coverKey]*memoCell)}
}

// get returns key's value, running build on the first request.
// Concurrent requests for a key under construction wait for that one
// build. An access is a hit when it finds a completed entry. A build
// that panics drops its cell, so the next get rebuilds from scratch:
// builds are deterministic, so the rebuild yields the identical
// artifact.
func (m *memo) get(key coverKey, build func() *core.PreparedCover) *core.PreparedCover {
	m.mu.Lock()
	c, ok := m.cells[key]
	if !ok {
		c = &memoCell{ready: make(chan struct{})}
		m.cells[key] = c
	}
	hit := ok && c.done
	m.mu.Unlock()
	m.ctr.touch(hit)
	if !ok {
		m.fill(key, c, build)
	}
	<-c.ready
	if !c.done {
		panic(errBuildPanicked)
	}
	return c.val
}

// fill runs c's build, charging its wall time to the class, and
// publishes the value with its bytes. If build panics the cell is
// dropped instead. Either way its waiters are released.
func (m *memo) fill(key coverKey, c *memoCell, build func() *core.PreparedCover) {
	defer func() {
		m.mu.Lock()
		if !c.done {
			delete(m.cells, key)
		}
		m.mu.Unlock()
		close(c.ready)
	}()
	v := m.timed(build)
	bytes := v.MemBytes()
	m.mu.Lock()
	c.val, c.bytes, c.done = v, bytes, true
	m.mu.Unlock()
}

// timed runs build, charging its wall time to the class.
func (m *memo) timed(build func() *core.PreparedCover) *core.PreparedCover {
	t0 := time.Now()
	v := build()
	m.ctr.buildNanos.Add(time.Since(t0).Nanoseconds())
	return v
}

// uncached builds a value without caching it: every such access is a
// miss, and its build time is charged like a memoized build's.
func (m *memo) uncached(build func() *core.PreparedCover) *core.PreparedCover {
	m.ctr.touch(false)
	return m.timed(build)
}

// put installs an already built value with its accounted bytes (carried
// verbatim from a snapshot or an old generation), reporting false when
// key is already present.
func (m *memo) put(key coverKey, v *core.PreparedCover, bytes int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.cells[key]; dup {
		return false
	}
	c := &memoCell{ready: make(chan struct{}), done: true, val: v, bytes: bytes}
	close(c.ready)
	m.cells[key] = c
	return true
}

// each calls visit on every completed entry, in no particular order,
// without copying the table. Builds still running are left out, so the
// visit describes completed state. visit runs under the table's lock and
// must not call back into it.
func (m *memo) each(visit func(memoEntry)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, c := range m.cells {
		if c.done {
			visit(memoEntry{key, c.val, c.bytes})
		}
	}
}

// carry installs the completed entries of old, the same table in the
// previous generation. refresh computes an entry's successor on the
// edited graph and reports whether the old value survived; a survivor
// moves over verbatim (same pointer, same bytes). The returned delta
// counts both outcomes.
func (m *memo) carry(old *memo, refresh func(coverKey, *core.PreparedCover) (*core.PreparedCover, bool)) ClassDelta {
	var es []memoEntry
	old.each(func(e memoEntry) { es = append(es, e) })
	var d ClassDelta
	for _, e := range es {
		v, kept := refresh(e.key, e.val)
		if kept {
			m.put(e.key, e.val, e.bytes)
			d.Kept++
		} else {
			m.put(e.key, v, v.MemBytes())
			d.Rebuilt++
		}
	}
	return d
}

// Memo-cache observability: per-artifact-class hit/miss/build-time
// counters, kept out of Stats deliberately — Stats describes cache
// *contents* and round-trips through snapshots byte-identically, while
// these counters describe cache *traffic* and restart from zero with
// the process. The serving layer exports them as the
// planarsi_index_memo_* metric families.
//
// The synthetic "epoch" class covers live-graph mutation: its hits are
// artifacts retained verbatim across ApplyEdits migrations, its misses
// artifacts invalidated and rebuilt, its build time the migration work,
// and its entry count the live generations (1 + retired-but-draining).
// The per-class breakdown of the same retained/invalidated tallies is
// InvalidationStats.

// Artifact classes, in the order MemoStats reports them.
const (
	memoPlainCover = iota
	memoSepCover
	memoPattern
	memoEpoch
	numMemoClasses
)

var memoClassNames = [numMemoClasses]string{"cover", "separating", "pattern", "epoch"}

// Invalidation classes, in the order InvalidationStats reports them.
// Unlike the memo classes these count artifacts migrated by ApplyEdits:
// bands are decompositions within covers, so classes overlap by design
// (a rebuilt cover implies at least one rebuilt band; a kept cover
// implies all bands kept).
const (
	invalCover = iota
	invalSeparating
	invalBand
	numInvalClasses
)

var invalClassNames = [numInvalClasses]string{"cover", "separating", "band"}

// memoCounters is one artifact class's traffic counters.
type memoCounters struct {
	hits       atomic.Uint64
	misses     atomic.Uint64
	buildNanos atomic.Int64
}

// touch records one cache access.
func (m *memoCounters) touch(hit bool) {
	if hit {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
}

// invalCounters is one artifact class's lifetime mutation tallies.
type invalCounters struct {
	invalidated atomic.Uint64
	retained    atomic.Uint64
}

// MemoStats is one artifact class's cache-traffic snapshot.
type MemoStats struct {
	// Class names the artifact class: "cover" (plain prepared covers),
	// "separating" (separating prepared covers), "pattern" (compiled
	// patterns keyed by canonical form), "epoch" (artifact migration
	// across edit generations).
	Class string `json:"class"`
	// Hits counts accesses that found a fully built entry; Misses
	// counts the rest (entry absent, still building, or past
	// core.CoverRuns and deliberately uncached). For the epoch class,
	// Hits are artifacts retained across ApplyEdits and Misses
	// artifacts rebuilt.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// BuildSeconds totals wall time spent inside this class's builds; a
	// cover build includes the clustering it cuts the cover from.
	BuildSeconds float64 `json:"buildSeconds"`
	// Bytes and Entries describe the fully built entries currently
	// resident (the same accounting Stats aggregates across classes).
	// For the epoch class, Entries counts live generations (1 unless
	// retired generations are still draining) and Bytes is 0.
	Bytes   int64 `json:"bytes"`
	Entries int   `json:"entries"`
}

// MemoStats snapshots the per-class memo-cache traffic and residency,
// ordered cover, separating, pattern, epoch.
func (ix *Index) MemoStats() []MemoStats {
	out := make([]MemoStats, numMemoClasses)
	for c := range out {
		m := &ix.memo[c]
		out[c] = MemoStats{
			Class:        memoClassNames[c],
			Hits:         m.hits.Load(),
			Misses:       m.misses.Load(),
			BuildSeconds: float64(m.buildNanos.Load()) / 1e9,
		}
	}
	for c := range ix.inval {
		out[memoEpoch].Hits += ix.inval[c].retained.Load()
		out[memoEpoch].Misses += ix.inval[c].invalidated.Load()
	}
	out[memoEpoch].Entries = int(1 + ix.retiredGens.Load())

	gen := ix.acquire()
	defer ix.release(gen)
	gen.completed(func(e memoEntry) {
		c := memoPlainCover
		if e.key.sep {
			c = memoSepCover
		}
		out[c].Entries++
		out[c].Bytes += e.bytes
	})
	ix.pmu.Lock()
	for key := range ix.patterns {
		out[memoPattern].Entries++
		out[memoPattern].Bytes += int64(len(key)) + compiledBytes
	}
	ix.pmu.Unlock()
	return out
}

// InvalidationStats is one artifact class's lifetime mutation tally:
// how many artifacts ApplyEdits migrations invalidated (rebuilt) vs
// retained verbatim. The serving layer exports these as
// planarsi_index_invalidations_total / planarsi_index_retained_total.
type InvalidationStats struct {
	// Class names the artifact class: "cover", "separating" (memo
	// entries) or "band" (band decompositions within the migrated
	// covers — the granularity invalidation is surgical at).
	Class string `json:"class"`
	// Invalidated counts artifacts an edit actually touched, rebuilt
	// through the fresh-build path; Retained counts artifacts that
	// survived a migration verbatim. Cumulative over the Index's
	// lifetime; zero until the first ApplyEdits.
	Invalidated uint64 `json:"invalidated"`
	Retained    uint64 `json:"retained"`
}

// InvalidationStats snapshots the per-class mutation tallies, ordered
// cover, separating, band.
func (ix *Index) InvalidationStats() []InvalidationStats {
	out := make([]InvalidationStats, numInvalClasses)
	for c := range out {
		out[c] = InvalidationStats{
			Class:       invalClassNames[c],
			Invalidated: ix.inval[c].invalidated.Load(),
			Retained:    ix.inval[c].retained.Load(),
		}
	}
	return out
}
