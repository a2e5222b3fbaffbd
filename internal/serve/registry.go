// Package serve is the long-lived serving layer on top of the batch-query
// engine: a multi-graph registry of planarsi Indexes, a micro-batching
// query scheduler that coalesces concurrent requests into shared
// Index.Scan batches, and the HTTP handlers behind the planarsid daemon.
//
// The paper's pipeline amortizes target-side preprocessing (k-d covers
// and their nice band decompositions) across queries; the Index
// memoizes those artifacts in-process. This package turns that
// in-process cache into a service: graphs live in a ref-counted registry
// whose cached artifacts are evicted LRU-first under a memory budget
// (driven by Index.Stats accounting), and concurrent requests against the
// same host graph are coalesced over a small time window so the shared
// preprocessing is paid once per window instead of once per request.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/index"
	"planarsi/internal/par"
	"planarsi/internal/snap"
)

// RegistryOptions configures a Registry.
type RegistryOptions struct {
	// Pipeline is the planarsi option set shared by every Index the
	// registry owns. Fixing it registry-wide keeps batched answers
	// byte-identical to the direct API with the same options.
	Pipeline core.Options
	// MaxBytes is the memory budget enforced by Maintain over the sum of
	// every entry's graph bytes plus cached-artifact bytes (Index.Stats).
	// 0 disables eviction.
	MaxBytes int64
	// OnRemove, when non-nil, is called (outside the registry lock) for
	// every entry that leaves the registry, whether evicted or removed
	// explicitly. The scheduler uses it to drop the entry's batch groups.
	OnRemove func(*Entry)
}

// Registry is a named collection of host graphs, each owning one
// planarsi Index. Entries are ref-counted: Acquire pins an entry for the
// duration of a request and Release unpins it, and only unpinned,
// unreferenced entries are eligible for eviction. All methods are safe
// for concurrent use.
type Registry struct {
	opt RegistryOptions

	mu      sync.Mutex
	entries map[string]*Entry
	clock   int64 // LRU timestamp source, bumped on every Acquire

	resets    uint64 // cache sheds (stage-1 eviction)
	evictions uint64 // entry removals (stage-2 eviction)
}

// Entry is one registered host graph with its Index. Obtain entries with
// Acquire (and Release them) or Register.
type Entry struct {
	name string
	ix   *index.Index
	// opt is the owning registry's pipeline option set (fixed for the
	// entry's lifetime, like the Index's).
	opt core.Options

	// pinned entries (daemon-preloaded graphs) are never removed from
	// the registry by eviction; their cached artifacts can still be shed.
	pinned bool

	// refs and lastUsed are guarded by the owning registry's mu.
	refs     int
	lastUsed int64

	// The vertex-connectivity cache, keyed by the Index's edit epoch:
	// within one epoch the graph and the pipeline options are fixed, so
	// the (seeded, deterministic) answer never changes; an ApplyEdits
	// invalidates it by advancing the epoch.
	connMu    sync.Mutex
	connOK    bool
	connEpoch uint64
	connRes   conn.Result
	connErr   error
}

// Name returns the entry's registry name.
func (e *Entry) Name() string { return e.name }

// Pinned reports whether the entry is exempt from stage-2 eviction
// (daemon-preloaded and snapshot-restored-as-pinned graphs).
func (e *Entry) Pinned() bool { return e.pinned }

// Graph returns the entry's host graph at its current edit epoch.
func (e *Entry) Graph() *graph.Graph { return e.ix.Graph() }

// Index returns the entry's shared-preprocessing Index.
func (e *Entry) Index() *index.Index { return e.ix }

// Connectivity returns the host graph's vertex connectivity under the
// registry's pipeline options, computed at most once per edit epoch (it
// needs the planar embedding, which the Index also caches; within an
// epoch the graph and the options are fixed, so the seeded answer never
// changes, and an ApplyEdits invalidates the cache by advancing the
// epoch). A panic in the computation propagates to the caller — the
// index.Guard in Scheduler.Direct reports it as an incident — and
// unwinds past the cache write, so the next call computes afresh. When
// ctx ends mid-computation the searches stop at their next checkpoint
// and ctx's error is returned; a cancelled computation is never cached.
func (e *Entry) Connectivity(ctx context.Context) (conn.Result, error) {
	e.connMu.Lock()
	defer e.connMu.Unlock()
	epoch := e.ix.Epoch()
	if e.connOK && e.connEpoch == epoch {
		return e.connRes, e.connErr
	}
	cancel, stop := par.WatchContext(ctx)
	defer stop()
	res, err := e.computeConnectivity(cancel)
	if errors.Is(err, par.ErrCancelled) {
		return conn.Result{}, ctx.Err()
	}
	// Cache only if no edit landed during the computation; the answer is
	// still returned (it is consistent with whichever generation the
	// embedding call pinned), and the next caller recomputes against the
	// settled epoch.
	if e.ix.Epoch() == epoch {
		e.connRes, e.connErr, e.connEpoch, e.connOK = res, err, epoch, true
	} else {
		e.connOK = false
	}
	return res, err
}

// computeConnectivity runs one vertex-connectivity computation on the
// embedded host graph.
func (e *Entry) computeConnectivity(cancel *par.Canceller) (conn.Result, error) {
	g, err := e.ix.Embedded()
	if err != nil {
		return conn.Result{}, err
	}
	return conn.VertexConnectivity(g, conn.Options{
		Seed:    e.opt.Seed,
		MaxRuns: e.opt.MaxRuns,
		Cancel:  cancel,
	})
}

// NewRegistry returns an empty registry.
func NewRegistry(opt RegistryOptions) *Registry {
	return &Registry{opt: opt, entries: make(map[string]*Entry)}
}

// Register adds a named host graph, building its (lazy) Index, and
// returns the new entry. It fails if the name is taken. When pinned, the
// entry is exempt from stage-2 eviction (its artifact cache can still be
// shed under memory pressure).
func (r *Registry) Register(name string, g *graph.Graph, pinned bool) (*Entry, error) {
	e := &Entry{
		name:   name,
		ix:     index.New(g, r.opt.Pipeline),
		opt:    r.opt.Pipeline,
		pinned: pinned,
	}
	if err := r.insert(e); err != nil {
		return nil, err
	}
	r.Maintain()
	return e, nil
}

// insert adds a fully built entry under the registry lock.
func (r *Registry) insert(e *Entry) error {
	if e.name == "" {
		return fmt.Errorf("serve: empty graph name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.entries[e.name]; taken {
		return fmt.Errorf("serve: graph %q already registered", e.name)
	}
	r.clock++
	e.lastUsed = r.clock
	r.entries[e.name] = e
	return nil
}

// WriteSnapshot serializes the named entry — its host graph, pinned
// mark, and every completed cached artifact of its Index — to w in the
// internal/snap format. The entry is pinned by Acquire for the duration
// of the write, so eviction cannot drop it mid-save; artifacts are
// immutable, so concurrent queries are fine (an eviction-shed cache or
// a save racing query-driven builds simply snapshots fewer artifacts —
// partial snapshots restore to a smaller, still-correct warm cache).
func (r *Registry) WriteSnapshot(w io.Writer, name string) error {
	e := r.Acquire(name)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	defer r.Release(e)
	s := e.ix.Snapshot()
	s.Name = e.name
	s.Pinned = e.pinned
	return snap.Write(w, s)
}

// RestoreSnapshot reads one entry snapshot (written by WriteSnapshot)
// and registers it under its recorded name and pinned mark, with the
// restored artifact cache already warm. maxVertices, when positive,
// bounds the accepted graph size (the network-facing daemon's cap).
// Snapshots built under pipeline options different from the registry's
// are refused: registry answers must stay byte-identical to the direct
// API with the registry's own options.
func (r *Registry) RestoreSnapshot(rd io.Reader, maxVertices int) (*Entry, error) {
	s, err := snap.Read(rd)
	if err != nil {
		return nil, err
	}
	if !s.Options.SameConfig(r.opt.Pipeline) {
		return nil, fmt.Errorf("serve: snapshot %q was built under different pipeline options (seed/engine/runs/heuristic/beta must match the registry's)", s.Name)
	}
	if maxVertices > 0 && s.Graph.N() > maxVertices {
		return nil, fmt.Errorf("serve: snapshot %q holds %d vertices, over the %d limit", s.Name, s.Graph.N(), maxVertices)
	}
	// Rebuild the Index under the registry's own option set — SameConfig
	// proved the value fields equal, and this reattaches the pipeline's
	// per-call hooks (Tracker, Stats), which are never serialized, so
	// restored entries behave exactly like Register-created ones.
	s.Options = r.opt.Pipeline
	ix, err := index.FromSnapshot(s)
	if err != nil {
		return nil, err
	}
	e := &Entry{
		name:   s.Name,
		ix:     ix,
		opt:    r.opt.Pipeline,
		pinned: s.Pinned,
	}
	if err := r.insert(e); err != nil {
		return nil, err
	}
	r.Maintain()
	return e, nil
}

// ApplyEdits applies one batch of edge edits to the named entry's Index,
// advancing its edit epoch (see index.ApplyEdits for the migration and
// consistency contract: in-flight queries drain against the pre-edit
// generation; later queries see the edited graph with unaffected
// artifacts retained). Failures wrap ErrNotFound for unknown names and
// otherwise pass through the Index's error classes (graph.ErrEdit,
// index.ErrEpochConflict, index.ErrNonPlanarEdit). The edited artifact
// tables are re-measured against the memory budget before returning.
func (r *Registry) ApplyEdits(name string, b index.EditBatch) (index.EditResult, error) {
	e := r.Acquire(name)
	if e == nil {
		return index.EditResult{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	res, err := e.ix.ApplyEdits(b)
	r.Release(e)
	if err == nil {
		r.Maintain()
	}
	return res, err
}

// Acquire pins the named entry for the duration of a request (bumping its
// LRU timestamp) and returns it; the caller must Release it. Unknown
// names return nil.
func (r *Registry) Acquire(name string) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		return nil
	}
	e.refs++
	r.clock++
	e.lastUsed = r.clock
	return e
}

// Release unpins an entry obtained from Acquire.
func (r *Registry) Release(e *Entry) {
	r.mu.Lock()
	e.refs--
	r.mu.Unlock()
}

// ErrNotFound reports an operation on a graph name that is not
// registered.
var ErrNotFound = errors.New("serve: graph not registered")

// ErrInUse reports a removal refused because requests still hold the
// entry.
var ErrInUse = errors.New("serve: graph is in use")

// Remove deletes the named entry, refusing while requests still hold it.
// Failures wrap ErrNotFound or ErrInUse (decided atomically under the
// registry lock).
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	e := r.entries[name]
	if e == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if e.refs > 0 {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrInUse, name)
	}
	delete(r.entries, name)
	r.mu.Unlock()
	if r.opt.OnRemove != nil {
		r.opt.OnRemove(e)
	}
	return nil
}

// Names returns the registered graph names (unordered).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	return names
}

// Maintain enforces the memory budget. Eviction is LRU and two-staged:
// stage 1 sheds cached artifacts (Index.Reset — the graph stays
// registered and the next query simply rebuilds its covers), preferring
// idle entries but falling back to in-use ones, which is safe because
// in-flight queries keep the immutable artifacts they already hold;
// stage 2, reached only once no cache is left to shed, removes the
// least-recently-used idle unpinned entry outright (entries held by
// requests are never removed). The scheduler calls Maintain once per
// executed batch, so each entry's Index.Stats is snapshotted once per
// call and the eviction loop works off running totals instead of
// re-walking every cache per iteration; artifacts finished by concurrent
// queries after the snapshot are picked up by the next Maintain.
func (r *Registry) Maintain() {
	if r.opt.MaxBytes <= 0 {
		return
	}
	r.mu.Lock()
	// Snapshot usage once. Index.Stats takes each Index's own lock, which
	// is never held while acquiring r.mu, so the order is acyclic.
	cached := make(map[*Entry]int64, len(r.entries))
	graphB := make(map[*Entry]int64, len(r.entries))
	var usage, totalCached int64
	for _, e := range r.entries {
		st := e.ix.Stats()
		cached[e] = st.MemBytes
		graphB[e] = st.GraphBytes
		usage += st.GraphBytes + st.MemBytes
		totalCached += st.MemBytes
	}
	var removed []*Entry
loop:
	for usage > r.opt.MaxBytes {
		// Shedding caches only helps if the irreducible bytes (graphs +
		// embeddings) fit the budget; otherwise every batch would rebuild
		// what the previous Maintain shed — permanent thrash that never
		// reaches the budget. When they do not fit, skip straight to
		// dropping idle unpinned entries (which does shrink the
		// irreducible bytes), and give up if only pinned or busy entries
		// remain.
		canReach := usage-totalCached <= r.opt.MaxBytes
		var shedIdle, shedBusy, drop *Entry
		for _, e := range r.entries {
			if canReach && cached[e] > 0 {
				if e.refs == 0 {
					if shedIdle == nil || e.lastUsed < shedIdle.lastUsed {
						shedIdle = e
					}
				} else if shedBusy == nil || e.lastUsed < shedBusy.lastUsed {
					shedBusy = e
				}
				continue
			}
			if e.refs == 0 && !e.pinned {
				if drop == nil || e.lastUsed < drop.lastUsed {
					drop = e
				}
			}
		}
		shed := shedIdle
		if shed == nil {
			shed = shedBusy
		}
		switch {
		case shed != nil:
			shed.ix.Reset()
			usage -= cached[shed]
			totalCached -= cached[shed]
			cached[shed] = 0
			r.resets++
		case drop != nil:
			delete(r.entries, drop.name)
			usage -= graphB[drop] + cached[drop]
			totalCached -= cached[drop]
			r.evictions++
			removed = append(removed, drop)
		default:
			// Everything left is busy, or pinned and already minimal.
			break loop
		}
	}
	r.mu.Unlock()
	if r.opt.OnRemove != nil {
		for _, e := range removed {
			r.opt.OnRemove(e)
		}
	}
}

// GraphInfo describes one registered graph for stats reporting.
type GraphInfo struct {
	Name     string      `json:"name"`
	N        int         `json:"n"`
	M        int         `json:"m"`
	Pinned   bool        `json:"pinned"`
	InUse    int         `json:"inUse"`
	Index    index.Stats `json:"index"`
	MemBytes int64       `json:"memBytes"` // graph + cached artifacts
	// Memo is the Index's per-artifact-class cache-traffic breakdown
	// (hits, misses, build time), the same data /metrics exposes as the
	// planarsi_index_memo_* families.
	Memo []index.MemoStats `json:"memo,omitempty"`
	// Invalidations is the Index's per-class mutation tally (artifacts
	// invalidated vs retained across ApplyEdits migrations), the data
	// behind planarsi_index_invalidations_total /
	// planarsi_index_retained_total. The graph's edit epoch itself is
	// Index.Epoch.
	Invalidations []index.InvalidationStats `json:"invalidations,omitempty"`
}

// RegistryStats is a point-in-time snapshot of the registry.
type RegistryStats struct {
	Graphs      []GraphInfo `json:"graphs"`
	Bytes       int64       `json:"bytes"`
	MaxBytes    int64       `json:"maxBytes"`
	CacheResets uint64      `json:"cacheResets"`
	Evictions   uint64      `json:"evictions"`
}

// Stats returns a snapshot of every entry plus the eviction counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RegistryStats{
		MaxBytes:    r.opt.MaxBytes,
		CacheResets: r.resets,
		Evictions:   r.evictions,
	}
	for _, e := range r.entries {
		ixst := e.ix.Stats()
		g := e.ix.Graph()
		info := GraphInfo{
			Name:          e.name,
			N:             g.N(),
			M:             g.M(),
			Pinned:        e.pinned,
			InUse:         e.refs,
			Index:         ixst,
			MemBytes:      ixst.GraphBytes + ixst.MemBytes,
			Memo:          e.ix.MemoStats(),
			Invalidations: e.ix.InvalidationStats(),
		}
		st.Graphs = append(st.Graphs, info)
		st.Bytes += info.MemBytes
	}
	slices.SortFunc(st.Graphs, func(a, b GraphInfo) int {
		return strings.Compare(a.Name, b.Name)
	})
	return st
}
