package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"planarsi/internal/fault"
	"planarsi/internal/graph"
	"planarsi/internal/index"
	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// ErrOverloaded is returned (and mapped to HTTP 503) when admission
// control rejects a request because too many are already waiting.
var ErrOverloaded = errors.New("serve: too many queued requests")

// BatchKind selects which batched Index entry point a request coalesces
// into.
type BatchKind uint8

const (
	// KindDecide coalesces into Index.Scan.
	KindDecide BatchKind = iota
	// KindCount coalesces into Index.ScanCount.
	KindCount
)

// DefaultWindow is the micro-batching window a zero SchedulerOptions
// gets (see the Window convention below).
const DefaultWindow = 2 * time.Millisecond

// WindowDisabled is the sentinel that turns coalescing off: every
// request dispatches immediately as a batch of one.
const WindowDisabled time.Duration = -1

// WindowFromFlag maps the user-facing flag convention onto the
// SchedulerOptions sentinel convention. Flags (and humans) say "0
// disables coalescing", but SchedulerOptions must keep 0 meaning "use
// DefaultWindow" so its zero value stays usable — so the daemon's
// -window value passes through here: 0 becomes WindowDisabled,
// everything else is passed through unchanged.
func WindowFromFlag(d time.Duration) time.Duration {
	if d == 0 {
		return WindowDisabled
	}
	return d
}

// SchedulerOptions configures the micro-batching scheduler.
type SchedulerOptions struct {
	// Window is how long the first request of a batch waits for company
	// before the batch is dispatched. Longer windows coalesce more
	// (better throughput under load) at the cost of idle latency.
	//
	// Convention (the single source of truth — flag parsing maps onto
	// it via WindowFromFlag): a positive Window coalesces with that
	// window (as a cap, when AdaptiveWindow is set); 0 means "use
	// DefaultWindow" so the zero value stays usable; any negative value
	// (canonically WindowDisabled) disables coalescing, dispatching
	// every request immediately as a batch of one.
	Window time.Duration
	// AdaptiveWindow, when set, treats Window as a cap and adapts the
	// effective window to the observed arrival rate: it shrinks toward
	// 0 when arrivals are sparse (waiting would buy no company, only
	// latency) and grows toward Window as the arrival rate rises. See
	// Scheduler.effectiveWindow for the rule.
	AdaptiveWindow bool
	// MaxBatch dispatches a batch early once it holds this many
	// requests. Default 64.
	MaxBatch int
	// MaxInFlight bounds concurrently executing batches (each batch
	// already fans out internally via internal/par); admission control
	// on top of the fork-join runtime. Default par.Parallelism().
	MaxInFlight int
	// MaxQueued bounds requests waiting anywhere in the scheduler;
	// beyond it, Submit fails fast with ErrOverloaded. Default 4096.
	MaxQueued int
	// AfterBatch, when non-nil, runs after every executed batch and
	// Direct operation (outside the in-flight semaphore). The Server
	// points it at Registry.Maintain, so the memory budget is enforced
	// once per batch instead of once per request.
	AfterBatch func()
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = par.Parallelism()
	}
	if o.MaxQueued <= 0 {
		o.MaxQueued = 4096
	}
	return o
}

// Scheduler coalesces concurrent queries against the same host graph
// into single Index.Scan / Index.ScanCount batches. Requests arriving
// within a small window share one batch, so the target-side shared
// preprocessing (and the per-batch fork-join) is paid once per window
// instead of once per request; per-request answers are exactly what the
// direct Index call would return, because Scan itself guarantees
// positional answers identical to one-at-a-time queries.
type Scheduler struct {
	opt SchedulerOptions
	sem chan struct{} // in-flight batch slots

	mu     sync.Mutex
	groups map[groupKey]*group

	queued   atomic.Int64
	rejected atomic.Uint64
	retries  atomic.Uint64 // members re-run as singletons after a panic
	maxBatch atomic.Int64  // largest batch dispatched so far
	inFlight atomic.Int64

	// Scheduler shape distributions, exposed on /metrics: how big the
	// batches actually are, how long requests sit waiting for them, and
	// how deep the queue runs at admission. Stats reads its batch,
	// request and wait totals from the first two.
	batchSizes *obs.Histogram
	waits      *obs.Histogram
	depths     *obs.Histogram

	// Arrival-rate tracking for the adaptive window: lastArrival is the
	// previous Submit's UnixNano, ewmaIANs an exponentially weighted
	// moving average (alpha 1/8) of inter-arrival times in nanoseconds.
	lastArrival atomic.Int64
	ewmaIANs    atomic.Int64
}

// groupKey identifies one coalescing bucket: requests batch only with
// requests for the same registry entry and the same kind. Keying on the
// entry pointer (not the name) means a re-registered graph can never
// share a batch with its predecessor's requests.
type groupKey struct {
	e    *Entry
	kind BatchKind
}

// group accumulates the pending batch for one key. The first request of
// a batch arms the flush timer; MaxBatch dispatches early.
type group struct {
	s   *Scheduler
	key groupKey

	mu      sync.Mutex
	pending []request
	timer   *time.Timer
}

type request struct {
	ctx      context.Context
	h        *graph.Graph
	enqueued time.Time
	done     chan index.ScanResult
}

// NewScheduler returns a scheduler with the given options (zero fields
// take defaults).
func NewScheduler(opt SchedulerOptions) *Scheduler {
	opt = opt.withDefaults()
	return &Scheduler{
		opt:        opt,
		sem:        make(chan struct{}, opt.MaxInFlight),
		groups:     make(map[groupKey]*group),
		batchSizes: obs.NewHistogram(obs.SizeBuckets(opt.MaxBatch)),
		waits:      obs.NewLatencyHistogram(),
		depths:     obs.NewHistogram(obs.SizeBuckets(opt.MaxQueued)),
	}
}

// observeArrival feeds one Submit arrival into the EWMA inter-arrival
// estimate the adaptive window reads. Lock-free: a racing pair of
// arrivals may each fold in a slightly stale gap, which only perturbs
// the estimate by less than the noise the EWMA exists to smooth.
func (s *Scheduler) observeArrival(now time.Time) {
	ns := now.UnixNano()
	prev := s.lastArrival.Swap(ns)
	if prev == 0 || ns <= prev {
		return
	}
	ia := ns - prev
	for {
		old := s.ewmaIANs.Load()
		next := ia
		if old != 0 {
			next = old + (ia-old)/8
		}
		if s.ewmaIANs.CompareAndSwap(old, next) {
			return
		}
	}
}

// effectiveWindow is the window the next batch timer is armed with.
// With AdaptiveWindow off it is simply opt.Window (0 when coalescing is
// disabled). With it on, opt.Window acts as a cap W and the effective
// window is W²/(W + ia) for the EWMA inter-arrival ia: when arrivals
// are sparse (ia >> W) the window collapses toward 0 — waiting would
// buy no batch-mates, only latency — and as the arrival rate rises
// (ia → 0) it climbs smoothly back to the full cap. The float math
// sidesteps int64 overflow for huge idle gaps.
func (s *Scheduler) effectiveWindow() time.Duration {
	w := s.opt.Window
	if w < 0 {
		return 0
	}
	if !s.opt.AdaptiveWindow {
		return w
	}
	ia := s.ewmaIANs.Load()
	if ia <= 0 {
		return w
	}
	cap := float64(w)
	return time.Duration(cap * cap / (cap + float64(ia)))
}

func (s *Scheduler) group(key groupKey) *group {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[key]
	if g == nil {
		g = &group{s: s, key: key}
		s.groups[key] = g
	}
	return g
}

// Forget drops the coalescing state of a removed registry entry. Pending
// requests of the entry (impossible while callers hold an Acquire ref,
// which removal refuses) would still be flushed by their armed timer.
func (s *Scheduler) Forget(e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.groups, groupKey{e, KindDecide})
	delete(s.groups, groupKey{e, KindCount})
}

// admit reserves a queue slot, failing fast when the scheduler is full.
func (s *Scheduler) admit() error {
	depth := s.queued.Add(1)
	if depth > int64(s.opt.MaxQueued) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return ErrOverloaded
	}
	s.depths.Observe(float64(depth))
	return nil
}

// Submit coalesces one decide/count query for entry e into the entry's
// current batch and blocks until the batch executes, returning this
// pattern's positional result. The answer is identical to calling the
// corresponding Index method directly.
//
// ctx is the request's own context: an already-done context is rejected
// at admission, a context that dies while the request waits for (or
// rides in) its batch makes Submit return the context's error
// immediately, and once every member of a batch is gone the batch's
// in-flight dynamic programs are cancelled mid-band.
func (s *Scheduler) Submit(ctx context.Context, e *Entry, kind BatchKind, h *graph.Graph) (index.ScanResult, error) {
	if err := ctx.Err(); err != nil {
		return index.ScanResult{}, err
	}
	if err := s.admit(); err != nil {
		return index.ScanResult{}, err
	}
	// The admission slot is released by dispatch once the batch holding
	// this request has executed — NOT when Submit returns: a client that
	// disconnects mid-wait leaves its request riding the batch, and
	// releasing early would let a connect-and-cancel flood bypass the
	// MaxQueued bound while dead work piles up behind the in-flight
	// semaphore.
	rq := request{ctx: ctx, h: h, enqueued: time.Now(), done: make(chan index.ScanResult, 1)}
	s.observeArrival(rq.enqueued)
	if s.opt.Window < 0 || obs.FromContext(ctx) != nil {
		// Dispatch a singleton batch: either coalescing is disabled, or
		// the request carries a ?trace=1 span recorder — a traced request
		// must ride alone so that its own context (the recorder's
		// carrier) is the batch context the Scan runs under, rather than
		// a merged context that would blend its spans with batch-mates'.
		// Still async, so a context that dies while the batch waits for
		// an in-flight slot unblocks Submit immediately (the dead query
		// itself is cancelled through the batch context once dispatched).
		go s.dispatch(e, kind, []request{rq})
		select {
		case res := <-rq.done:
			return res, nil
		case <-ctx.Done():
			return index.ScanResult{}, ctx.Err()
		}
	}

	g := s.group(groupKey{e, kind})
	g.mu.Lock()
	g.pending = append(g.pending, rq)
	if len(g.pending) >= s.opt.MaxBatch {
		batch := g.takeLocked()
		g.mu.Unlock()
		go s.dispatch(e, kind, batch)
	} else {
		if len(g.pending) == 1 {
			g.timer = time.AfterFunc(s.effectiveWindow(), g.flush)
		}
		g.mu.Unlock()
	}
	select {
	case res := <-rq.done:
		return res, nil
	case <-ctx.Done():
		// The client is gone; the batch still computes (other members may
		// be live — the batch context fires only when all are gone) and
		// delivery into the buffered done channel cannot block.
		return index.ScanResult{}, ctx.Err()
	}
}

// takeLocked claims the pending batch and disarms the timer; the caller
// holds g.mu.
func (g *group) takeLocked() []request {
	batch := g.pending
	g.pending = nil
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	return batch
}

// flush is the window-timer callback: dispatch whatever has accumulated.
func (g *group) flush() {
	if fault.Fire(fault.BatchTimerDrop) {
		// Injected timer loss: this firing does no work, simulating a
		// window timer that died. The re-arm keeps the pending requests
		// from hanging until their contexts expire — the recovery
		// behavior the chaos harness asserts on.
		g.mu.Lock()
		if len(g.pending) > 0 {
			g.timer = time.AfterFunc(g.s.effectiveWindow()+time.Millisecond, g.flush)
		}
		g.mu.Unlock()
		return
	}
	g.mu.Lock()
	batch := g.takeLocked()
	g.mu.Unlock()
	if len(batch) > 0 {
		g.s.dispatch(g.key.e, g.key.kind, batch)
	}
}

// dispatch executes a batch, delivers each request's answer, and
// releases the batch's admission slots. It must not panic whatever the
// engine does: its callers include the window-timer goroutine, and a
// panic there kills the process with no handler-level recover in the
// way. Index.Scan already isolates per-member panics; the Guard here
// backstops faults outside the members' own bodies (batch bookkeeping,
// the Maintain hook), turning them into per-member errors.
func (s *Scheduler) dispatch(e *Entry, kind BatchKind, batch []request) {
	var res []index.ScanResult
	err := index.Guard(func() error {
		res = s.run(e, kind, batch)
		s.retrySingletons(e, kind, batch, res)
		return nil
	})
	for i := range batch {
		if err != nil {
			batch[i].done <- index.ScanResult{Err: err}
		} else {
			batch[i].done <- res[i]
		}
	}
	s.queued.Add(-int64(len(batch)))
}

// retrySingletons re-runs batch members whose answer was lost to a
// panic, each as a batch of one. A panic is often specific to the
// batch's execution (a fault mid-build of a shared artifact that a
// sibling's panic de-poisoned, a transient injected fault), so one
// isolated retry converts "unlucky batch-mate" into a correct answer;
// a deterministic crasher simply panics again and keeps its error.
// Members whose client is already gone are not retried. Singleton
// batches are excluded: with nobody else in the batch the first run
// was already isolated, and retrying would double-charge deterministic
// faults (which the chaos harness counts on for reproducibility).
func (s *Scheduler) retrySingletons(e *Entry, kind BatchKind, batch []request, res []index.ScanResult) {
	if len(batch) < 2 {
		return
	}
	for i := range res {
		if res[i].Err == nil || !errors.Is(res[i].Err, index.ErrQueryPanic) {
			continue
		}
		if batch[i].ctx != nil && batch[i].ctx.Err() != nil {
			continue
		}
		s.retries.Add(1)
		if r2 := s.run(e, kind, batch[i:i+1]); len(r2) == 1 {
			res[i] = r2[0]
		}
	}
}

// batchContext derives the context one batched Scan runs under: done
// exactly when every member request's context is done, so one impatient
// client cannot cancel a batch that still has live members, while a
// fully abandoned batch stops burning cores mid-band. The returned
// cancel releases the watcher goroutines and must be called when the
// batch finishes.
func batchContext(batch []request) (context.Context, context.CancelFunc) {
	for _, rq := range batch {
		if rq.ctx == nil || rq.ctx.Done() == nil {
			// At least one member can never be abandoned: the batch
			// cannot be cancelled, so spawn no watchers at all.
			return context.Background(), func() {}
		}
	}
	if len(batch) == 1 {
		return batch[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var live atomic.Int32
	live.Store(int32(len(batch)))
	stops := make([]func() bool, len(batch))
	for i, rq := range batch {
		stops[i] = context.AfterFunc(rq.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		cancel()
		for _, stop := range stops {
			stop()
		}
	}
}

// run executes one batch under the in-flight semaphore and records stats.
func (s *Scheduler) run(e *Entry, kind BatchKind, batch []request) []index.ScanResult {
	if s.opt.AfterBatch != nil {
		defer s.opt.AfterBatch()
	}
	s.sem <- struct{}{}
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
	}()

	start := time.Now()
	for _, rq := range batch {
		s.waits.ObserveDuration(start.Sub(rq.enqueued))
	}
	s.batchSizes.Observe(float64(len(batch)))
	patterns := make([]*graph.Graph, len(batch))
	for i, rq := range batch {
		patterns[i] = rq.h
	}
	ctx, cancel := batchContext(batch)
	defer cancel()
	var res []index.ScanResult
	if kind == KindDecide {
		res = e.Index().Scan(ctx, patterns)
	} else {
		res = e.Index().ScanCount(ctx, patterns)
	}
	for {
		prev := s.maxBatch.Load()
		if int64(len(batch)) <= prev || s.maxBatch.CompareAndSwap(prev, int64(len(batch))) {
			break
		}
	}
	return res
}

// Direct runs a non-batchable operation (find, list, separating) under
// the same admission control and in-flight bound as the batches. An
// already-done ctx is rejected at admission, and a ctx that dies while
// the operation waits for an in-flight slot abandons the wait (the
// operation itself is then never started).
func (s *Scheduler) Direct(ctx context.Context, f func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.admit(); err != nil {
		return err
	}
	defer s.queued.Add(-1)
	if s.opt.AfterBatch != nil {
		defer s.opt.AfterBatch()
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
	}()
	f()
	return nil
}

// SchedulerStats is a point-in-time snapshot of the scheduler.
type SchedulerStats struct {
	// Batches and Requests give the coalescing ratio: Requests/Batches
	// is the average number of queries that shared one Scan. A batch and
	// its requests count when the batch starts, not when it ends: both
	// are the batch-size histogram's count and sum (/metrics'
	// planarsi_sched_batch_size).
	Batches  uint64 `json:"batches"`
	Requests uint64 `json:"requests"`
	Rejected uint64 `json:"rejected"`
	// Retries counts batch members re-run as singletons after their
	// first answer was lost to a panic.
	Retries  uint64 `json:"retries"`
	MaxBatch int64  `json:"maxBatch"`
	InFlight int64  `json:"inFlight"`
	Queued   int64  `json:"queued"`
	// AvgWaitMicros is the mean time a request spent waiting for its
	// batch to dispatch (the coalescing latency cost): the mean of the
	// window-wait histogram (planarsi_sched_window_wait_seconds).
	AvgWaitMicros float64 `json:"avgWaitMicros"`
	// WindowMicros is the effective window the next batch timer would
	// be armed with right now — equal to the configured window unless
	// AdaptiveWindow has shrunk it toward 0 under sparse arrivals.
	WindowMicros float64 `json:"windowMicros"`
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	sizes := s.batchSizes.Snapshot()
	return SchedulerStats{
		Batches:       sizes.Count,
		Requests:      uint64(sizes.Sum),
		Rejected:      s.rejected.Load(),
		Retries:       s.retries.Load(),
		MaxBatch:      s.maxBatch.Load(),
		InFlight:      s.inFlight.Load(),
		Queued:        s.queued.Load(),
		AvgWaitMicros: s.waits.Snapshot().Mean() * 1e6,
		WindowMicros:  float64(s.effectiveWindow()) / 1e3,
	}
}
