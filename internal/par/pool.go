package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the work-stealing fork-join runtime in the style
// of Cilk / Blumofe-Leiserson schedulers: every executing thread owns a
// Chase-Lev deque, pushes forked tasks to its own bottom, pops LIFO, and
// steals FIFO from the top of a random victim. A joining thread helps by
// running tasks until the joined future completes, so joins never block
// a thread.
//
// Two kinds of threads own deques. Background *workers* ((procs-1) per
// pool — the submitting goroutine always works too) live for the pool's
// lifetime and do nothing but steal and execute. *Scopes* are transient:
// every structured fork-join operation (a Pool.Run, or one package-level
// Do/For/Reduce call) registers a deque for its duration, forks into
// it, and helps until its own joins resolve. The scope's owner never
// blocks — it pops its own deque, steals from every registered deque,
// or runs an unclaimed future inline — which makes
// arbitrary nesting deadlock-free: a nested operation on a worker
// goroutine simply opens another scope whose tasks remain stealable by
// everyone.
//
// Brent's theorem is what connects this scheduler back to the paper's
// bounds: a computation with work W and depth D executes in O(W/P + D)
// steps on P workers under any greedy scheduler, of which work stealing
// is the standard practical instance.

// Task is the unit of work executed by a Pool.
type Task func(*Ctx)

// deque is a Chase-Lev work-stealing deque of Tasks.
// The owner pushes and pops at the bottom; thieves steal from the top.
type deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[dequeBuf]
}

type dequeBuf struct {
	mask  int64
	tasks []atomic.Pointer[Task]
}

func newDequeBuf(capacity int64) *dequeBuf {
	return &dequeBuf{mask: capacity - 1, tasks: make([]atomic.Pointer[Task], capacity)}
}

func (b *dequeBuf) get(i int64) *Task    { return b.tasks[i&b.mask].Load() }
func (b *dequeBuf) put(i int64, t *Task) { b.tasks[i&b.mask].Store(t) }
func (b *dequeBuf) capacity() int64      { return b.mask + 1 }

func newDeque() *deque {
	d := &deque{}
	d.buf.Store(newDequeBuf(64))
	return d
}

// push adds a task at the bottom. Owner only.
func (d *deque) push(t *Task) {
	b := d.bottom.Load()
	top := d.top.Load()
	buf := d.buf.Load()
	if b-top >= buf.capacity() {
		// Grow: copy the live window into a buffer twice the size.
		nb := newDequeBuf(buf.capacity() * 2)
		for i := top; i < b; i++ {
			nb.put(i, buf.get(i))
		}
		d.buf.Store(nb)
		buf = nb
	}
	buf.put(b, t)
	d.bottom.Store(b + 1)
}

// pop removes the most recently pushed task. Owner only.
func (d *deque) pop() *Task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore.
		d.bottom.Store(b + 1)
		return nil
	}
	task := d.buf.Load().get(b)
	if t == b {
		// Last element: race against thieves for it.
		if !d.top.CompareAndSwap(t, t+1) {
			task = nil // a thief won
		}
		d.bottom.Store(b + 1)
	}
	return task
}

// steal removes the oldest task. Any thread.
func (d *deque) steal() *Task {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	task := d.buf.Load().get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil // lost the race; caller retries elsewhere
	}
	return task
}

// Future is the join handle returned by Ctx.Fork.
type Future struct {
	done atomic.Bool
	// claimed marks the task as started (by owner pop, a thief, or the
	// joiner running it inline) so it executes exactly once.
	claimed atomic.Bool
	f       Task
	// panicked holds a panic recovered from the task body, written
	// before done flips (so the done.Load in Join orders the read) and
	// re-panicked at the join point on the joining goroutine.
	panicked *PanicError
}

// run executes the future's function exactly once; later callers no-op.
// A panic in the task body is recovered here — never on the raw worker
// goroutine — so workers and thieves survive it; the capture is
// re-panicked by Join.
func (fu *Future) run(ctx *Ctx) {
	if fu.claimed.CompareAndSwap(false, true) {
		defer fu.done.Store(true)
		defer func() {
			if v := recover(); v != nil {
				fu.panicked = asPanicError(v)
			}
		}()
		fu.f(ctx)
	}
}

// Pool is a work-stealing fork-join pool. Construct with NewPool; the
// zero value is not usable. A Pool with parallelism p runs p-1
// background workers — the goroutine calling Run (or a package-level
// combinator routed to the pool) is always the p-th participant.
type Pool struct {
	procs int
	quit  chan struct{}
	wg    sync.WaitGroup

	// victims is the copy-on-write list of all stealable deques: the
	// permanent worker deques plus the currently registered scopes.
	// Readers load it wait-free on every steal attempt; register and
	// unregister copy under mu.
	mu      sync.Mutex
	victims atomic.Pointer[[]*deque]

	// parked counts workers blocked on wake; fork and scope entry only
	// touch the wake channel when it is non-zero, keeping the fork fast
	// path to one atomic load.
	parked atomic.Int32
	wake   chan struct{}

	seq atomic.Uint64 // victim-selection seed source
}

// NewPool creates a pool with parallelism p (p <= 0 selects GOMAXPROCS):
// p-1 background workers, the caller being the last participant.
func NewPool(p int) *Pool {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	pool := &Pool{
		procs: p,
		quit:  make(chan struct{}),
		wake:  make(chan struct{}, p),
	}
	empty := make([]*deque, 0, p)
	pool.victims.Store(&empty)
	pool.wg.Add(p - 1)
	for i := 0; i < p-1; i++ {
		c := &Ctx{p: pool, dq: newDeque(), rnd: pool.nextSeed()}
		pool.register(c.dq)
		go pool.workerLoop(c)
	}
	return pool
}

// Parallelism returns the pool's total participant count (workers + the
// submitting goroutine).
func (p *Pool) Parallelism() int { return p.procs }

// Close retires the pool: background workers exit once they run out of
// tasks. Scopes still running keep making progress on their own
// goroutines (the owner helps itself), so Close never strands work, but
// new operations should use a fresh pool.
func (p *Pool) Close() {
	close(p.quit)
	// Release any parked workers so they can observe quit.
	for i := 0; i < cap(p.wake); i++ {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	p.wg.Wait()
}

func (p *Pool) nextSeed() uint64 {
	return p.seq.Add(1)*0x9e3779b97f4a7c15 + 1
}

// register adds a deque to the steal set.
func (p *Pool) register(d *deque) {
	p.mu.Lock()
	old := *p.victims.Load()
	nv := make([]*deque, len(old)+1)
	copy(nv, old)
	nv[len(old)] = d
	p.victims.Store(&nv)
	p.mu.Unlock()
	p.signal()
}

// unregister removes a deque from the steal set.
func (p *Pool) unregister(d *deque) {
	p.mu.Lock()
	old := *p.victims.Load()
	nv := make([]*deque, 0, len(old)-1)
	for _, v := range old {
		if v != d {
			nv = append(nv, v)
		}
	}
	p.victims.Store(&nv)
	p.mu.Unlock()
}

// signal wakes one parked worker if any are parked.
func (p *Pool) signal() {
	if p.parked.Load() > 0 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// scopeCtxs recycles scope contexts (and their deques) across operations.
var scopeCtxs = sync.Pool{New: func() any { return &Ctx{dq: newDeque()} }}

// enter opens a fork-join scope on the pool: a context whose deque is
// registered for stealing. The caller runs the scope's root task on its
// own goroutine and must close the scope with exit.
func (p *Pool) enter() *Ctx {
	c := scopeCtxs.Get().(*Ctx)
	c.p = p
	if c.rnd == 0 {
		c.rnd = p.nextSeed()
	}
	p.register(c.dq)
	return c
}

// exit closes a scope opened by enter. The scope's joins have all
// resolved, so any tasks left in the deque are claimed no-ops; they are
// drained before the deque is recycled.
func (p *Pool) exit(c *Ctx) {
	p.unregister(c.dq)
	for c.dq.pop() != nil {
	}
	c.p = nil
	scopeCtxs.Put(c)
}

// Run executes task on the pool as a fork-join scope and returns when it
// (and everything it joined) has. The calling goroutine participates in
// the work; nested Run calls (from inside pool tasks) are safe.
func (p *Pool) Run(task Task) {
	c := p.enter()
	defer p.exit(c)
	task(c)
}

// workerLoop is the background worker body: steal, execute, park.
func (p *Pool) workerLoop(c *Ctx) {
	defer p.wg.Done()
	idleSpins := 0
	for {
		if t := c.findTask(); t != nil {
			(*t)(c)
			idleSpins = 0
			continue
		}
		select {
		case <-p.quit:
			return
		default:
		}
		idleSpins++
		if idleSpins < 8 {
			runtime.Gosched()
			continue
		}
		// Park. Re-check for work after announcing the park so a fork
		// racing with it cannot be missed for long (forkers signal only
		// when parked > 0).
		p.parked.Add(1)
		if t := c.findTask(); t != nil {
			p.parked.Add(-1)
			(*t)(c)
			idleSpins = 0
			continue
		}
		poolParks.Add(1)
		select {
		case <-p.wake:
			p.parked.Add(-1)
		case <-p.quit:
			p.parked.Add(-1)
			return
		}
		idleSpins = 0
	}
}

// Ctx is the per-thread context of a pool participant (worker or scope).
type Ctx struct {
	p   *Pool
	dq  *deque
	rnd uint64
}

// findTask pops locally or steals from a random victim.
func (c *Ctx) findTask() *Task {
	if t := c.dq.pop(); t != nil {
		return t
	}
	victims := *c.p.victims.Load()
	n := len(victims)
	if n == 0 {
		return nil
	}
	// xorshift for victim selection
	c.rnd ^= c.rnd << 13
	c.rnd ^= c.rnd >> 7
	c.rnd ^= c.rnd << 17
	start := int(c.rnd % uint64(n))
	for i := 0; i < n; i++ {
		v := victims[(start+i)%n]
		if v == c.dq {
			continue
		}
		if t := v.steal(); t != nil {
			poolSteals.Add(1)
			return t
		}
	}
	return nil
}

// Fork schedules f to run asynchronously and returns its join handle.
func (c *Ctx) Fork(f Task) *Future {
	fu := &Future{f: f}
	t := Task(fu.run)
	c.dq.push(&t)
	c.p.signal()
	return fu
}

// Join waits for fu, helping with other tasks while it is outstanding.
// If the future's task panicked, Join re-panics the captured
// *PanicError on the calling goroutine once the task has completed.
func (c *Ctx) Join(fu *Future) {
	c.joinNoPanic(fu)
	if fu.panicked != nil {
		panic(fu.panicked)
	}
}

// joinNoPanic waits for fu without re-panicking a captured panic; Do
// uses it to finish joining every sibling before propagating the first
// panic.
func (c *Ctx) joinNoPanic(fu *Future) {
	spins := 0
	for !fu.done.Load() {
		if t := c.findTask(); t != nil {
			(*t)(c)
			spins = 0
			continue
		}
		// Nothing to help with. If the forked task has not started yet
		// run it inline; otherwise a thief is mid-execution — yield, and
		// once yielding has gone on for a while back off into short
		// sleeps: on an oversubscribed machine a Gosched storm steals
		// the very cycles the thief needs to finish.
		fu.run(c)
		if fu.done.Load() {
			return
		}
		spins++
		if spins < 16 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// Do runs the functions as a fork-join group: all but the first are forked,
// the first runs inline, then all forks are joined. If any function
// panics, every sibling is still joined before the first panic (in
// fork order: inline first, then forks) re-panics on the caller.
func (c *Ctx) Do(fs ...Task) {
	if len(fs) == 0 {
		return
	}
	futures := make([]*Future, len(fs)-1)
	for i := len(fs) - 1; i >= 1; i-- {
		futures[i-1] = c.Fork(fs[i])
	}
	var first *PanicError
	func() {
		defer func() {
			if v := recover(); v != nil {
				first = asPanicError(v)
			}
		}()
		fs[0](c)
	}()
	for _, fu := range futures {
		c.joinNoPanic(fu)
		if fu.panicked != nil && first == nil {
			first = fu.panicked
		}
	}
	if first != nil {
		panic(first)
	}
}

// ForBlocks splits [lo, hi) into blocks of at most grain indices and runs
// body on each block via recursive halving on the pool. Forked halves
// are joined by defer, so a panicking block still waits for its forked
// siblings before one *PanicError propagates to the caller.
func (c *Ctx) ForBlocks(lo, hi, grain int, body func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	var rec func(ctx *Ctx, lo, hi int)
	rec = func(ctx *Ctx, lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			l, h := mid, hi
			fu := ctx.Fork(func(c2 *Ctx) { rec(c2, l, h) })
			hi = mid
			defer ctx.Join(fu)
		}
		if lo < hi {
			body(lo, hi)
		}
	}
	if lo < hi {
		rec(c, lo, hi)
	}
}

// For runs f(i) for i in [lo, hi) using recursive halving on the pool.
func (c *Ctx) For(lo, hi, grain int, f func(i int)) {
	c.ForBlocks(lo, hi, grain, func(l, h int) {
		for i := l; i < h; i++ {
			f(i)
		}
	})
}
