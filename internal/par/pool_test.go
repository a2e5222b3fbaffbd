package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

func TestDequeLIFOFIFO(t *testing.T) {
	d := newDeque()
	mk := func(i int) *Task {
		t := Task(func(*Ctx) { _ = i })
		return &t
	}
	a, b, c := mk(1), mk(2), mk(3)
	d.push(a)
	d.push(b)
	d.push(c)
	if got := d.pop(); got != c {
		t.Fatal("pop should be LIFO (expected c)")
	}
	if got := d.steal(); got != a {
		t.Fatal("steal should be FIFO (expected a)")
	}
	if got := d.pop(); got != b {
		t.Fatal("expected b")
	}
	if d.pop() != nil || d.steal() != nil {
		t.Fatal("deque should be empty")
	}
}

func TestDequeGrowth(t *testing.T) {
	d := newDeque()
	const n = 1000
	tasks := make([]*Task, n)
	for i := range tasks {
		tt := Task(func(*Ctx) {})
		tasks[i] = &tt
		d.push(tasks[i])
	}
	for i := n - 1; i >= 0; i-- {
		if got := d.pop(); got != tasks[i] {
			t.Fatalf("pop %d: wrong task", i)
		}
	}
}

// Stress the deque with one owner and several thieves; every task must be
// extracted exactly once.
func TestDequeStress(t *testing.T) {
	d := newDeque()
	const total = 20000
	var extracted atomic.Int64
	var claimed [total]atomic.Int32

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for thief := 0; thief < 3; thief++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if tk := d.steal(); tk != nil {
					(*tk)(nil)
					extracted.Add(1)
				}
				select {
				case <-stop:
					// Drain what is left.
					for {
						tk := d.steal()
						if tk == nil {
							return
						}
						(*tk)(nil)
						extracted.Add(1)
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		i := i
		tk := Task(func(*Ctx) {
			if claimed[i].Add(1) != 1 {
				t.Errorf("task %d executed twice", i)
			}
		})
		d.push(&tk)
		if i%3 == 0 {
			if got := d.pop(); got != nil {
				(*got)(nil)
				extracted.Add(1)
			}
		}
	}
	// Owner drains its own deque.
	for {
		tk := d.pop()
		if tk == nil {
			break
		}
		(*tk)(nil)
		extracted.Add(1)
	}
	close(stop)
	wg.Wait()
	if extracted.Load() != total {
		t.Fatalf("extracted %d tasks, want %d", extracted.Load(), total)
	}
}

// inScope runs task as the root of a fork-join scope on p, the way
// runBlocks drives the pool for a package-level combinator.
func inScope(p *Pool, task Task) {
	c := p.enter()
	defer p.exit(c)
	task(c)
}

// TestPoolRun: a scope runs its root task on the caller's goroutine,
// with its deque registered for stealing until exit.
func TestPoolRun(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	c := p.enter()
	dq := c.dq
	if !slices.Contains(*p.victims.Load(), dq) {
		t.Fatal("scope deque not stealable inside the scope")
	}
	var x atomic.Int32
	c.Join(c.Fork(func(*Ctx) { x.Store(7) }))
	p.exit(c)
	if x.Load() != 7 {
		t.Fatal("scope did not execute the forked task")
	}
	if slices.Contains(*p.victims.Load(), dq) {
		t.Fatal("scope deque still stealable after exit")
	}
}

func TestPoolForkJoin(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum atomic.Int64
	inScope(p, func(c *Ctx) {
		var rec func(c *Ctx, lo, hi int)
		rec = func(c *Ctx, lo, hi int) {
			if hi-lo <= 4 {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
				return
			}
			mid := (lo + hi) / 2
			fu := c.Fork(func(c2 *Ctx) { rec(c2, mid, hi) })
			rec(c, lo, mid)
			c.Join(fu)
		}
		rec(c, 0, 1000)
	})
	if sum.Load() != 999*1000/2 {
		t.Fatalf("fork-join sum=%d want %d", sum.Load(), 999*1000/2)
	}
}

func TestPoolFor(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n := 5000
	counts := make([]atomic.Int32, n)
	inScope(p, func(c *Ctx) {
		c.ForBlocks(0, n, 16, func(lo, hi int) {
			if hi-lo > 16 {
				t.Errorf("block [%d, %d) exceeds grain 16", lo, hi)
			}
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
	})
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, counts[i].Load())
		}
	}
}

func TestPoolManySequentialRuns(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var total atomic.Int64
	for r := 0; r < 50; r++ {
		inScope(p, func(c *Ctx) {
			c.ForBlocks(0, 100, 8, func(lo, hi int) { total.Add(int64(hi - lo)) })
		})
	}
	if total.Load() != 5000 {
		t.Fatalf("total=%d want 5000", total.Load())
	}
}

// TestJoinParksUntilThiefFinishes: a joiner whose future runs on another
// worker parks once its spins run out, and the worker's finish wakes it.
// The forked task does not return until the joiner has installed its wake
// channel, so every run takes the park-then-wake path.
func TestJoinParksUntilThiefFinishes(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		inScope(p, func(c *Ctx) {
			started := make(chan struct{})
			var fut atomic.Pointer[Future]
			fu := c.Fork(func(*Ctx) {
				close(started)
				giveUp := time.Now().Add(5 * time.Second)
				for fu := fut.Load(); fu == nil || fu.wake.Load() == nil; fu = fut.Load() {
					if time.Now().After(giveUp) {
						t.Error("joiner never parked")
						return
					}
					runtime.Gosched()
				}
			})
			fut.Store(fu)
			<-started // the worker, not the joiner, claimed the task
			c.Join(fu)
			if !fu.done.Load() {
				t.Error("Join returned before its future finished")
			}
		})
	}()
	select {
	case <-joined:
	case <-time.After(20 * time.Second):
		t.Fatal("parked joiner never woke")
	}
}

// TestFinishedTaskReleasesClosure: once a forked block has run, nothing
// it captured stays reachable through its future, even though the
// forking scope's deque slot still points at the task.
func TestFinishedTaskReleasesClosure(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	c := p.enter()
	defer p.exit(c)
	wp := forkCapturing(c)
	if c.dq.buf.Load().get(0) == nil {
		t.Fatal("deque slot 0 no longer holds the forked task")
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a finished task still keeps its captured slice alive")
	}
}

// forkCapturing runs a two-block ForBlocks on c whose forked block, run
// by the pool's worker, captures a fresh slice, and returns a weak
// pointer to that slice.
//
//go:noinline
func forkCapturing(c *Ctx) weak.Pointer[[1 << 10]int64] {
	buf := new([1 << 10]int64)
	wp := weak.Make(buf)
	stolen := make(chan struct{})
	c.ForBlocks(0, 2, 1, func(lo, _ int) {
		if lo == 1 {
			buf[0] = 1
			close(stolen)
			return
		}
		<-stolen // block 0 is the owner's; wait until the worker took block 1
	})
	return wp
}
