package par

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrCancelled is returned by operations that observed their Canceller
// fire before completing. Callers that entered through a context should
// translate it to the context's own error (context.Canceled or
// context.DeadlineExceeded) at the API boundary.
var ErrCancelled = errors.New("par: computation cancelled")

// Canceller is a lightweight cooperative cancellation token: one atomic
// flag, checked by polling at algorithmic checkpoints (band, node and
// path boundaries), with none of context.Context's channel or timer
// machinery on the hot path. Cancellation is monotonic — once Cancel has
// been called, every subsequent Cancelled() observes true.
//
// Cancellers form trees: a child created with NewChild reports cancelled
// when either its own flag or any ancestor's flag is set, so a request
// token can fell an entire query while a sibling-band early exit fells
// only its own fan-out. The nil *Canceller is a valid token that is
// never cancelled, so unconditional Cancelled() polls cost one nil check
// on uninstrumented paths.
type Canceller struct {
	flag   atomic.Bool
	parent *Canceller
}

// NewCanceller returns a fresh, unfired root token.
func NewCanceller() *Canceller { return &Canceller{} }

// NewChild returns a token that fires when either it or parent fires.
// A nil parent is allowed (the child is then a root).
func NewChild(parent *Canceller) *Canceller {
	return &Canceller{parent: parent}
}

// Cancel fires the token. It is safe to call multiple times and from any
// goroutine; descendants observe the cancellation, ancestors do not.
func (c *Canceller) Cancel() { c.flag.Store(true) }

// Cancelled reports whether this token or any ancestor has fired. It is
// nil-safe: a nil Canceller is never cancelled.
func (c *Canceller) Cancelled() bool {
	for ; c != nil; c = c.parent {
		if c.flag.Load() {
			return true
		}
	}
	return false
}

// Err returns ErrCancelled when the token has fired, else nil.
func (c *Canceller) Err() error {
	if c.Cancelled() {
		return ErrCancelled
	}
	return nil
}

// WatchContext converts a context into a Canceller that fires when the
// context is done, through context.AfterFunc: no goroutine runs until
// the context ends. The returned stop function deregisters the callback
// and must be called (typically deferred) once the operation using the
// token has finished; stop is idempotent. An already-done context fires
// the token before WatchContext returns.
func WatchContext(ctx context.Context) (*Canceller, func()) {
	c := NewCanceller()
	if ctx.Err() != nil {
		c.Cancel()
		return c, func() {}
	}
	stop := context.AfterFunc(ctx, c.Cancel)
	return c, func() { stop() }
}
