package obs

import (
	"context"
	"sync/atomic"
)

// Cost is one record of dynamic-programming cost counters: the paper's
// work measure broken down by what the engines actually did. Each engine
// run owns one record (match.Result.Cost), written only by the goroutine
// driving the run, and every DP counter is read from it: the run flushes
// it once, when it ends, to the work/depth tracker and to an optional
// CostCounter sink, and the pipeline sums the records of a band's runs
// once per band.
//
// Emissions is the Lemma 3.1 work measure. The other fields are
// attribution detail — Bytes is an estimate (state-struct sizes, not
// allocator truth).
type Cost struct {
	// Nodes counts nice-decomposition nodes visited.
	Nodes int64 `json:"nodes,omitempty"`
	// States counts states inserted into per-node state sets (for the
	// pmdag engine: states materialized into level universes).
	States int64 `json:"states,omitempty"`
	// Joins counts join combinations attempted (signature-bucket
	// pairings scanned, successful or not).
	Joins int64 `json:"joins,omitempty"`
	// Emissions counts state emissions across all transitions.
	Emissions int64 `json:"emissions,omitempty"`
	// Bytes estimates state bytes read and written while processing.
	Bytes int64 `json:"bytes,omitempty"`
}

// IsZero reports whether every counter is zero.
func (c Cost) IsZero() bool {
	return c == Cost{}
}

// Accumulate adds d into c field by field.
func (c *Cost) Accumulate(d Cost) {
	c.Nodes += d.Nodes
	c.States += d.States
	c.Joins += d.Joins
	c.Emissions += d.Emissions
	c.Bytes += d.Bytes
}

// CostCounter is a concurrency-safe Cost accumulator: the query-level
// sink that concurrent bands add their records to. A nil *CostCounter
// is a valid no-op sink, mirroring the nil *Recorder contract.
type CostCounter struct {
	nodes     atomic.Int64
	states    atomic.Int64
	joins     atomic.Int64
	emissions atomic.Int64
	bytes     atomic.Int64
}

// Add accumulates a cost record. Nil receivers and zero records are
// free.
func (c *CostCounter) Add(d Cost) {
	if c == nil || d.IsZero() {
		return
	}
	if d.Nodes != 0 {
		c.nodes.Add(d.Nodes)
	}
	if d.States != 0 {
		c.states.Add(d.States)
	}
	if d.Joins != 0 {
		c.joins.Add(d.Joins)
	}
	if d.Emissions != 0 {
		c.emissions.Add(d.Emissions)
	}
	if d.Bytes != 0 {
		c.bytes.Add(d.Bytes)
	}
}

// Snapshot returns the accumulated totals; zero for a nil counter.
func (c *CostCounter) Snapshot() Cost {
	if c == nil {
		return Cost{}
	}
	return Cost{
		Nodes:     c.nodes.Load(),
		States:    c.states.Load(),
		Joins:     c.joins.Load(),
		Emissions: c.emissions.Load(),
		Bytes:     c.bytes.Load(),
	}
}

// costKey carries a *CostCounter through a context.
type costKey struct{}

// WithCost returns a context carrying the query-level cost counter; the
// serving layer attaches one beside the span recorder at admission, and
// the Index picks it up at the query boundary.
func WithCost(ctx context.Context, c *CostCounter) context.Context {
	return context.WithValue(ctx, costKey{}, c)
}

// CostFromContext returns the context's cost counter, or nil (including
// for a nil context).
func CostFromContext(ctx context.Context) *CostCounter {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(costKey{}).(*CostCounter)
	return c
}
