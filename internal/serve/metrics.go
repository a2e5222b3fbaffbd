package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// endpointMetrics accumulates one endpoint's traffic in a fixed-bucket
// latency histogram plus outcome counters. The hot path adds no locks
// to request handling: a histogram observation is two atomic adds and a
// CAS, and the outcome counters are plain atomics.
//
// Outcomes are three-way. "Canceled" covers requests that died because
// the *client* went away or outlived its deadline (HTTP 499 and 504) —
// lumping those into the error rate made every impatient client look
// like a server failure, so they are counted (and exposed) separately
// from genuine errors (every other status >= 400).
type endpointMetrics struct {
	hist     *obs.Histogram // handler latency, seconds
	errors   atomic.Uint64
	canceled atomic.Uint64
	maxNs    atomic.Int64
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{hist: obs.NewLatencyHistogram()}
}

func (m *endpointMetrics) observe(d time.Duration, status int) {
	m.hist.ObserveDuration(d)
	switch {
	case status == StatusClientClosedRequest || status == http.StatusGatewayTimeout:
		m.canceled.Add(1)
	case status >= 400:
		m.errors.Add(1)
	}
	ns := d.Nanoseconds()
	for {
		prev := m.maxNs.Load()
		if ns <= prev || m.maxNs.CompareAndSwap(prev, ns) {
			return
		}
	}
}

// EndpointStats is one endpoint's snapshot in /stats, derived from the
// same histogram /metrics exposes (one source of truth for both views).
type EndpointStats struct {
	Count uint64 `json:"count"`
	// Errors counts statuses >= 400 excluding client cancellations;
	// Canceled counts 499s (client gone) and 504s (deadline expired).
	Errors   uint64 `json:"errors"`
	Canceled uint64 `json:"canceled"`
	// AvgMillis and MaxMillis summarize handler latency, including any
	// time spent waiting in the micro-batching window. P50/P95/P99 are
	// histogram-interpolated percentiles of the same distribution.
	AvgMillis float64 `json:"avgMillis"`
	MaxMillis float64 `json:"maxMillis"`
	P50Millis float64 `json:"p50Millis"`
	P95Millis float64 `json:"p95Millis"`
	P99Millis float64 `json:"p99Millis"`
}

func (m *endpointMetrics) snapshot() EndpointStats {
	h := m.hist.Snapshot()
	return EndpointStats{
		Count:     h.Count,
		Errors:    m.errors.Load(),
		Canceled:  m.canceled.Load(),
		AvgMillis: h.Mean() * 1e3,
		MaxMillis: float64(m.maxNs.Load()) / 1e6,
		P50Millis: h.Quantile(0.50) * 1e3,
		P95Millis: h.Quantile(0.95) * 1e3,
		P99Millis: h.Quantile(0.99) * 1e3,
	}
}

// statusRecorder captures the response status for the outcome counters
// while keeping the underlying ResponseWriter's optional interfaces
// reachable: Unwrap feeds http.NewResponseController, and the explicit
// Flush/ReadFrom pass-throughs keep streaming responses and sendfile
// working for handlers that type-assert the writer directly.
type statusRecorder struct {
	http.ResponseWriter
	status int
	// wroteHeader records whether anything reached the wire, so the
	// panic backstop in instrument knows whether it can still write a
	// structured 500 or must abandon the (already started) response.
	wroteHeader bool
}

func (w *statusRecorder) WriteHeader(status int) {
	w.status = status
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	w.wroteHeader = true // implicit 200 on first write
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the wrapped writer to http.NewResponseController,
// which walks Unwrap chains to find Flusher/Hijacker/deadline support.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards to the underlying writer when it can flush (a no-op
// otherwise, matching ResponseController's ErrNotSupported semantics
// for callers that only best-effort flush).
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom preserves the sendfile fast path: io.Copy into the wrapper
// finds this method and lands on the underlying writer's ReadFrom when
// it has one, instead of degrading to the generic buffer loop.
func (w *statusRecorder) ReadFrom(r io.Reader) (int64, error) {
	w.wroteHeader = true
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(io.Writer(w.ResponseWriter), r)
}

// traced reports whether the request opted into span recording and, if
// so, returns it with a fresh recorder and cost counter attached to its
// context (the Index picks both up at the query boundary). The check is
// a cheap substring probe before the URL query is parsed, so untraced
// requests never allocate the parsed form here.
func (s *Server) traced(r *http.Request) (*http.Request, *obs.Recorder, *obs.CostCounter) {
	if !strings.Contains(r.URL.RawQuery, "trace") || r.URL.Query().Get("trace") != "1" {
		return r, nil, nil
	}
	rec := obs.NewRecorder(s.opt.TraceSpanLimit)
	cost := new(obs.CostCounter)
	ctx := obs.WithCost(obs.WithRecorder(r.Context(), rec), cost)
	return r.WithContext(ctx), rec, cost
}

// correlate mints the request's id, parses any inbound traceparent, and
// attaches the reqInfo to the context; the response headers carry the
// id back (X-Request-Id always, traceparent when the client sent one —
// with our id as the parent-id, the downstream-span propagation shape).
func correlate(w http.ResponseWriter, r *http.Request) (*http.Request, *reqInfo) {
	ri := &reqInfo{id: newRequestID()}
	if tp := r.Header.Get("traceparent"); tp != "" {
		ri.traceID, ri.flags, _ = parseTraceparent(tp)
	}
	w.Header().Set("X-Request-Id", ri.id)
	if ri.traceID != "" {
		w.Header().Set("traceparent", "00-"+ri.traceID+"-"+ri.id+"-"+ri.flags)
	}
	return r.WithContext(withReqInfo(r.Context(), ri)), ri
}

// instrument wraps a handler with the named endpoint's histogram and
// counters, request-id/traceparent correlation, the ?trace=1 span
// recorder and cost counter, the slow-query log, the JSONL trace sink,
// and, when Options.RequestTimeout is set, the per-request deadline
// (the cancellation token every query derives from r.Context()).
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := newEndpointMetrics()
	s.metrics[name] = m
	return func(w http.ResponseWriter, r *http.Request) {
		if s.opt.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		r, ri := correlate(w, r)
		r, trace, cost := s.traced(r)
		if trace != nil {
			ri.poolBase = par.ReadPoolStats()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		func() {
			// Last-resort panic boundary: the query paths have their own
			// guards, so anything arriving here is a handler bug — still
			// answer it as a structured 500 (when the response has not
			// started) instead of letting net/http tear the connection
			// down mid-metrics.
			defer func() {
				if v := recover(); v != nil {
					id := s.incidentFromPanic(name, ri.id, v)
					rec.status = http.StatusInternalServerError
					if !rec.wroteHeader {
						writeJSON(rec, http.StatusInternalServerError,
							errorResponse{Error: "internal error", Incident: id})
					}
				}
			}()
			h(rec, r)
		}()
		d := time.Since(start)
		m.observe(d, rec.status)
		if trace != nil {
			if dropped := trace.Dropped(); dropped > 0 {
				s.traceDropped.Add(uint64(dropped))
			}
		}
		if s.opt.TraceLog != nil {
			s.writeTraceLog(name, ri, rec.status, d, trace, cost)
		}
		if s.opt.SlowQuery > 0 && d >= s.opt.SlowQuery {
			s.logSlow(name, ri.id, d, rec.status, trace, cost)
		}
	}
}

// traceLogRecord is one -trace-log JSONL line. Every instrumented
// request writes one; spans and cost are present only for ?trace=1
// requests (untraced requests never pay for span recording).
type traceLogRecord struct {
	Time      string     `json:"time"`
	RequestID string     `json:"requestId"`
	TraceID   string     `json:"traceId,omitempty"`
	Endpoint  string     `json:"endpoint"`
	Status    int        `json:"status"`
	DurMicros float64    `json:"durMicros"`
	Cost      *obs.Cost  `json:"cost,omitempty"`
	Spans     []obs.Span `json:"spans,omitempty"`
	Dropped   int        `json:"dropped,omitempty"`
}

// writeTraceLog appends one request's record to Options.TraceLog.
// Marshaling happens outside the lock; only the single Write is
// serialized, so each JSONL line lands intact under concurrency.
func (s *Server) writeTraceLog(endpoint string, ri *reqInfo, status int, d time.Duration, trace *obs.Recorder, cost *obs.CostCounter) {
	rec := traceLogRecord{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: ri.id,
		TraceID:   ri.traceID,
		Endpoint:  endpoint,
		Status:    status,
		DurMicros: float64(d.Nanoseconds()) / 1e3,
	}
	if trace != nil {
		rec.Spans, rec.Dropped = trace.Snapshot()
		if c := cost.Snapshot(); !c.IsZero() {
			rec.Cost = &c
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.traceLogMu.Lock()
	_, _ = s.opt.TraceLog.Write(line)
	s.traceLogMu.Unlock()
}

// logSlow reports one request that exceeded Options.SlowQuery. When the
// request was traced, the record carries its slowest band spans and
// cost totals — the band timeline that explains where the tail latency
// went.
func (s *Server) logSlow(endpoint, reqID string, d time.Duration, status int, trace *obs.Recorder, cost *obs.CostCounter) {
	spans, _ := trace.Snapshot()
	c := cost.Snapshot()
	attrs := []any{
		"requestId", reqID,
		"endpoint", endpoint,
		"status", status,
		"dur", d,
	}
	if !c.IsZero() {
		attrs = append(attrs, "costEmissions", c.Emissions, "costJoins", c.Joins,
			"costStates", c.States, "costBytes", c.Bytes)
	}
	if len(spans) > 0 {
		attrs = append(attrs, "slowestBands", slowestBands(spans, 3))
	}
	s.logger.Warn("serve: slow query", attrs...)
}

// slowestBands renders the top-k longest band spans as
// "run/band=dur(note)" entries.
func slowestBands(spans []obs.Span, k int) string {
	bands := spans[:0:0]
	for _, sp := range spans {
		if sp.Name == "band" {
			bands = append(bands, sp)
		}
	}
	sort.Slice(bands, func(i, j int) bool { return bands[i].DurMicros > bands[j].DurMicros })
	if len(bands) > k {
		bands = bands[:k]
	}
	var b strings.Builder
	for i, sp := range bands {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d/%d=%.0fµs(%s)", sp.Run, sp.Band, sp.DurMicros, sp.Note)
	}
	return b.String()
}
