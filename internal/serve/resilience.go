package serve

// Query-path resilience: admission checks (circuit breakers and
// deadline-aware shedding), incident reporting for query panics, and
// the error writer that turns resilience failures into well-formed
// HTTP answers (503 + Retry-After, 500 + incident id).

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"planarsi/internal/index"
)

// ErrShed reports a request rejected at admission because its
// remaining deadline was below the endpoint's observed typical latency:
// admitting it would burn cores on an answer nobody can receive.
var ErrShed = errors.New("serve: shed: remaining deadline below typical latency")

// ErrBreakerOpen reports a request rejected by an open circuit
// breaker. Concrete errors are *BreakerOpenError.
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// BreakerOpenError is the concrete rejection of an open circuit; it
// wraps ErrBreakerOpen and carries the Retry-After hint.
type BreakerOpenError struct {
	Graph      string
	Kind       string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: circuit breaker open for graph %q kind %q (retry in %s)",
		e.Graph, e.Kind, e.RetryAfter.Round(time.Millisecond))
}

func (e *BreakerOpenError) Unwrap() error { return ErrBreakerOpen }

// shedMinSamples is how much latency history an endpoint needs before
// deadline-aware shedding activates: with fewer observations the p50 is
// noise and a cold server would shed real traffic.
const shedMinSamples = 64

// admitQuery runs the resilience admission checks for one decoded
// query: the (graph, kind) circuit breaker first, then deadline-aware
// shedding. On success it returns the breaker (nil when disabled) so
// the caller can Record the query's outcome; on failure the returned
// error maps to 503 through writeQueryError.
func (s *Server) admitQuery(r *http.Request, graph, kind string) (*breaker, error) {
	br := s.breaker(graph, kind)
	if br != nil {
		if retry, ok := br.Allow(time.Now()); !ok {
			return nil, &BreakerOpenError{Graph: graph, Kind: kind, RetryAfter: retry}
		}
	}
	if err := s.shedDoomed(r, kind); err != nil {
		if br != nil {
			// The admission above may have claimed the half-open probe
			// slot; give it back — a shed request proves nothing.
			br.Record(outcomeNeutral, time.Now())
		}
		s.shed.Add(1)
		return nil, err
	}
	return br, nil
}

// shedDoomed rejects a request whose remaining context deadline is
// below the endpoint's observed median latency. The median comes from
// the same per-endpoint histogram /metrics exposes; endpoints with too
// little history never shed.
func (s *Server) shedDoomed(r *http.Request, endpoint string) error {
	deadline, ok := r.Context().Deadline()
	if !ok {
		return nil
	}
	m := s.metrics[endpoint]
	if m == nil {
		return nil
	}
	h := m.hist.Snapshot()
	if h.Count < shedMinSamples {
		return nil
	}
	p50 := time.Duration(h.Quantile(0.50) * float64(time.Second))
	if remaining := time.Until(deadline); remaining < p50 {
		return fmt.Errorf("%w: %s remaining, typical %s query takes %s",
			ErrShed, remaining.Round(time.Millisecond), endpoint, p50.Round(time.Millisecond))
	}
	return nil
}

// recordOutcome feeds one finished query back into its breaker (a nil
// breaker means breakers are disabled). Only query panics count as
// incidents; everything a client can cause — cancellation, deadline,
// overload, validation — is neutral and can never open a circuit.
func recordOutcome(br *breaker, err error) {
	if br == nil {
		return
	}
	switch {
	case err == nil:
		br.Record(outcomeSuccess, time.Now())
	case errors.Is(err, index.ErrQueryPanic):
		br.Record(outcomeIncident, time.Now())
	default:
		br.Record(outcomeNeutral, time.Now())
	}
}

// incident assigns a fresh incident id to a server-side fault, bumps
// the incident counter, and logs the full detail — including the
// panicking goroutine's stack when the error carries one — correlated
// with the request id that triggered it. The HTTP response gets only
// the incident id: stacks are for operators, not clients.
func (s *Server) incident(where, reqID string, err error) string {
	id := fmt.Sprintf("inc-%06d", s.incidentSeq.Add(1))
	s.incidents.Add(1)
	attrs := []any{"incident", id, "requestId", reqID, "where", where}
	var qp *index.QueryPanicError
	if errors.As(err, &qp) {
		attrs = append(attrs, "panic", fmt.Sprint(qp.Value), "stack", string(qp.Stack))
	} else {
		attrs = append(attrs, "err", err)
	}
	s.logger.Error("serve: incident", attrs...)
	return id
}

// incidentFromPanic is the instrument-level backstop for a panic that
// escaped every query-path guard (a handler bug, not an engine fault).
func (s *Server) incidentFromPanic(endpoint, reqID string, v any) string {
	return s.incident("endpoint "+endpoint, reqID, index.Guard(func() error { panic(v) }))
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header has no sub-second form).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// retryAfter picks the Retry-After hint for one 503-class error: an
// open breaker knows its cooldown remainder; overload and shedding
// clear on the scale of the batching window.
func (s *Server) retryAfter(err error) string {
	var bo *BreakerOpenError
	if errors.As(err, &bo) {
		return retryAfterSeconds(bo.RetryAfter)
	}
	return retryAfterSeconds(s.sched.effectiveWindow())
}

// writeQueryError renders a query-path failure: 503s carry Retry-After,
// 500s (query panics) carry an incident id and log the stack (tagged
// with the failing request's id), and everything else flows through the
// plain status mapping.
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, graph string, err error) {
	status := queryStatus(err)
	switch status {
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", s.retryAfter(err))
	case http.StatusInternalServerError:
		reqID := ""
		if ri := reqInfoFrom(r.Context()); ri != nil {
			reqID = ri.id
		}
		id := s.incident("graph "+graph, reqID, err)
		writeJSON(w, status, errorResponse{
			Error:    fmt.Sprintf("%s: internal error (query panicked)", graph),
			Incident: id,
		})
		return
	}
	httpError(w, status, "%s: %v", graph, err)
}
