package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"

	"planarsi/internal/core"
	"planarsi/internal/gio"
	"planarsi/internal/graph"
	"planarsi/internal/index"
	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// StatusClientClosedRequest is the (nginx-conventional) status reported
// when the client's request context is already cancelled: there is
// nobody left to answer, so no work is admitted. There is no official
// status code for this; 499 is the de-facto standard.
const StatusClientClosedRequest = 499

// Edge is one wire edge. It decodes strictly: a JSON array that does not
// hold exactly two vertex ids is rejected (encoding/json would otherwise
// silently truncate longer arrays into a plain [2]int32, answering
// against a graph the client did not send).
type Edge [2]int32

// UnmarshalJSON implements the strict decoding described on Edge.
func (e *Edge) UnmarshalJSON(b []byte) error {
	var xs []int32
	if err := json.Unmarshal(b, &xs); err != nil {
		return err
	}
	if len(xs) != 2 {
		return fmt.Errorf("edge wants exactly 2 vertex ids, got %d", len(xs))
	}
	e[0], e[1] = xs[0], xs[1]
	return nil
}

// GraphJSON is the JSON wire form of a graph: a vertex count (optional —
// it is raised to max id + 1) plus an edge list.
type GraphJSON struct {
	N     int    `json:"n"`
	Edges []Edge `json:"edges"`
}

// WireGraph renders a graph in the JSON wire form.
func WireGraph(g *graph.Graph) GraphJSON {
	edges := g.Edges()
	wire := GraphJSON{N: g.N(), Edges: make([]Edge, len(edges))}
	for i, e := range edges {
		wire.Edges[i] = Edge(e)
	}
	return wire
}

// Build validates the wire graph and constructs it (duplicate edges are
// tolerated, mirroring the edge-list parser; deduplication is a set
// lookup per edge, so hostile dense bodies stay linear).
func (j *GraphJSON) Build(maxVertices int) (*graph.Graph, error) {
	if j == nil {
		return nil, errors.New("missing graph")
	}
	if j.N < 0 {
		return nil, fmt.Errorf("negative vertex count %d", j.N)
	}
	n := j.N
	for _, e := range j.Edges {
		if e[0] < 0 || e[1] < 0 {
			return nil, fmt.Errorf("negative vertex id in edge %v", e)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("self-loop at %d", e[0])
		}
		n = max(n, int(e[0])+1, int(e[1])+1)
	}
	if n > maxVertices {
		return nil, fmt.Errorf("%d vertices exceeds limit %d", n, maxVertices)
	}
	b := graph.NewBuilder(n)
	seen := make(map[Edge]struct{}, len(j.Edges))
	for _, e := range j.Edges {
		k := e
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		b.AddEdge(e[0], e[1])
	}
	return b.Build(), nil
}

// QueryRequest is the JSON body of the query endpoints.
type QueryRequest struct {
	// Graph names a registered host graph.
	Graph string `json:"graph"`
	// Pattern is the pattern to search for (decide, find, count,
	// separating).
	Pattern *GraphJSON `json:"pattern,omitempty"`
	// Terminals lists the terminal vertex set of /separating.
	Terminals []int32 `json:"terminals,omitempty"`
}

// QueryResponse is the JSON body of the query endpoints' answers. Fields
// not meaningful for an endpoint are omitted.
type QueryResponse struct {
	Graph string `json:"graph"`
	Found bool   `json:"found"`
	// Count is the occurrence count (/count only).
	Count *int `json:"count,omitempty"`
	// Occurrence maps pattern vertex u to target vertex Occurrence[u]
	// (/find and /separating, when found).
	Occurrence core.Occurrence `json:"occurrence,omitempty"`
	// Trace carries the query's band timeline when it was requested with
	// ?trace=1; absent otherwise.
	Trace *TraceJSON `json:"trace,omitempty"`
}

// TraceJSON is the wire form of a ?trace=1 span timeline.
type TraceJSON struct {
	// RequestID is this server's id for the request (also in the
	// X-Request-Id response header and every correlated log line);
	// TraceID is the inbound W3C traceparent's trace-id, when one came.
	RequestID string     `json:"requestId,omitempty"`
	TraceID   string     `json:"traceId,omitempty"`
	Spans     []obs.Span `json:"spans"`
	// Dropped counts spans lost to the recorder's bound; Truncated
	// mirrors Dropped > 0: the timeline is a prefix of the query's real
	// span stream.
	Dropped   int  `json:"dropped,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
	// Cost is the query's DP cost total — the exact sum of the band
	// spans' cost breakdowns (prepare spans' bytes are cache residency,
	// not DP work, and are excluded).
	Cost *obs.Cost `json:"cost,omitempty"`
	// PoolSteals and PoolParks are the work-stealing pool's event deltas
	// over the request window. The pool is process-global, so concurrent
	// queries' events blend into each other's deltas: attribution is by
	// time window, not ownership.
	PoolSteals int64 `json:"poolSteals,omitempty"`
	PoolParks  int64 `json:"poolParks,omitempty"`
}

// traceJSON extracts the request's recorded spans, when it carried a
// ?trace=1 recorder (attached by instrument via traced). Nil otherwise,
// so untraced responses omit the field entirely.
func traceJSON(r *http.Request) *TraceJSON {
	rec := obs.FromContext(r.Context())
	if rec == nil {
		return nil
	}
	spans, dropped := rec.Snapshot()
	tj := &TraceJSON{Spans: spans, Dropped: dropped, Truncated: dropped > 0}
	if c := obs.CostFromContext(r.Context()).Snapshot(); !c.IsZero() {
		tj.Cost = &c
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		tj.RequestID = ri.id
		tj.TraceID = ri.traceID
		now := par.ReadPoolStats()
		tj.PoolSteals = now.Steals - ri.poolBase.Steals
		tj.PoolParks = now.Parks - ri.poolBase.Parks
	}
	return tj
}

// ConnectivityResponse is the JSON body of /connectivity answers.
type ConnectivityResponse struct {
	Graph        string  `json:"graph"`
	Connectivity int     `json:"connectivity"`
	Cut          []int32 `json:"cut,omitempty"`
}

// RegisterResponse is the JSON body of a successful graph registration.
type RegisterResponse struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Incident is set on 500s caused by a server-side panic: an opaque
	// id clients can quote so an operator can find the logged stack.
	Incident string `json:"incident,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// queryStatus maps a query-path error to its HTTP status.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrBreakerOpen), errors.Is(err, ErrShed):
		return http.StatusServiceUnavailable
	case errors.Is(err, index.ErrQueryPanic):
		// A server-side fault, not a property of the request.
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled):
		// The client disconnected; the in-flight work was cancelled.
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline expired before the query finished.
		return http.StatusGatewayTimeout
	default:
		// Pattern-level rejections (oversized, disconnected, non-planar):
		// the request was well-formed but unprocessable.
		return http.StatusUnprocessableEntity
	}
}

// decodeQuery parses a query body and acquires its host graph; on success
// the caller owns the returned release func.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request, needPattern bool) (*QueryRequest, *Entry, *graph.Graph, func(), bool) {
	// Fail fast for clients that are already gone: decoding bodies and
	// queueing work for a dead connection only steals cores from live
	// requests.
	if err := r.Context().Err(); err != nil {
		httpError(w, queryStatus(err), "request context done at admission: %v", err)
		return nil, nil, nil, nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, nil, nil, nil, false
	}
	var h *graph.Graph
	if needPattern {
		var err error
		if h, err = req.Pattern.Build(s.opt.MaxGraphVertices); err != nil {
			httpError(w, http.StatusBadRequest, "bad pattern: %v", err)
			return nil, nil, nil, nil, false
		}
		// The DP engine's bitset state is sized for match.MaxK pattern
		// vertices; reject anything larger at the boundary with a 400
		// instead of letting it anywhere near the query path.
		if h.N() > match.MaxK {
			httpError(w, http.StatusBadRequest,
				"pattern has %d vertices, over the engine limit of %d", h.N(), match.MaxK)
			return nil, nil, nil, nil, false
		}
	}
	e := s.reg.Acquire(req.Graph)
	if e == nil {
		httpError(w, http.StatusNotFound, "graph %q not registered", req.Graph)
		return nil, nil, nil, nil, false
	}
	release := func() { s.reg.Release(e) }
	return &req, e, h, release, true
}

// handleBatched serves /decide and /count: the query joins the entry's
// current micro-batch and the batch runs as one Index.Scan / ScanCount.
func (s *Server) handleBatched(kind BatchKind) http.HandlerFunc {
	kindName := "decide"
	if kind == KindCount {
		kindName = "count"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		req, e, h, release, ok := s.decodeQuery(w, r, true)
		if !ok {
			return
		}
		defer release()
		br, err := s.admitQuery(r, req.Graph, kindName)
		if err != nil {
			s.writeQueryError(w, r, req.Graph, err)
			return
		}
		res, err := s.sched.Submit(r.Context(), e, kind, h)
		if err == nil {
			err = res.Err
		}
		recordOutcome(br, err)
		if err != nil {
			s.writeQueryError(w, r, req.Graph, err)
			return
		}
		out := QueryResponse{Graph: req.Graph, Found: res.Found, Trace: traceJSON(r)}
		if kind == KindCount {
			out.Count = &res.Count
		}
		writeJSON(w, http.StatusOK, out)
	}
}

func (s *Server) handleFind(w http.ResponseWriter, r *http.Request) {
	req, e, h, release, ok := s.decodeQuery(w, r, true)
	if !ok {
		return
	}
	defer release()
	br, err := s.admitQuery(r, req.Graph, "find")
	if err != nil {
		s.writeQueryError(w, r, req.Graph, err)
		return
	}
	var occ core.Occurrence
	if derr := s.sched.Direct(r.Context(), func() {
		// Guard converts an engine panic (carried to this goroutine by
		// the fork-join pool) into a structured 500, keeping the
		// daemon up.
		err = index.Guard(func() error {
			var ferr error
			occ, ferr = e.Index().FindOccurrenceCtx(r.Context(), h)
			return ferr
		})
	}); derr != nil {
		err = derr
	}
	recordOutcome(br, err)
	if err != nil {
		s.writeQueryError(w, r, req.Graph, err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{Graph: req.Graph, Found: occ != nil, Occurrence: occ, Trace: traceJSON(r)})
}

func (s *Server) handleSeparating(w http.ResponseWriter, r *http.Request) {
	req, e, h, release, ok := s.decodeQuery(w, r, true)
	if !ok {
		return
	}
	defer release()
	n := e.Graph().N()
	if len(req.Terminals) < 2 {
		httpError(w, http.StatusBadRequest, "separating needs at least two terminals")
		return
	}
	mask := make([]bool, n)
	for _, v := range req.Terminals {
		if v < 0 || int(v) >= n {
			httpError(w, http.StatusBadRequest, "terminal %d out of range [0, %d)", v, n)
			return
		}
		mask[v] = true
	}
	br, err := s.admitQuery(r, req.Graph, "separating")
	if err != nil {
		s.writeQueryError(w, r, req.Graph, err)
		return
	}
	var occ core.Occurrence
	if derr := s.sched.Direct(r.Context(), func() {
		err = index.Guard(func() error {
			var ferr error
			occ, ferr = e.Index().DecideSeparatingCtx(r.Context(), h, mask)
			return ferr
		})
	}); derr != nil {
		err = derr
	}
	recordOutcome(br, err)
	if err != nil {
		s.writeQueryError(w, r, req.Graph, err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{Graph: req.Graph, Found: occ != nil, Occurrence: occ, Trace: traceJSON(r)})
}

func (s *Server) handleConnectivity(w http.ResponseWriter, r *http.Request) {
	req, e, _, release, ok := s.decodeQuery(w, r, false)
	if !ok {
		return
	}
	defer release()
	br, err := s.admitQuery(r, req.Graph, "connectivity")
	if err != nil {
		s.writeQueryError(w, r, req.Graph, err)
		return
	}
	var res ConnectivityResponse
	if derr := s.sched.Direct(r.Context(), func() {
		err = index.Guard(func() error {
			cr, cerr := e.Connectivity()
			res = ConnectivityResponse{Graph: req.Graph, Connectivity: cr.Connectivity, Cut: cr.Cut}
			return cerr
		})
	}); derr != nil {
		err = derr
	}
	recordOutcome(br, err)
	if err != nil {
		s.writeQueryError(w, r, req.Graph, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleRegisterGraph registers the named graph from the request body:
// JSON (GraphJSON) when the content type is application/json, otherwise
// the edge-list text format.
func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	var g *graph.Graph
	var err error
	if ct == "application/json" {
		var spec GraphJSON
		if err = json.NewDecoder(r.Body).Decode(&spec); err == nil {
			g, err = spec.Build(s.opt.MaxGraphVertices)
		}
	} else {
		g, err = gio.ReadEdgeListLimit(r.Body, s.opt.MaxGraphVertices)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	if _, err := s.reg.Register(name, g, false); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, RegisterResponse{Name: name, N: g.N(), M: g.M()})
}

func (s *Server) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Remove(name); err != nil {
		status := http.StatusNotFound
		if errors.Is(err, ErrInUse) {
			status = http.StatusConflict
		}
		httpError(w, status, "%v", err)
		return
	}
	// An explicitly removed graph must stay gone across restarts: drop
	// its snapshot file too.
	s.removeSnapshotFile(name)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Stats())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
