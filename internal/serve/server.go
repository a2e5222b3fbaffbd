package serve

import (
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planarsi/internal/core"
)

// maxBodyBytes caps request bodies.
const maxBodyBytes = 32 << 20

// Options configures a Server.
type Options struct {
	// Pipeline is the planarsi option set every query runs with. Answers
	// are byte-identical to the direct API with the same options.
	Pipeline core.Options
	// MaxBytes is the registry's memory budget (see RegistryOptions).
	MaxBytes int64
	// Scheduler configures the micro-batching window and admission
	// control.
	Scheduler SchedulerOptions
	// MaxGraphVertices caps registered host graphs and query patterns
	// (the daemon is network-facing). Default 1 << 21.
	MaxGraphVertices int
	// RequestTimeout, when positive, bounds every request's context with
	// a deadline: queries still running when it expires are cancelled
	// mid-band and answered with 504. 0 disables the bound.
	RequestTimeout time.Duration
	// SnapshotDir, when set, enables persistence: RestoreSnapshots warm
	// boots from the directory's *.snap files, SaveSnapshots checkpoints
	// every registered graph there, and POST /snapshot is exposed for
	// on-demand checkpointing.
	SnapshotDir string
	// SlowQuery, when positive, logs every request whose handler latency
	// reaches the threshold; when the request was traced (?trace=1) the
	// log line includes its slowest band spans and DP cost totals. 0
	// disables the log.
	SlowQuery time.Duration
	// Breaker configures the per-(graph, kind) circuit breakers; a zero
	// Threshold disables them.
	Breaker BreakerOptions
	// Logger receives the server's structured log records (slow queries,
	// incidents with their panic stacks); nil means slog.Default().
	Logger *slog.Logger
	// TraceLog, when non-nil, receives one JSON line per instrumented
	// request: request id, trace id, endpoint, status, duration — plus
	// the full span timeline and cost breakdown for ?trace=1 requests.
	// Writes are serialized; planarsiload -trace-summary reads the format
	// back. The caller owns the writer's lifetime (planarsid closes its
	// -trace-log file on shutdown).
	TraceLog io.Writer
	// TraceSpanLimit bounds the spans kept per ?trace=1 request; past it
	// spans are dropped (counted in the response's dropped field and the
	// planarsi_trace_dropped_total metric). <= 0 means
	// obs.DefaultSpanLimit.
	TraceSpanLimit int
}

func (o Options) withDefaults() Options {
	if o.MaxGraphVertices <= 0 {
		o.MaxGraphVertices = 1 << 21
	}
	o.Breaker = o.Breaker.withDefaults()
	return o
}

// Server glues the three serving-layer parts together: the graph
// registry, the micro-batching scheduler, and the HTTP endpoint handlers
// with their per-endpoint metrics. Build one with New, expose it with
// Handler, and preload graphs through Registry.
type Server struct {
	opt     Options
	reg     *Registry
	sched   *Scheduler
	metrics map[string]*endpointMetrics
	mux     *http.ServeMux
	start   time.Time
	logger  *slog.Logger

	// Trace export state: total spans dropped at recorder caps (the
	// planarsi_trace_dropped_total counter) and the lock serializing
	// JSONL writes to Options.TraceLog.
	traceDropped atomic.Uint64
	traceLogMu   sync.Mutex

	// Resilience state: the per-(graph, kind) circuit breakers plus the
	// incident and shed counters (see breaker.go and resilience.go).
	brMu        sync.Mutex
	breakers    map[breakerKey]*breaker
	incidentSeq atomic.Uint64
	incidents   atomic.Uint64
	shed        atomic.Uint64
}

// New builds a Server (no listening socket; pair Handler with an
// http.Server, as cmd/planarsid does).
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:      opt,
		metrics:  make(map[string]*endpointMetrics),
		breakers: make(map[breakerKey]*breaker),
		start:    time.Now(),
		logger:   opt.Logger,
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	// Queries grow Index caches; enforcing the budget once per executed
	// batch (not once per request) keeps Maintain's registry sweep off
	// the per-request hot path.
	opt.Scheduler.AfterBatch = func() { s.reg.Maintain() }
	s.sched = NewScheduler(opt.Scheduler)
	s.reg = NewRegistry(RegistryOptions{
		Pipeline: opt.Pipeline,
		MaxBytes: opt.MaxBytes,
		OnRemove: func(e *Entry) {
			s.sched.Forget(e)
			s.dropBreakers(e.Name())
		},
	})
	s.routes()
	return s
}

// Registry returns the server's graph registry (for preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Scheduler returns the server's micro-batching scheduler.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	// /metrics is deliberately uninstrumented: scrapes every few seconds
	// would dominate the low-traffic endpoints' histograms, and the
	// exposition must not grow a family for its own scrape traffic.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /graphs", s.instrument("graphs.list", s.handleListGraphs))
	mux.HandleFunc("POST /graphs/{name}", s.instrument("graphs.register", s.handleRegisterGraph))
	mux.HandleFunc("POST /graphs/{name}/edges", s.instrument("edges.apply", s.handleApplyEdits))
	mux.HandleFunc("DELETE /graphs/{name}", s.instrument("graphs.remove", s.handleRemoveGraph))
	for _, rt := range queryRoutes {
		mux.HandleFunc("POST /"+rt.name, s.instrument(rt.name, s.handleQuery(rt)))
	}
	if s.opt.SnapshotDir != "" {
		mux.HandleFunc("POST /snapshot", s.instrument("snapshot", s.handleSnapshot))
	}
	s.mux = mux
}

// ServerStats is the /stats payload.
type ServerStats struct {
	UptimeSeconds float64                  `json:"uptimeSeconds"`
	Registry      RegistryStats            `json:"registry"`
	Scheduler     SchedulerStats           `json:"scheduler"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Resilience    ResilienceStats          `json:"resilience"`
}

// ResilienceStats is the /stats resilience section: incident and shed
// totals plus one entry per live circuit breaker.
type ResilienceStats struct {
	// Incidents counts query panics answered with a 500 + incident id.
	Incidents uint64 `json:"incidents"`
	// Shed counts requests rejected because their remaining deadline
	// was below the endpoint's typical latency.
	Shed     uint64        `json:"shed"`
	Breakers []BreakerInfo `json:"breakers,omitempty"`
}

// resilienceStats snapshots the breaker map and resilience counters.
func (s *Server) resilienceStats() ResilienceStats {
	st := ResilienceStats{
		Incidents: s.incidents.Load(),
		Shed:      s.shed.Load(),
	}
	s.brMu.Lock()
	keys := make([]breakerKey, 0, len(s.breakers))
	for key := range s.breakers {
		keys = append(keys, key)
	}
	brs := make([]*breaker, len(keys))
	for i, key := range keys {
		brs[i] = s.breakers[key]
	}
	s.brMu.Unlock()
	for i, key := range keys {
		state, fails, opens, rejected := brs[i].snapshot()
		st.Breakers = append(st.Breakers, BreakerInfo{
			Graph:    key.graph,
			Kind:     key.kind,
			State:    breakerStateName(state),
			Fails:    fails,
			Opens:    opens,
			Rejected: rejected,
		})
	}
	slices.SortFunc(st.Breakers, func(a, b BreakerInfo) int {
		if c := strings.Compare(a.Graph, b.Graph); c != 0 {
			return c
		}
		return strings.Compare(a.Kind, b.Kind)
	})
	return st
}

// Stats returns a snapshot across all parts.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Registry:      s.reg.Stats(),
		Scheduler:     s.sched.Stats(),
		Endpoints:     make(map[string]EndpointStats, len(s.metrics)),
		Resilience:    s.resilienceStats(),
	}
	for name, m := range s.metrics {
		st.Endpoints[name] = m.snapshot()
	}
	return st
}
