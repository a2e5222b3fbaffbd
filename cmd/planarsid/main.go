// Command planarsid is the long-lived query daemon: it serves the
// paper's planar subgraph isomorphism and vertex connectivity pipeline
// over HTTP/JSON, keeping host graphs resident in a registry of
// planarsi Indexes so every query amortizes the shared target-side
// preprocessing, and coalescing concurrent queries into micro-batches.
//
//	planarsid -addr :8080 -graph city=city.edges -graph grid=grid.edges
//
// Endpoints (JSON bodies unless noted):
//
//	POST   /graphs/{name}   register a host graph (edge-list text body,
//	                        or {"n":..,"edges":[[u,v],..]} as JSON)
//	GET    /graphs          list registered graphs with cache stats
//	DELETE /graphs/{name}   remove a graph
//	POST   /graphs/{name}/edges
//	                        apply an edit batch {"add":[[u,v],..],
//	                        "remove":[[u,v],..]} to a live graph,
//	                        advancing its edit epoch; optional
//	                        "ifEpoch" (409 on mismatch) and
//	                        "requirePlanar" (422 if planarity would be
//	                        lost). Unaffected cached artifacts are
//	                        retained; in-flight queries finish against
//	                        the pre-edit graph.
//	POST   /decide          {"graph":"g","pattern":{...}} -> {"found":..}
//	POST   /count           like decide, plus "count"
//	POST   /find            one witness occurrence, if any
//	POST   /separating      adds "terminals":[v,..]; witness occurrence
//	POST   /connectivity    {"graph":"g"} -> {"connectivity":..,"cut":..}
//	POST   /snapshot        checkpoint every graph to -snapshot-dir
//	GET    /stats           registry, scheduler and endpoint stats
//	                        (latency p50/p95/p99 per endpoint)
//	GET    /metrics         Prometheus text exposition of the same
//	                        histograms and counters
//	GET    /healthz         liveness probe
//
// Query endpoints accept ?trace=1, which adds the query's band-level
// span timeline ("trace") to the response — which runs and bands ran,
// how long each took, each band's DP cost counters (nodes, states,
// joins, emissions, bytes), and where cancellation or fallback struck.
// With -slow-query, requests at or above the threshold are logged,
// including their slowest bands and cost totals when traced.
//
// Every response carries an X-Request-Id header; a request that arrives
// with a W3C traceparent header joins that trace (the response echoes
// traceparent with the request id as parent-id), and the id is stamped
// on slow-query and incident log lines. -trace-log appends one JSON
// line per request to a file (full span timeline and cost for traced
// requests) that planarsiload -trace-summary aggregates offline.
// -debug-addr serves net/http/pprof on a separate listener, and
// /metrics exposes memo-cache traffic per artifact class, work-stealing
// pool internals, and Go runtime health alongside the request
// histograms.
//
// Graphs preloaded with -graph are pinned: the memory budget may shed
// their cached artifacts but never unregisters them. Decide/count
// queries arriving within -window of each other against the same graph
// are coalesced into one batched scan (0 disables coalescing; with
// -adaptive-window the window is a cap that shrinks toward zero while
// arrivals are sparse). SIGINT/SIGTERM shut down gracefully, draining
// in-flight requests.
//
// With -snapshot-dir, the daemon is restart-durable: boot restores
// every *.snap in the directory (graphs come back with their
// preprocessing caches warm, so the first queries skip the O(d·n)
// cover construction), graceful shutdown persists every registered
// graph back, and POST /snapshot checkpoints on demand. A -graph flag
// whose name was already restored from a snapshot is skipped.
//
// The daemon is panic-isolated end to end: a query that panics — in
// the DP engines, on a fork-join worker, anywhere under the handler —
// is answered with a 500 carrying an opaque incident id while the full
// stack is logged, and the process stays up. Repeated panics against
// one (graph, kind) pair open a circuit breaker (-breaker-fails,
// -breaker-cooldown) that answers 503 with a Retry-After header until
// a half-open probe succeeds. Requests whose remaining -deadline
// budget is below the endpoint's observed median latency are shed with
// a 503 at admission instead of burning cores on doomed work. -fault
// arms the deterministic fault-injection harness (testing only; see
// internal/fault and scripts/chaos-smoke.sh).
//
// The parallel runtime — a work-stealing pool — is sized with -procs
// (0 tracks GOMAXPROCS). Request contexts are honored end to end: a
// client that disconnects — or outlives -deadline — has its query
// cancelled mid-band instead of burning cores to completion, and
// requests that are already dead at admission are refused with 499.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // debug handlers, served only on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/fault"
	"planarsi/internal/gio"
	"planarsi/internal/par"
	"planarsi/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	seed := flag.Uint64("seed", 1, "random seed fixed for every query")
	runs := flag.Int("runs", 0, "cover repetitions (0 = w.h.p. default)")
	memMB := flag.Int64("mem-mb", 1024, "memory budget for graphs + cached artifacts, in MiB (0 = unlimited)")
	window := flag.Duration("window", 2*time.Millisecond, "micro-batching window for decide/count (0 disables coalescing)")
	maxBatch := flag.Int("max-batch", 64, "dispatch a batch early at this size")
	inflight := flag.Int("inflight", 0, "max concurrently executing batches (0 = parallelism)")
	maxQueued := flag.Int("max-queued", 4096, "queued-request bound before 503s")
	maxGraphN := flag.Int("max-graph-n", 1<<21, "largest accepted graph (vertices)")
	procs := flag.Int("procs", 0, "worker count for the parallel runtime (0 tracks GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "per-request deadline; expired queries are cancelled mid-band and answered 504 (0 = none)")
	snapDir := flag.String("snapshot-dir", "", "snapshot directory: warm-boot from its *.snap files, persist on graceful shutdown, expose POST /snapshot (empty disables persistence)")
	adaptive := flag.Bool("adaptive-window", false, "adapt the micro-batch window to the arrival rate (-window becomes the cap; idle traffic dispatches near-immediately)")
	slowQuery := flag.Duration("slow-query", 0, "log requests at or above this handler latency, with band spans when traced (0 disables)")
	breakerFails := flag.Int("breaker-fails", 5, "consecutive query panics before a (graph, kind) circuit breaker opens (0 disables breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open circuit rejects with 503 before a half-open probe")
	faultSpec := flag.String("fault", "", "deterministic fault injection spec, e.g. 'dp.panic=first:2,snapshot.write=every:3' (empty disables; testing only)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for probabilistic fault-injection rules")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof debug handlers (empty disables; keep it loopback-only)")
	traceLog := flag.String("trace-log", "", "append one JSON line per request to this file (spans and cost for ?trace=1 requests); read it back with planarsiload -trace-summary")
	traceSpanLimit := flag.Int("trace-span-limit", 0, "max spans kept per traced request (0 = default 512); excess spans are counted as dropped")
	var preload []string
	flag.Func("graph", "preload and pin a host graph as name=edgelist.file (repeatable)", func(v string) error {
		preload = append(preload, v)
		return nil
	})
	flag.Parse()

	if *procs > 0 {
		par.SetParallelism(*procs)
	}
	log.Printf("planarsid: parallel runtime: %d workers", par.Parallelism())
	if *faultSpec != "" {
		if err := fault.Enable(*faultSpec, *faultSeed); err != nil {
			log.Fatalf("planarsid: -fault: %v", err)
		}
		log.Printf("planarsid: FAULT INJECTION ACTIVE (testing only): %s", fault.Describe())
	}
	var traceLogFile *os.File
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("planarsid: -trace-log: %v", err)
		}
		traceLogFile = f
		log.Printf("planarsid: writing request traces to %s", *traceLog)
	}
	srvOpt := serve.Options{
		Pipeline: core.Options{Seed: *seed, MaxRuns: *runs},
		MaxBytes: *memMB << 20,
		Scheduler: serve.SchedulerOptions{
			Window:         serve.WindowFromFlag(*window),
			AdaptiveWindow: *adaptive,
			MaxBatch:       *maxBatch,
			MaxInFlight:    *inflight,
			MaxQueued:      *maxQueued,
		},
		MaxGraphVertices: *maxGraphN,
		RequestTimeout:   *deadline,
		SnapshotDir:      *snapDir,
		SlowQuery:        *slowQuery,
		Breaker: serve.BreakerOptions{
			Threshold: *breakerFails,
			Cooldown:  *breakerCooldown,
		},
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, nil)),
		TraceSpanLimit: *traceSpanLimit,
	}
	if traceLogFile != nil {
		// Assigned only when non-nil: a typed-nil *os.File inside the
		// io.Writer interface would defeat the TraceLog == nil check.
		srvOpt.TraceLog = traceLogFile
	}
	srv := serve.New(srvOpt)

	if *snapDir != "" {
		infos, err := srv.RestoreSnapshots()
		for _, in := range infos {
			log.Printf("planarsid: warm boot: restored graph %s (n=%d m=%d, clusterings=%d covers=%d) from %s — preprocessing skipped",
				in.Name, in.N, in.M, in.Clusterings, in.Covers, in.File)
		}
		if err != nil {
			log.Printf("planarsid: snapshot restore (continuing cold for the affected graphs): %v", err)
		}
	}

	for _, spec := range preload {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			log.Fatalf("planarsid: -graph wants name=file, got %q", spec)
		}
		if e := srv.Registry().Acquire(name); e != nil {
			srv.Registry().Release(e)
			log.Printf("planarsid: graph %s already restored from snapshot; skipping %s", name, path)
			continue
		}
		g, err := gio.ReadEdgeListFile(path)
		if err != nil {
			log.Fatalf("planarsid: graph %s: %v", name, err)
		}
		if _, err := srv.Registry().Register(name, g, true); err != nil {
			log.Fatalf("planarsid: %v", err)
		}
		log.Printf("planarsid: loaded graph %s (n=%d m=%d) from %s", name, g.N(), g.M(), path)
	}
	if st := srv.Stats().Registry; st.MaxBytes > 0 && st.Bytes > st.MaxBytes {
		log.Printf("planarsid: warning: preloaded graphs hold %d MiB, over the %d MiB budget — pinned graphs are never evicted, so the budget cannot be enforced",
			st.Bytes>>20, st.MaxBytes>>20)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("planarsid: %v", err)
	}
	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux; serving that mux on a
		// separate listener keeps profiling endpoints off the query port.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("planarsid: -debug-addr: %v", err)
		}
		log.Printf("planarsid: debug/pprof listening on %s", dln.Addr())
		go func() {
			if err := http.Serve(dln, nil); err != nil {
				log.Printf("planarsid: debug server: %v", err)
			}
		}()
	}
	// The resolved address line doubles as the readiness signal for
	// scripts (see make serve-smoke).
	log.Printf("planarsid: listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("planarsid: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("planarsid: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("planarsid: shutdown: %v", err)
		os.Exit(1)
	}
	if *snapDir != "" {
		infos, err := srv.SaveSnapshots()
		if err != nil {
			log.Printf("planarsid: snapshot persist: %v", err)
		}
		for _, in := range infos {
			log.Printf("planarsid: persisted graph %s (clusterings=%d covers=%d, %d bytes) to %s",
				in.Name, in.Clusterings, in.Covers, in.FileBytes, in.File)
		}
	}
	if traceLogFile != nil {
		// Shutdown has drained in-flight requests, so no writer races the
		// close.
		if err := traceLogFile.Close(); err != nil {
			log.Printf("planarsid: -trace-log close: %v", err)
		}
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "planarsid: served %d requests in %d batches (%d rejected)\n",
		st.Scheduler.Requests, st.Scheduler.Batches, st.Scheduler.Rejected)
}
