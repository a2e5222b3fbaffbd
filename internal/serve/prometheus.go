package serve

// Prometheus text exposition (format version 0.0.4), hand-rolled on the
// standard library: the container bakes no client_golang, and the whole
// surface needed here is histograms, counters and gauges over a fixed,
// startup-time metric set. Families and label values are emitted in
// sorted order so the output is deterministic (the golden test relies
// on it) and diff-friendly for scrape debugging.

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"planarsi/internal/obs"
	"planarsi/internal/par"
)

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	s.writeMetrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

// writeMetrics renders every metric family. The metrics map is written
// only during routes() (startup), so iterating it here without a lock
// is safe; the histograms and counters themselves are atomic.
func (s *Server) writeMetrics(b *bytes.Buffer) {
	names := make([]string, 0, len(s.metrics))
	for name := range s.metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	writeHeader(b, "planarsi_http_request_duration_seconds",
		"Handler latency per endpoint, including micro-batch window waits.", "histogram")
	for _, name := range names {
		writeHistogram(b, "planarsi_http_request_duration_seconds",
			`endpoint="`+name+`"`, s.metrics[name].hist.Snapshot())
	}

	writeHeader(b, "planarsi_http_requests_total",
		"Requests per endpoint by outcome: ok, error (status >= 400), or canceled (client gone: 499/504).", "counter")
	for _, name := range names {
		m := s.metrics[name]
		total := m.hist.Count()
		errors := m.errors.Load()
		canceled := m.canceled.Load()
		writeSample(b, "planarsi_http_requests_total", `endpoint="`+name+`",result="ok"`, float64(total-errors-canceled))
		writeSample(b, "planarsi_http_requests_total", `endpoint="`+name+`",result="error"`, float64(errors))
		writeSample(b, "planarsi_http_requests_total", `endpoint="`+name+`",result="canceled"`, float64(canceled))
	}

	sst := s.sched.Stats()
	writeHeader(b, "planarsi_sched_batch_size",
		"Requests per dispatched micro-batch.", "histogram")
	writeHistogram(b, "planarsi_sched_batch_size", "", s.sched.batchSizes.Snapshot())
	writeHeader(b, "planarsi_sched_window_wait_seconds",
		"Time requests spent waiting for their batch to dispatch.", "histogram")
	writeHistogram(b, "planarsi_sched_window_wait_seconds", "", s.sched.waits.Snapshot())
	writeHeader(b, "planarsi_sched_queue_depth",
		"Scheduler queue depth observed at each admission.", "histogram")
	writeHistogram(b, "planarsi_sched_queue_depth", "", s.sched.depths.Snapshot())

	writeCounter(b, "planarsi_sched_batches_total", "Dispatched micro-batches.", float64(sst.Batches))
	writeCounter(b, "planarsi_sched_requests_total", "Requests executed through the scheduler.", float64(sst.Requests))
	writeCounter(b, "planarsi_sched_rejected_total", "Requests rejected at admission (queue full).", float64(sst.Rejected))
	writeCounter(b, "planarsi_sched_retries_total", "Batch members re-run as singletons after a panic-isolated failure.", float64(sst.Retries))
	writeGauge(b, "planarsi_sched_inflight", "Batches executing right now.", float64(sst.InFlight))
	writeGauge(b, "planarsi_sched_queued", "Requests waiting anywhere in the scheduler.", float64(sst.Queued))
	writeGauge(b, "planarsi_sched_window_seconds",
		"Effective micro-batch window the next batch timer is armed with (adapts to arrival rate when enabled).",
		s.sched.effectiveWindow().Seconds())

	rst := s.reg.Stats()
	writeGauge(b, "planarsi_registry_graphs", "Registered host graphs.", float64(len(rst.Graphs)))
	writeGauge(b, "planarsi_registry_bytes", "Bytes held by graphs plus cached artifacts.", float64(rst.Bytes))
	writeGauge(b, "planarsi_registry_max_bytes", "Registry memory budget (0 = unlimited).", float64(rst.MaxBytes))
	writeCounter(b, "planarsi_registry_cache_resets_total", "Stage-1 evictions: Index caches shed under memory pressure.", float64(rst.CacheResets))
	writeCounter(b, "planarsi_registry_evictions_total", "Stage-2 evictions: unpinned graphs dropped under memory pressure.", float64(rst.Evictions))

	res := s.resilienceStats()
	writeCounter(b, "planarsi_incidents_total", "Query panics answered with a 500 + incident id.", float64(res.Incidents))
	writeCounter(b, "planarsi_shed_total", "Requests shed at admission: remaining deadline below the endpoint's typical latency.", float64(res.Shed))
	// Breakers come back from resilienceStats sorted by (graph, kind),
	// preserving the deterministic-exposition contract.
	writeHeader(b, "planarsi_breaker_state",
		"Circuit breaker state per (graph, kind): 0 closed, 1 open, 2 half-open.", "gauge")
	for _, bi := range res.Breakers {
		labels := `graph="` + bi.Graph + `",kind="` + bi.Kind + `"`
		writeSample(b, "planarsi_breaker_state", labels, float64(breakerStateValue(bi.State)))
	}
	writeHeader(b, "planarsi_breaker_opens_total",
		"Times each circuit opened (including half-open re-opens).", "counter")
	for _, bi := range res.Breakers {
		labels := `graph="` + bi.Graph + `",kind="` + bi.Kind + `"`
		writeSample(b, "planarsi_breaker_opens_total", labels, float64(bi.Opens))
	}
	writeHeader(b, "planarsi_breaker_rejected_total",
		"Requests rejected by an open circuit.", "counter")
	for _, bi := range res.Breakers {
		labels := `graph="` + bi.Graph + `",kind="` + bi.Kind + `"`
		writeSample(b, "planarsi_breaker_rejected_total", labels, float64(bi.Rejected))
	}

	writeCounter(b, "planarsi_trace_dropped_total",
		"Spans dropped at per-request recorder caps; nonzero means some ?trace=1 timelines were truncated.",
		float64(s.traceDropped.Load()))

	pst := par.ReadPoolStats()
	writeCounter(b, "planarsi_pool_steals_total", "Successful work-steals across every fork-join pool this process ran.", float64(pst.Steals))
	writeCounter(b, "planarsi_pool_parks_total", "Worker park events: a worker found no work anywhere and blocked.", float64(pst.Parks))
	writeCounter(b, "planarsi_pool_resizes_total", "Shared-pool replacements after parallelism changes.", float64(pst.Resizes))
	writeGauge(b, "planarsi_pool_workers", "Live shared-pool worker count (0 when no pool is installed).", float64(pst.Workers))
	writeGauge(b, "planarsi_pool_active_workers", "Workers not currently parked waiting for work.", float64(pst.Workers-pst.Parked))

	// Query traffic per graph: queries counts logical patterns answered,
	// sweeps counts physical DP dispatches — a batched scan that groups
	// isomorphic or shape-equal patterns into one shared sweep answers
	// many queries per sweep, so queries/sweeps measures batching
	// leverage. rst.Graphs comes back sorted by name.
	writeHeader(b, "planarsi_index_queries_total",
		"Queries answered per graph over the Index's lifetime (each pattern of a batched scan counts once).", "counter")
	for _, gi := range rst.Graphs {
		writeSample(b, "planarsi_index_queries_total", `graph="`+gi.Name+`"`, float64(gi.Index.Queries))
	}
	writeHeader(b, "planarsi_index_sweeps_total",
		"Physical DP sweeps dispatched per graph; batched scans answer multiple queries per sweep.", "counter")
	for _, gi := range rst.Graphs {
		writeSample(b, "planarsi_index_sweeps_total", `graph="`+gi.Name+`"`, float64(gi.Index.Sweeps))
	}

	// Memo-cache traffic per (graph, artifact class). rst.Graphs comes
	// back sorted by name and each Memo slice is in fixed class order,
	// keeping the exposition deterministic.
	writeHeader(b, "planarsi_index_memo_hits_total",
		"Memo-cache accesses that found a fully built artifact, per graph and artifact class.", "counter")
	for _, gi := range rst.Graphs {
		for _, ms := range gi.Memo {
			writeSample(b, "planarsi_index_memo_hits_total", memoLabels(gi.Name, ms.Class), float64(ms.Hits))
		}
	}
	writeHeader(b, "planarsi_index_memo_misses_total",
		"Memo-cache accesses that had to build (or rebuild) an artifact, per graph and artifact class.", "counter")
	for _, gi := range rst.Graphs {
		for _, ms := range gi.Memo {
			writeSample(b, "planarsi_index_memo_misses_total", memoLabels(gi.Name, ms.Class), float64(ms.Misses))
		}
	}
	writeHeader(b, "planarsi_index_memo_build_seconds_total",
		"Wall time spent building artifacts, per graph and artifact class.", "counter")
	for _, gi := range rst.Graphs {
		for _, ms := range gi.Memo {
			writeSample(b, "planarsi_index_memo_build_seconds_total", memoLabels(gi.Name, ms.Class), ms.BuildSeconds)
		}
	}
	writeHeader(b, "planarsi_index_memo_bytes",
		"Bytes held by fully built resident artifacts, per graph and artifact class.", "gauge")
	for _, gi := range rst.Graphs {
		for _, ms := range gi.Memo {
			writeSample(b, "planarsi_index_memo_bytes", memoLabels(gi.Name, ms.Class), float64(ms.Bytes))
		}
	}
	writeHeader(b, "planarsi_index_memo_entries",
		"Fully built resident artifacts, per graph and artifact class.", "gauge")
	for _, gi := range rst.Graphs {
		for _, ms := range gi.Memo {
			writeSample(b, "planarsi_index_memo_entries", memoLabels(gi.Name, ms.Class), float64(ms.Entries))
		}
	}

	// Live-graph mutation per graph: the edit epoch plus the per-class
	// invalidated/retained tallies of ApplyEdits migrations. A healthy
	// incremental workload keeps invalidations well below retained —
	// the mutation-smoke CI lane asserts exactly that.
	writeHeader(b, "planarsi_index_epoch",
		"Edit epoch per graph: edit batches applied over the Index's lifetime (0 = never mutated).", "gauge")
	for _, gi := range rst.Graphs {
		writeSample(b, "planarsi_index_epoch", `graph="`+gi.Name+`"`, float64(gi.Index.Epoch))
	}
	writeHeader(b, "planarsi_index_invalidations_total",
		"Artifacts invalidated (rebuilt) by edit migrations, per graph and artifact class.", "counter")
	for _, gi := range rst.Graphs {
		for _, st := range gi.Invalidations {
			writeSample(b, "planarsi_index_invalidations_total", memoLabels(gi.Name, st.Class), float64(st.Invalidated))
		}
	}
	writeHeader(b, "planarsi_index_retained_total",
		"Artifacts retained verbatim across edit migrations, per graph and artifact class.", "counter")
	for _, gi := range rst.Graphs {
		for _, st := range gi.Invalidations {
			writeSample(b, "planarsi_index_retained_total", memoLabels(gi.Name, st.Class), float64(st.Retained))
		}
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	writeGauge(b, "planarsi_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	writeGauge(b, "planarsi_go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(mem.HeapAlloc))
	writeGauge(b, "planarsi_go_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", float64(mem.HeapSys))
	writeGauge(b, "planarsi_go_heap_objects", "Live heap objects.", float64(mem.HeapObjects))
	writeGauge(b, "planarsi_go_next_gc_bytes", "Heap size target of the next GC cycle.", float64(mem.NextGC))
	writeCounter(b, "planarsi_go_gcs_total", "Completed GC cycles.", float64(mem.NumGC))
	writeCounter(b, "planarsi_go_gc_pause_seconds_total", "Total stop-the-world GC pause time.", float64(mem.PauseTotalNs)/1e9)

	writeGauge(b, "planarsi_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
}

// memoLabels renders the {graph, class} label set of the memo families.
func memoLabels(graph, class string) string {
	return `class="` + class + `",graph="` + graph + `"`
}

// breakerStateValue maps BreakerInfo's state name back to the numeric
// gauge value (the state constants in breaker.go).
func breakerStateValue(state string) int {
	switch state {
	case "open":
		return breakerOpen
	case "half-open":
		return breakerHalfOpen
	default:
		return breakerClosed
	}
}

func writeHeader(b *bytes.Buffer, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders one histogram series (cumulative buckets, sum,
// count) under the given label set (may be empty).
func writeHistogram(b *bytes.Buffer, name, labels string, h obs.HistSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatValue(h.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count)
}

func writeCounter(b *bytes.Buffer, name, help string, v float64) {
	writeHeader(b, name, help, "counter")
	writeSample(b, name, "", v)
}

func writeGauge(b *bytes.Buffer, name, help string, v float64) {
	writeHeader(b, name, help, "gauge")
	writeSample(b, name, "", v)
}

func writeSample(b *bytes.Buffer, name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s%s %s\n", name, labels, formatValue(v))
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal round-trip ("0.005", not "5e-03").
func formatBound(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
