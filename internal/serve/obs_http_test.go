package serve_test

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"planarsi/internal/graph"
	"planarsi/internal/serve"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsExposition is the Prometheus text-format structural test:
// after real traffic, /metrics must serve the 0.0.4 exposition with
// every expected family present, HELP/TYPE headers preceding samples,
// cumulative non-decreasing buckets, and a +Inf bucket equal to the
// series count.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.Registry().Register("grid", graph.Grid(5, 5), false); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}
	if resp, body := postJSON(t, ts.URL+"/decide", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d: %s", resp.StatusCode, body)
	}
	// One 404 so the error counter is nonzero.
	if resp, _ := postJSON(t, ts.URL+"/decide", map[string]any{"graph": "nope", "pattern": graphWire(graph.Cycle(4))}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("decide on unknown graph: %d, want 404", resp.StatusCode)
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4 prefix", ct)
	}

	for _, family := range []string{
		"planarsi_http_request_duration_seconds",
		"planarsi_http_requests_total",
		"planarsi_sched_batch_size",
		"planarsi_sched_window_wait_seconds",
		"planarsi_sched_queue_depth",
		"planarsi_sched_batches_total",
		"planarsi_sched_window_seconds",
		"planarsi_registry_graphs",
		"planarsi_uptime_seconds",
	} {
		if !strings.Contains(body, "# HELP "+family+" ") {
			t.Errorf("missing HELP for %s", family)
		}
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("missing TYPE for %s", family)
		}
	}

	// The decide endpoint served one ok and one error request.
	assertSample(t, body, `planarsi_http_requests_total{endpoint="decide",result="ok"}`, 1)
	assertSample(t, body, `planarsi_http_requests_total{endpoint="decide",result="error"}`, 1)
	assertSample(t, body, `planarsi_http_requests_total{endpoint="decide",result="canceled"}`, 0)
	assertSample(t, body, "planarsi_registry_graphs", 1)

	// Structural histogram checks on the decide latency series.
	checkHistogramSeries(t, body, "planarsi_http_request_duration_seconds", `endpoint="decide"`)
	checkHistogramSeries(t, body, "planarsi_sched_batch_size", "")

	// Every sample line must parse: name{labels} value.
	sample := regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? (NaN|[-+0-9.eE]+|\+Inf)$`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
}

// assertSample finds the exact series line and checks its value.
func assertSample(t *testing.T, body, series string, want float64) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			got, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Errorf("series %s: bad value %q", series, rest)
			} else if got != want {
				t.Errorf("series %s = %v, want %v", series, got, want)
			}
			return
		}
	}
	t.Errorf("series %s not found", series)
}

// checkHistogramSeries verifies one histogram's bucket structure:
// cumulative counts never decrease, and the +Inf bucket equals _count.
func checkHistogramSeries(t *testing.T, body, name, labels string) {
	t.Helper()
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	var prev float64 = -1
	var inf, count float64 = -1, -1
	countSeries := name + "_count"
	if labels != "" {
		countSeries += "{" + labels + "}"
	}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, countSeries+" "); ok {
			count, _ = strconv.ParseFloat(rest, 64)
			continue
		}
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		_, valPart, ok := strings.Cut(line, "} ")
		if !ok {
			t.Errorf("malformed bucket line %q", line)
			continue
		}
		v, err := strconv.ParseFloat(valPart, 64)
		if err != nil {
			t.Errorf("bucket line %q: bad count", line)
			continue
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative at %q: %v after %v", line, v, prev)
		}
		prev = v
		if strings.Contains(line, `le="+Inf"`) {
			inf = v
		}
	}
	if inf < 0 {
		t.Fatalf("%s{%s}: no +Inf bucket", name, labels)
	}
	if count < 0 {
		t.Fatalf("%s: no _count series", countSeries)
	}
	if inf != count {
		t.Errorf("%s{%s}: +Inf bucket %v != count %v", name, labels, inf, count)
	}
	if count == 0 {
		t.Errorf("%s{%s}: histogram empty; test traffic not recorded", name, labels)
	}
}

// TestStatsPercentilesAndOutcomes checks the /stats side of the shared
// histograms: percentile fields are populated and the canceled counter
// is split from errors — a deadline-expired request lands in canceled,
// an unknown-graph request in errors.
func TestStatsPercentilesAndOutcomes(t *testing.T) {
	s := serve.New(serve.Options{
		Pipeline:       httpOpt,
		Scheduler:      serve.SchedulerOptions{Window: time.Millisecond},
		RequestTimeout: time.Nanosecond, // every query dies at admission: canceled
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}

	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}
	resp, _ := postJSON(t, ts.URL+"/decide", req)
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != serve.StatusClientClosedRequest {
		t.Fatalf("deadline-expired decide: %d, want 504 or 499", resp.StatusCode)
	}

	st := s.Stats()
	decide := st.Endpoints["decide"]
	if decide.Canceled != 1 {
		t.Errorf("decide.canceled = %d, want 1", decide.Canceled)
	}
	if decide.Errors != 0 {
		t.Errorf("decide.errors = %d, want 0 (cancellations must not pollute the error rate)", decide.Errors)
	}

	// A genuinely failing server: unknown graph on a fresh instance.
	s2, ts2 := newTestServer(t)
	resp, _ = postJSON(t, ts2.URL+"/decide", map[string]any{"graph": "nope", "pattern": graphWire(graph.Cycle(3))})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", resp.StatusCode)
	}
	if _, err := s2.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts2.URL+"/decide", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("decide: %d: %s", resp.StatusCode, body)
		}
	}
	st2 := s2.Stats()
	decide2 := st2.Endpoints["decide"]
	if decide2.Errors != 1 || decide2.Canceled != 0 {
		t.Errorf("decide errors/canceled = %d/%d, want 1/0", decide2.Errors, decide2.Canceled)
	}
	if decide2.Count != 4 {
		t.Errorf("decide.count = %d, want 4", decide2.Count)
	}
	if decide2.P50Millis <= 0 || decide2.P95Millis < decide2.P50Millis || decide2.P99Millis < decide2.P95Millis {
		t.Errorf("percentiles not monotone positive: p50=%v p95=%v p99=%v",
			decide2.P50Millis, decide2.P95Millis, decide2.P99Millis)
	}
}

// TestTraceEndToEnd drives ?trace=1 through the full HTTP stack: the
// response must carry a span timeline with at least one band span, a
// plain request must carry none, and the traced answer must match the
// untraced one.
func TestTraceEndToEnd(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.Registry().Register("grid", graph.Grid(5, 5), false); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}

	type tracedResponse struct {
		Found bool `json:"found"`
		Trace *struct {
			Spans []struct {
				Name string  `json:"name"`
				Band int     `json:"band"`
				Dur  float64 `json:"durMicros"`
			} `json:"spans"`
			Dropped int `json:"dropped"`
		} `json:"trace"`
	}

	resp, body := postJSON(t, ts.URL+"/decide?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced decide: %d: %s", resp.StatusCode, body)
	}
	var traced tracedResponse
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("?trace=1 response has no trace field")
	}
	var bands int
	for _, sp := range traced.Trace.Spans {
		if sp.Name == "band" {
			bands++
		}
	}
	if bands == 0 {
		t.Fatalf("traced decide recorded no band spans: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/decide", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain decide: %d: %s", resp.StatusCode, body)
	}
	var plain tracedResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced response carries a trace field")
	}
	if plain.Found != traced.Found {
		t.Errorf("traced found=%v, untraced found=%v; tracing changed the answer", traced.Found, plain.Found)
	}

	// /find goes through the Direct path; tracing must work there too.
	resp, body = postJSON(t, ts.URL+"/find?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced find: %d: %s", resp.StatusCode, body)
	}
	var found tracedResponse
	if err := json.Unmarshal(body, &found); err != nil {
		t.Fatal(err)
	}
	if found.Trace == nil || len(found.Trace.Spans) == 0 {
		t.Fatalf("traced find returned no spans: %s", body)
	}
}

// TestSlowQueryLog checks the -slow-query hook: with a zero-distance
// threshold every request logs, and a traced slow request's record names
// its slowest bands.
func TestSlowQueryLog(t *testing.T) {
	// The log fires after the handler has already written the response,
	// so the client can return before it runs: deliver records through a
	// buffered channel and wait for one.
	logged := make(serve.LogLines, 4)
	s := serve.New(serve.Options{
		Pipeline:  httpOpt,
		Scheduler: serve.SchedulerOptions{Window: time.Millisecond},
		SlowQuery: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(logged, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"graph": "grid", "pattern": graphWire(graph.Cycle(4))}
	if resp, body := postJSON(t, ts.URL+"/decide?trace=1", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d: %s", resp.StatusCode, body)
	}
	var line string
	select {
	case line = <-logged:
	case <-time.After(5 * time.Second):
		t.Fatal("no slow-query log line")
	}
	if !strings.Contains(line, "endpoint=decide") {
		t.Errorf("slow log line %q lacks the endpoint", line)
	}
	if !strings.Contains(line, "slowestBands=") {
		t.Errorf("traced slow log line %q lacks band detail", line)
	}
}
