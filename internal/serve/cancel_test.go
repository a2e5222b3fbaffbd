package serve

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"planarsi/internal/graph"
)

func cancelTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(Options{Scheduler: SchedulerOptions{Window: -1}})
	rng := rand.New(rand.NewPCG(71, 73))
	g := graph.RandomPlanar(300, 0.7, rng)
	if _, err := s.Registry().Register("g", g, true); err != nil {
		t.Fatal(err)
	}
	return s
}

func patternBody(t *testing.T, h *graph.Graph) string {
	t.Helper()
	body, err := json.Marshal(QueryRequest{Graph: "g", Pattern: wirePtr(h)})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func wirePtr(g *graph.Graph) *GraphJSON {
	w := WireGraph(g)
	return &w
}

// TestAdmissionFailFastOnDeadContext: a request whose context is already
// cancelled is refused with 499 before any decoding or queueing.
func TestAdmissionFailFastOnDeadContext(t *testing.T) {
	s := cancelTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ep := range []string{"/decide", "/count", "/find", "/separating", "/connectivity"} {
		req := httptest.NewRequest("POST", ep, strings.NewReader(patternBody(t, graph.Cycle(4)))).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != StatusClientClosedRequest {
			t.Fatalf("%s with dead context: status %d, want %d (body %s)", ep, rec.Code, StatusClientClosedRequest, rec.Body)
		}
	}
}

// TestMidFlightDisconnect races client disconnects against running
// queries: the handler must return promptly with either a success or a
// cancellation status, and the server must keep answering correctly
// afterwards.
func TestMidFlightDisconnect(t *testing.T) {
	s := cancelTestServer(t)
	h := graph.Cycle(4)

	// Reference answer through a live request.
	ask := func(ctx context.Context) (int, QueryResponse) {
		req := httptest.NewRequest("POST", "/decide", strings.NewReader(patternBody(t, h)))
		if ctx != nil {
			req = req.WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var out QueryResponse
		_ = json.NewDecoder(rec.Body).Decode(&out)
		return rec.Code, out
	}
	code, ref := ask(nil)
	if code != http.StatusOK {
		t.Fatalf("reference query failed with %d", code)
	}

	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(delay)
		done := make(chan struct{})
		var code int
		var out QueryResponse
		go func() {
			code, out = ask(ctx)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("delay %v: handler hung after disconnect", delay)
		}
		switch code {
		case http.StatusOK:
			if out.Found != ref.Found {
				t.Fatalf("delay %v: found=%v want %v", delay, out.Found, ref.Found)
			}
		case StatusClientClosedRequest:
			// cancelled — fine
		default:
			t.Fatalf("delay %v: unexpected status %d", delay, code)
		}
		// The server still answers correctly after the aborted request.
		if code, out := ask(nil); code != http.StatusOK || out.Found != ref.Found {
			t.Fatalf("delay %v: post-disconnect query: status %d found %v", delay, code, out.Found)
		}
	}
}

// TestConnectivityHonorsDeadline: /connectivity's separating-cycle
// searches stop at the request deadline (504, or 499 when the deadline
// had already passed at admission), and the cancelled computation is not
// cached: a later call with a generous deadline gets the real answer.
func TestConnectivityHonorsDeadline(t *testing.T) {
	s := New(Options{
		Scheduler:      SchedulerOptions{Window: -1},
		RequestTimeout: 20 * time.Millisecond,
	})
	if _, err := s.Registry().Register("g", graph.Wheel(60), true); err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/connectivity", strings.NewReader(`{"graph":"g"}`)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusGatewayTimeout && rec.Code != StatusClientClosedRequest {
		t.Fatalf("20ms deadline: status %d, want 504 or 499 (%s)", rec.Code, rec.Body)
	}

	s.opt.RequestTimeout = time.Minute
	rec := post()
	if rec.Code != http.StatusOK {
		t.Fatalf("generous deadline: status %d (%s)", rec.Code, rec.Body)
	}
	var res ConnectivityResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Connectivity != 3 {
		t.Fatalf("connectivity = %d, want 3 (wheel)", res.Connectivity)
	}
}

// TestRequestTimeout: a server-side deadline shorter than the query
// cancels it with 504; a generous one leaves answers intact.
func TestRequestTimeout(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 83))
	g := graph.RandomPlanar(300, 0.7, rng)

	mk := func(timeout time.Duration) *Server {
		s := New(Options{
			Scheduler:      SchedulerOptions{Window: -1},
			RequestTimeout: timeout,
		})
		if _, err := s.Registry().Register("g", g, true); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Generous deadline: normal answer.
	s := mk(time.Minute)
	req := httptest.NewRequest("POST", "/decide", strings.NewReader(patternBody(t, graph.Cycle(4))))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("generous deadline: status %d (%s)", rec.Code, rec.Body)
	}

	// A deadline that has effectively already passed by the time the
	// query starts: the pipeline observes it at its first checkpoint.
	s = mk(time.Nanosecond)
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/decide", strings.NewReader(patternBody(t, graph.Cycle(4))))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout && rec.Code != StatusClientClosedRequest {
		t.Fatalf("nanosecond deadline: status %d, want 504 or 499 (%s)", rec.Code, rec.Body)
	}
	if rec.Code == http.StatusGatewayTimeout && !strings.Contains(rec.Body.String(), "deadline") {
		// Sanity: the error body mentions the deadline.
		var e struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		if e.Error == "" {
			t.Fatalf("504 with empty error body: %s", rec.Body)
		}
	}
}
