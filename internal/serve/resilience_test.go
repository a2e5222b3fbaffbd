package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/fault"
	"planarsi/internal/graph"
	"planarsi/internal/index"
)

// TestBreakerStateMachine walks one circuit through every transition:
// closed → (threshold incidents) → open → (cooldown) → half-open probe
// → (incident) → open again → (cooldown) → probe → (success) → closed.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{opt: BreakerOptions{Threshold: 2, Cooldown: time.Minute}}
	now := time.Unix(1000, 0)

	if _, ok := b.Allow(now); !ok {
		t.Fatal("closed breaker rejected")
	}
	b.Record(outcomeIncident, now)
	if _, ok := b.Allow(now); !ok {
		t.Fatal("one incident below threshold opened the circuit")
	}
	// Neutral outcomes (client cancellations etc.) must not trip it.
	b.Record(outcomeNeutral, now)
	b.Record(outcomeIncident, now)
	if retry, ok := b.Allow(now); ok {
		t.Fatal("threshold incidents did not open the circuit")
	} else if retry <= 0 || retry > time.Minute {
		t.Fatalf("retryAfter = %v", retry)
	}

	// Cooldown elapsed: exactly one probe is admitted.
	now = now.Add(time.Minute + time.Second)
	if _, ok := b.Allow(now); !ok {
		t.Fatal("no half-open probe after cooldown")
	}
	if _, ok := b.Allow(now); ok {
		t.Fatal("second request admitted while the probe is in flight")
	}
	// The probe crashes: straight back to open for another cooldown.
	b.Record(outcomeIncident, now)
	if _, ok := b.Allow(now); ok {
		t.Fatal("failed probe did not re-open the circuit")
	}
	now = now.Add(time.Minute + time.Second)
	if _, ok := b.Allow(now); !ok {
		t.Fatal("no probe after the second cooldown")
	}
	// A neutral probe result frees the slot for the next arrival.
	b.Record(outcomeNeutral, now)
	if _, ok := b.Allow(now); !ok {
		t.Fatal("neutral probe outcome did not release the probe slot")
	}
	b.Record(outcomeSuccess, now)
	state, _, opens, rejected := b.snapshot()
	if state != breakerClosed {
		t.Fatalf("state after successful probe = %s", breakerStateName(state))
	}
	if opens != 2 || rejected != 3 {
		t.Fatalf("opens = %d rejected = %d, want 2 and 3", opens, rejected)
	}
}

// TestBatchMemberSingletonRetry drives dispatch directly with a batch
// whose first member draws an injected panic: the member must be
// re-run as a singleton and every answer in the batch must come back
// correct.
func TestBatchMemberSingletonRetry(t *testing.T) {
	defer fault.Disable()
	reg := NewRegistry(RegistryOptions{Pipeline: core.Options{Seed: 1, MaxRuns: 2}})
	e, err := reg.Register("grid", graph.Grid(4, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{Window: WindowDisabled})

	batch := make([]request, 4)
	for i := range batch {
		batch[i] = request{
			ctx:      context.Background(),
			h:        graph.Cycle(4),
			enqueued: time.Now(),
			done:     make(chan index.ScanResult, 1),
		}
	}
	sched.queued.Add(int64(len(batch)))
	if err := fault.Enable("query.panic=first:1", 1); err != nil {
		t.Fatal(err)
	}
	sched.dispatch(e, KindDecide, batch)
	fault.Disable()

	for i := range batch {
		res := <-batch[i].done
		if res.Err != nil || !res.Found {
			t.Fatalf("member %d after retry: %+v", i, res)
		}
	}
	if got := sched.retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

// TestDispatchSurvivesBatchLevelPanic: a panic outside the members'
// own guarded bodies (here: the AfterBatch hook) must reach every
// member as an error, not kill the dispatching goroutine — the window
// timer fires on a bare goroutine with no recover above dispatch.
func TestDispatchSurvivesBatchLevelPanic(t *testing.T) {
	reg := NewRegistry(RegistryOptions{Pipeline: core.Options{Seed: 1, MaxRuns: 2}})
	e, err := reg.Register("grid", graph.Grid(4, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{
		Window:     WindowDisabled,
		AfterBatch: func() { panic("maintain blew up") },
	})
	rq := request{ctx: context.Background(), h: graph.Cycle(4), enqueued: time.Now(), done: make(chan index.ScanResult, 1)}
	sched.queued.Add(1)
	sched.dispatch(e, KindDecide, []request{rq})
	res := <-rq.done
	if !errors.Is(res.Err, index.ErrQueryPanic) {
		t.Fatalf("member got %v, want ErrQueryPanic", res.Err)
	}
	if sched.queued.Load() != 0 {
		t.Fatalf("queued = %d after panicked dispatch", sched.queued.Load())
	}
}

// LogLines is a log writer for tests: it delivers each record a text
// handler writes as one string on the channel, dropping records while
// the channel is full. It is exported for the serve_test package.
type LogLines chan string

func (l LogLines) Write(p []byte) (int, error) {
	select {
	case l <- string(p):
	default:
	}
	return len(p), nil
}

func decideBody(t *testing.T, graphName string, h *graph.Graph) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"graph": graphName, "pattern": WireGraph(h)})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// TestBreakerHTTPEndToEnd exercises the full loop over HTTP: injected
// query panics return 500s with incident ids, the threshold opens the
// circuit (503 + Retry-After), the cooldown admits a probe, and the
// successful probe closes the circuit again.
func TestBreakerHTTPEndToEnd(t *testing.T) {
	defer fault.Disable()
	logged := make(LogLines, 4)
	s := New(Options{
		Pipeline:  core.Options{Seed: 1, MaxRuns: 2},
		Scheduler: SchedulerOptions{Window: WindowDisabled},
		Breaker:   BreakerOptions{Threshold: 2, Cooldown: 100 * time.Millisecond},
		Logger:    slog.New(slog.NewTextHandler(logged, nil)),
	})
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() (*http.Response, errorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/decide", "application/json", decideBody(t, "grid", graph.Cycle(4)))
		if err != nil {
			t.Fatal(err)
		}
		var body errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		return resp, body
	}

	if err := fault.Enable("query.panic=first:2", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, body := post()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted query %d: status %d", i, resp.StatusCode)
		}
		if body.Incident == "" {
			t.Fatalf("faulted query %d: no incident id in %+v", i, body)
		}
	}
	// Each incident is logged before its 500 is written.
	for i := 0; i < 2; i++ {
		if line := <-logged; !strings.Contains(line, "panic=") {
			t.Fatalf("incident log missing panic detail:\n%s", line)
		}
	}

	// Circuit open: fast 503 with a Retry-After hint.
	resp, _ := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open circuit answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("open-circuit 503 without Retry-After")
	}

	// Cooldown elapses; the injected faults are spent, so the half-open
	// probe succeeds and closes the circuit.
	time.Sleep(150 * time.Millisecond)
	resp, _ = post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after cooldown answered %d, want 200", resp.StatusCode)
	}
	resp, _ = post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("closed circuit answered %d, want 200", resp.StatusCode)
	}

	st := s.Stats()
	if st.Resilience.Incidents != 2 {
		t.Fatalf("incidents = %d, want 2", st.Resilience.Incidents)
	}
	if len(st.Resilience.Breakers) != 1 {
		t.Fatalf("breakers = %+v, want one", st.Resilience.Breakers)
	}
	bi := st.Resilience.Breakers[0]
	if bi.Graph != "grid" || bi.Kind != "decide" || bi.State != "closed" || bi.Opens != 1 {
		t.Fatalf("breaker snapshot = %+v", bi)
	}
}

// TestConnectivityPanicIsIncident: a panic under /connectivity is an
// incident like any query's — a 500 with an incident id, counted by the
// breaker — and is not cached, so the next call computes the answer.
func TestConnectivityPanicIsIncident(t *testing.T) {
	defer fault.Disable()
	s := New(Options{
		Pipeline:  core.Options{Seed: 1},
		Scheduler: SchedulerOptions{Window: WindowDisabled},
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func() (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/connectivity", "application/json", strings.NewReader(`{"graph":"grid"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if err := fault.Enable("dp.panic=first:1", 1); err != nil {
		t.Fatal(err)
	}
	status, body := post()
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || status != http.StatusInternalServerError || er.Incident == "" {
		t.Fatalf("faulted connectivity: status %d, body %s; want 500 with an incident id", status, body)
	}
	status, body = post()
	var cr ConnectivityResponse
	if err := json.Unmarshal(body, &cr); err != nil || status != http.StatusOK || cr.Connectivity != 2 {
		t.Fatalf("second connectivity: status %d, body %s; want 200 with connectivity 2", status, body)
	}
	if got := s.Stats().Resilience.Incidents; got != 1 {
		t.Fatalf("incidents = %d, want 1", got)
	}
}

// TestQueryRoutesErrorStatuses drives each of the five query routes
// through the error answers they share: an unknown graph is a 404, an
// injected dp.panic is a 500 with an incident id, and that incident
// opens the route's own breaker, so its next request is a 503 with
// Retry-After.
func TestQueryRoutesErrorStatuses(t *testing.T) {
	defer fault.Disable()
	s := New(Options{
		Pipeline:  core.Options{Seed: 1},
		Scheduler: SchedulerOptions{Window: WindowDisabled},
		Breaker:   BreakerOptions{Threshold: 1, Cooldown: time.Minute},
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(ep, graphName string) (*http.Response, errorResponse) {
		t.Helper()
		raw, err := json.Marshal(QueryRequest{Graph: graphName, Pattern: wirePtr(graph.Path(3)), Terminals: []int32{0, 2}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+ep, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp, body
	}

	eps := []string{"/decide", "/count", "/find", "/separating", "/connectivity"}
	for _, ep := range eps {
		if resp, _ := post(ep, "nope"); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on an unknown graph: status %d, want 404", ep, resp.StatusCode)
		}
		if err := fault.Enable("dp.panic=first:1", 1); err != nil {
			t.Fatal(err)
		}
		resp, body := post(ep, "grid")
		fault.Disable()
		if resp.StatusCode != http.StatusInternalServerError || !strings.HasPrefix(body.Incident, "inc-") {
			t.Fatalf("%s with dp.panic: status %d, body %+v; want 500 with an incident id", ep, resp.StatusCode, body)
		}
		resp, _ = post(ep, "grid")
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s with its breaker open: status %d, Retry-After %q; want 503 with Retry-After",
				ep, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if got := s.Stats().Resilience.Incidents; got != uint64(len(eps)) {
		t.Fatalf("incidents = %d, want %d", got, len(eps))
	}
}

// TestDeadlineShedding: once an endpoint has latency history, a request
// whose remaining deadline is below the median is rejected up front
// with a 503 instead of burning a core on an answer nobody will read.
func TestDeadlineShedding(t *testing.T) {
	s := New(Options{
		Pipeline:       core.Options{Seed: 1, MaxRuns: 2},
		Scheduler:      SchedulerOptions{Window: WindowDisabled},
		RequestTimeout: 5 * time.Millisecond,
	})
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	// Teach the decide endpoint that its median latency is ~100ms.
	for i := 0; i < shedMinSamples; i++ {
		s.metrics["decide"].hist.ObserveDuration(100 * time.Millisecond)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/decide", "application/json", decideBody(t, "grid", graph.Cycle(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("doomed request answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
	if got := s.resilienceStats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// TestShedNeedsHistoryAndDeadline: no deadline or no latency history
// means no shedding.
func TestShedNeedsHistoryAndDeadline(t *testing.T) {
	s := New(Options{Pipeline: core.Options{Seed: 1, MaxRuns: 2}})
	r := httptest.NewRequest(http.MethodPost, "/decide", nil)
	if err := s.shedDoomed(r, "decide"); err != nil {
		t.Fatalf("no deadline: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.shedDoomed(r.WithContext(ctx), "decide"); err != nil {
		t.Fatalf("no history: %v", err)
	}
	for i := 0; i < shedMinSamples; i++ {
		s.metrics["decide"].hist.ObserveDuration(100 * time.Millisecond)
	}
	if err := s.shedDoomed(r.WithContext(ctx), "decide"); !errors.Is(err, ErrShed) {
		t.Fatalf("doomed request not shed: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if err := s.shedDoomed(r.WithContext(ctx2), "decide"); err != nil {
		t.Fatalf("roomy deadline shed: %v", err)
	}
}

// TestRetryAfterOnQueryErrors pins the Retry-After contract: every
// 503-class error carries the header, with the breaker's own cooldown
// remainder winning over the generic window-based hint.
func TestRetryAfterOnQueryErrors(t *testing.T) {
	s := New(Options{Pipeline: core.Options{Seed: 1}})
	rec := httptest.NewRecorder()
	s.writeQueryError(rec, httptest.NewRequest("POST", "/decide", nil), "g", ErrOverloaded)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("overloaded: code %d Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = httptest.NewRecorder()
	s.writeQueryError(rec, httptest.NewRequest("POST", "/decide", nil), "g", &BreakerOpenError{Graph: "g", Kind: "decide", RetryAfter: 2400 * time.Millisecond})
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("breaker Retry-After = %q, want ceil(2.4s) = 3", got)
	}
	rec = httptest.NewRecorder()
	s.writeQueryError(rec, httptest.NewRequest("POST", "/decide", nil), "g", fmt.Errorf("%w: nope", ErrShed))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed: code %d Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestOversizedPatternRejectedAtBoundary: a pattern over match.MaxK is
// a 400 at decode time on every query endpoint — it must never reach
// the scheduler.
func TestOversizedPatternRejectedAtBoundary(t *testing.T) {
	s := New(Options{Pipeline: core.Options{Seed: 1, MaxRuns: 2}})
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big := graph.Path(17) // match.MaxK is 16
	for _, ep := range []string{"/decide", "/count", "/find", "/separating"} {
		resp, err := http.Post(ts.URL+ep, "application/json", decideBody(t, "grid", big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with 17-vertex pattern: status %d, want 400", ep, resp.StatusCode)
		}
	}
	if got := s.sched.Stats().Requests; got != 0 {
		t.Fatalf("oversized patterns reached the scheduler: %d requests", got)
	}
}

// TestRegistryChurnUnderEviction races Acquire/Release/query churn
// against eviction sweeps and re-registration on a tiny budget; run
// under -race this is the registry's eviction-vs-churn regression.
func TestRegistryChurnUnderEviction(t *testing.T) {
	reg := NewRegistry(RegistryOptions{
		Pipeline: core.Options{Seed: 1, MaxRuns: 1},
		MaxBytes: 8 << 10, // far below the working set: constant eviction
	})
	names := []string{"g0", "g1", "g2", "g3"}
	for _, name := range names {
		if _, err := reg.Register(name, graph.Grid(3, 3), false); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				name := names[(w+i)%len(names)]
				e := reg.Acquire(name)
				if e == nil {
					// Evicted under us: re-register (racing registrars
					// may collide; losing the race is fine).
					_, _ = reg.Register(name, graph.Grid(3, 3), false)
					continue
				}
				if i%10 == 0 {
					if _, err := e.ix.Decide(graph.Cycle(4)); err != nil {
						t.Errorf("decide %s: %v", name, err)
					}
				}
				reg.Release(e)
				if i%7 == 0 {
					reg.Maintain()
				}
			}
		}(w)
	}
	wg.Wait()
	// The registry must still serve queries after the churn.
	for _, name := range names {
		e := reg.Acquire(name)
		if e == nil {
			continue
		}
		if found, err := e.ix.Decide(graph.Cycle(4)); err != nil || !found {
			t.Fatalf("post-churn decide %s: found=%v err=%v", name, found, err)
		}
		reg.Release(e)
	}
}

// TestSnapshotFaultInjection: injected snapshot I/O errors surface as
// save/restore failures without aborting the daemon, and the next
// fault-free attempt succeeds.
func TestSnapshotFaultInjection(t *testing.T) {
	defer fault.Disable()
	dir := t.TempDir()
	s := New(Options{Pipeline: core.Options{Seed: 1, MaxRuns: 2}, SnapshotDir: dir})
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable("snapshot.write=first:1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveSnapshots(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted save: err = %v, want ErrInjected", err)
	}
	fault.Disable()
	infos, err := s.SaveSnapshots()
	if err != nil || len(infos) != 1 {
		t.Fatalf("clean save: %v %+v", err, infos)
	}
	path := filepath.Join(dir, "grid.snap")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	// A faulted restore skips the file but boots; a clean one restores.
	s2 := New(Options{Pipeline: core.Options{Seed: 1, MaxRuns: 2}, SnapshotDir: dir})
	if err := fault.Enable("snapshot.read=first:1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RestoreSnapshots(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted restore: err = %v, want ErrInjected", err)
	}
	fault.Disable()
	if got := len(s2.Registry().Names()); got != 0 {
		t.Fatalf("faulted restore registered %d graphs", got)
	}
	if infos, err := s2.RestoreSnapshots(); err != nil || len(infos) != 1 {
		t.Fatalf("clean restore: %v %+v", err, infos)
	}
}

// TestBreakerDroppedWithGraph: removing a graph clears its circuits, so
// a future graph under the same name starts closed.
func TestBreakerDroppedWithGraph(t *testing.T) {
	s := New(Options{
		Pipeline: core.Options{Seed: 1, MaxRuns: 2},
		Breaker:  BreakerOptions{Threshold: 1, Cooldown: time.Minute},
	})
	if _, err := s.Registry().Register("grid", graph.Grid(4, 4), false); err != nil {
		t.Fatal(err)
	}
	br := s.breaker("grid", "decide")
	br.Record(outcomeIncident, time.Now())
	if _, ok := br.Allow(time.Now()); ok {
		t.Fatal("breaker not open")
	}
	if err := s.Registry().Remove("grid"); err != nil {
		t.Fatal(err)
	}
	if len(s.resilienceStats().Breakers) != 0 {
		t.Fatal("breakers survived graph removal")
	}
}
