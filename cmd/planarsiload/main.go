// Command planarsiload is the open/closed-loop load generator for
// planarsid: it drives a mixed decide/count/find workload against a
// running daemon and reports client-observed latency percentiles per
// operation, as JSON (the BENCH_6.json format) or human-readable text.
//
//	planarsid -addr :8080 &
//	planarsiload -addr http://127.0.0.1:8080 -register-grid 24x24 \
//	    -mode both -rate 200 -concurrency 8 -duration 5s -out BENCH_6.json
//
// With -trace-summary FILE it instead reads a planarsid -trace-log
// JSONL file offline — per-endpoint request volume, latency percentiles
// and DP cost totals, plus the slowest recorded spans — and exits
// without generating any load.
//
// Two arrival models, run separately so their numbers are comparable:
//
//   - open loop (-mode open): requests arrive by a Poisson process at
//     -rate per second regardless of how fast the server answers — the
//     model that exposes queueing collapse, because arrivals do not
//     slow down when the server does.
//   - closed loop (-mode closed): -concurrency workers each keep
//     exactly one request in flight — the model that measures best-case
//     per-request service time under a bounded load.
//
// The workload mixes POST /decide, /count and /find by -mix weights,
// and alternates hit and miss patterns by -hit-frac: the hit pattern is
// a 4-cycle (every grid cell), the miss a triangle (grids are
// bipartite), so both the early-exit and the full-run-budget paths of
// the pipeline are exercised. With -patterns N (N > 1) the hit/miss
// pair is replaced by a family of N distinct motifs (cycles, paths and
// stars of growing size) drawn uniformly per request — the
// mixed-pattern workload that exercises the daemon's micro-batching and
// the Index's multi-pattern sweeps across many (k, d) shapes.
// -register-grid registers the target grid first; point -graph at an
// existing registered graph to skip it.
//
// With -chaos the generator expects to be pointed at a daemon running
// under fault injection (planarsid -fault): 500s and 503s stop counting
// as errors and are instead tallied per operation as incidents (500,
// checking the incident id is present) and unavailable (503, checking
// Retry-After is set) — the survival report for a chaos run, where the
// interesting failures are transport errors and malformed responses,
// not the injected faults themselves.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planarsi/internal/graph"
	"planarsi/internal/obs"
	"planarsi/internal/serve"
)

type config struct {
	addr        string
	graphName   string
	grid        string
	mode        string
	rate        float64
	concurrency int
	duration    time.Duration
	mix         string
	hitFrac     float64
	patterns    int
	seed        int64
	out         string
	chaos       bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "daemon base URL")
	flag.StringVar(&cfg.graphName, "graph", "load", "registered host graph to query")
	flag.StringVar(&cfg.grid, "register-grid", "", "register -graph as an RxC grid first (e.g. 24x24; empty = graph must already exist)")
	flag.StringVar(&cfg.mode, "mode", "both", "arrival model: open (Poisson), closed (fixed concurrency), or both")
	flag.Float64Var(&cfg.rate, "rate", 200, "open-loop arrival rate, requests/second")
	flag.IntVar(&cfg.concurrency, "concurrency", 8, "closed-loop worker count (one in-flight request each)")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "measurement duration per mode")
	flag.StringVar(&cfg.mix, "mix", "decide=60,count=25,find=15", "operation weights")
	flag.Float64Var(&cfg.hitFrac, "hit-frac", 0.5, "fraction of queries using the hit pattern (C4) vs the miss pattern (C3); ignored when -patterns > 1")
	flag.IntVar(&cfg.patterns, "patterns", 1, "distinct patterns in the workload: 1 = the hit/miss pair by -hit-frac, N > 1 = a mixed motif family (cycles, paths, stars of growing size) drawn uniformly, superseding -hit-frac")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload random seed")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here (empty = stdout)")
	flag.BoolVar(&cfg.chaos, "chaos", false, "chaos mode: tally 500s (incidents) and 503s (unavailable) separately instead of as errors — for daemons running under -fault")
	traceSummary := flag.String("trace-summary", "", "aggregate a planarsid -trace-log JSONL file (per-endpoint latency and cost, slowest spans) and exit without generating load")
	flag.Parse()

	if *traceSummary != "" {
		if err := runTraceSummary(os.Stdout, *traceSummary); err != nil {
			log.Fatalf("planarsiload: -trace-summary: %v", err)
		}
		return
	}

	ops, err := parseMix(cfg.mix)
	if err != nil {
		log.Fatalf("planarsiload: %v", err)
	}
	if cfg.mode != "open" && cfg.mode != "closed" && cfg.mode != "both" {
		log.Fatalf("planarsiload: -mode wants open, closed or both, got %q", cfg.mode)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * cfg.concurrency,
		MaxIdleConnsPerHost: 4 * cfg.concurrency,
	}}
	ld := &loader{cfg: cfg, client: client, ops: ops}
	if err := ld.prepare(); err != nil {
		log.Fatalf("planarsiload: %v", err)
	}

	report := Report{
		Description: "planarsiload client-observed latency under mixed decide/count/find load, open-loop (Poisson arrivals) and closed-loop (fixed concurrency) modes",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Target:      cfg.addr,
		Config: ReportConfig{
			Graph: cfg.graphName, Grid: cfg.grid, Mix: cfg.mix,
			HitFrac: cfg.hitFrac, Patterns: cfg.patterns, RatePerSec: cfg.rate,
			Concurrency: cfg.concurrency, DurationSec: cfg.duration.Seconds(),
			Seed: cfg.seed,
		},
		Modes: map[string]*ModeReport{},
	}
	if cfg.mode == "open" || cfg.mode == "both" {
		log.Printf("planarsiload: open loop: Poisson %.0f req/s for %s", cfg.rate, cfg.duration)
		report.Modes["open"] = ld.runOpen()
	}
	if cfg.mode == "closed" || cfg.mode == "both" {
		log.Printf("planarsiload: closed loop: %d workers for %s", cfg.concurrency, cfg.duration)
		report.Modes["closed"] = ld.runClosed()
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("planarsiload: %v", err)
	}
	out = append(out, '\n')
	if cfg.out == "" {
		os.Stdout.Write(out)
	} else {
		if err := os.WriteFile(cfg.out, out, 0o644); err != nil {
			log.Fatalf("planarsiload: %v", err)
		}
		log.Printf("planarsiload: wrote %s", cfg.out)
	}
	for name, m := range report.Modes {
		log.Printf("planarsiload: %s: %d ok, %d errors, %.0f req/s, p50=%.2fms p95=%.2fms p99=%.2fms",
			name, m.Overall.Count, m.Overall.Errors, m.ThroughputRPS,
			m.Overall.P50Millis, m.Overall.P95Millis, m.Overall.P99Millis)
		if cfg.chaos {
			log.Printf("planarsiload: %s chaos: %d incidents (500+id), %d unavailable (503+Retry-After), %d bare 500s, %d bare 503s",
				name, m.Overall.Incidents, m.Overall.Unavailable, m.Overall.BareFaults, m.Overall.BareBusy)
		}
	}
}

// weightedOp is one entry of the operation mix.
type weightedOp struct {
	name   string
	weight int
}

func parseMix(s string) ([]weightedOp, error) {
	var ops []weightedOp
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-mix wants op=weight entries, got %q", part)
		}
		switch name {
		case "decide", "count", "find":
		default:
			return nil, fmt.Errorf("-mix op %q: want decide, count or find", name)
		}
		var weight int
		if _, err := fmt.Sscanf(w, "%d", &weight); err != nil || weight < 0 {
			return nil, fmt.Errorf("-mix weight %q: want a non-negative integer", w)
		}
		if weight > 0 {
			ops = append(ops, weightedOp{name, weight})
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("-mix %q selects no operations", s)
	}
	return ops, nil
}

// loader holds the shared workload state: the HTTP client, the mix, and
// the pre-encoded request bodies (building them per request would make
// the generator the bottleneck before the server is).
type loader struct {
	cfg    config
	client *http.Client
	ops    []weightedOp
	totalW int
	bodies map[string][2][]byte // op -> {hit body, miss body}
	// multi holds the -patterns N > 1 bodies: op -> N pre-encoded motif
	// patterns, drawn uniformly per request instead of the hit/miss pair.
	multi map[string][][]byte
}

// motif returns the i-th pattern of the mixed-family workload: cycles,
// paths and stars of growing size, capped at the engine's pattern limit.
// Even cycles hit on grid targets, odd-size stars and long paths stress
// other shapes, so a family mixes hits and misses across (k, d) shapes.
func motif(i int) *graph.Graph {
	size := 4 + i/3
	if size > 16 {
		size = 16
	}
	switch i % 3 {
	case 0:
		return graph.Cycle(size)
	case 1:
		return graph.Path(size)
	default:
		return graph.Star(size - 1)
	}
}

// prepare registers the grid when asked, checks the daemon is up, and
// pre-encodes one hit and one miss body per operation.
func (l *loader) prepare() error {
	resp, err := l.client.Get(l.cfg.addr + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon not reachable: %w", err)
	}
	drain(resp)

	if l.cfg.grid != "" {
		var r, c int
		if _, err := fmt.Sscanf(l.cfg.grid, "%dx%d", &r, &c); err != nil || r < 2 || c < 2 {
			return fmt.Errorf("-register-grid wants RxC with R,C >= 2, got %q", l.cfg.grid)
		}
		body, _ := json.Marshal(serve.WireGraph(graph.Grid(r, c)))
		resp, err := l.client.Post(l.cfg.addr+"/graphs/"+l.cfg.graphName, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer drain(resp)
		// 409 means the graph already exists (a previous run registered
		// it); anything else non-2xx is a real failure.
		if resp.StatusCode >= 300 && resp.StatusCode != http.StatusConflict {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("register %s: %s: %s", l.cfg.graphName, resp.Status, msg)
		}
	}

	// Hit: a 4-cycle, present in every grid cell. Miss: a triangle —
	// grids are bipartite, so the search runs to its last run.
	hit := serve.WireGraph(graph.Cycle(4))
	miss := serve.WireGraph(graph.Cycle(3))
	l.bodies = make(map[string][2][]byte)
	if l.cfg.patterns > 1 {
		l.multi = make(map[string][][]byte)
	}
	for _, op := range l.ops {
		l.totalW += op.weight
		hb, _ := json.Marshal(serve.QueryRequest{Graph: l.cfg.graphName, Pattern: &hit})
		mb, _ := json.Marshal(serve.QueryRequest{Graph: l.cfg.graphName, Pattern: &miss})
		l.bodies[op.name] = [2][]byte{hb, mb}
		if l.multi != nil {
			bodies := make([][]byte, l.cfg.patterns)
			for i := range bodies {
				wg := serve.WireGraph(motif(i))
				bodies[i], _ = json.Marshal(serve.QueryRequest{Graph: l.cfg.graphName, Pattern: &wg})
			}
			l.multi[op.name] = bodies
		}
	}
	return nil
}

// pick draws one (operation, body) pair from the mix. With -patterns
// N > 1 the body is drawn uniformly from the motif family; otherwise
// the hit/miss pair is split by -hit-frac.
func (l *loader) pick(rng *rand.Rand) (string, []byte) {
	w := rng.Intn(l.totalW)
	var op string
	for _, o := range l.ops {
		if w -= o.weight; w < 0 {
			op = o.name
			break
		}
	}
	if l.multi != nil {
		bodies := l.multi[op]
		return op, bodies[rng.Intn(len(bodies))]
	}
	i := 1 // miss
	if rng.Float64() < l.cfg.hitFrac {
		i = 0
	}
	return op, l.bodies[op][i]
}

// modeRun accumulates one mode's measurements.
type modeRun struct {
	perOp map[string]*opStats
	sent  atomic.Uint64
}

type opStats struct {
	hist   *obs.Histogram
	errors atomic.Uint64
	maxNs  atomic.Int64

	// Chaos-mode tallies (zero unless -chaos): injected-fault outcomes
	// that would otherwise drown the error counter.
	incidents   atomic.Uint64 // 500s carrying an incident id
	bareFaults  atomic.Uint64 // 500s WITHOUT an incident id (a real bug)
	unavailable atomic.Uint64 // 503s with Retry-After
	bareBusy    atomic.Uint64 // 503s WITHOUT Retry-After (a real bug)
}

func (l *loader) newRun() *modeRun {
	run := &modeRun{perOp: make(map[string]*opStats)}
	for _, op := range l.ops {
		run.perOp[op.name] = &opStats{hist: obs.NewLatencyHistogram()}
	}
	return run
}

// do issues one request and records its client-observed latency.
func (l *loader) do(run *modeRun, op string, body []byte) {
	st := run.perOp[op]
	start := time.Now()
	resp, err := l.client.Post(l.cfg.addr+"/"+op, "application/json", bytes.NewReader(body))
	d := time.Since(start)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if l.cfg.chaos && err == nil && !ok {
		switch resp.StatusCode {
		case http.StatusInternalServerError:
			var e struct {
				Incident string `json:"incident"`
			}
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			_ = json.Unmarshal(raw, &e)
			if e.Incident != "" {
				st.incidents.Add(1)
				ok = true // expected under injected faults
			} else {
				st.bareFaults.Add(1)
			}
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") != "" {
				st.unavailable.Add(1)
				ok = true // breaker open / shed / overloaded: by design
			} else {
				st.bareBusy.Add(1)
			}
		}
	}
	if resp != nil {
		drain(resp)
	}
	st.hist.ObserveDuration(d)
	if !ok {
		st.errors.Add(1)
	}
	for {
		prev := st.maxNs.Load()
		if d.Nanoseconds() <= prev || st.maxNs.CompareAndSwap(prev, d.Nanoseconds()) {
			break
		}
	}
}

// runOpen drives the open-loop mode: arrivals by a Poisson process at
// cfg.rate, each request on its own goroutine so a slow server cannot
// slow the arrival process down (the defining property of open loop).
func (l *loader) runOpen() *ModeReport {
	run := l.newRun()
	rng := rand.New(rand.NewSource(l.cfg.seed))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(l.cfg.duration)
	next := start
	for {
		// Exponential inter-arrival: -ln(U)/rate seconds.
		next = next.Add(time.Duration(-math.Log(1-rng.Float64()) / l.cfg.rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		op, body := l.pick(rng)
		run.sent.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.do(run, op, body)
		}()
	}
	wg.Wait()
	return l.reportMode(run, time.Since(start))
}

// runClosed drives the closed-loop mode: cfg.concurrency workers, each
// holding exactly one request in flight for the full duration.
func (l *loader) runClosed() *ModeReport {
	run := l.newRun()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(l.cfg.duration)
	for w := 0; w < l.cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.cfg.seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				op, body := l.pick(rng)
				run.sent.Add(1)
				l.do(run, op, body)
			}
		}(w)
	}
	wg.Wait()
	return l.reportMode(run, time.Since(start))
}

func (l *loader) reportMode(run *modeRun, elapsed time.Duration) *ModeReport {
	m := &ModeReport{
		Sent:       run.sent.Load(),
		ElapsedSec: elapsed.Seconds(),
		Ops:        make(map[string]OpReport, len(run.perOp)),
	}
	// Overall percentiles come from a merged histogram: every opStats
	// shares the same bucket layout, so bucket-wise summation is exact.
	overall := obs.NewLatencyHistogram().Snapshot()
	overall.Counts = make([]uint64, len(overall.Counts))
	var overallErrs uint64
	var overallMax int64
	var sumChaos OpReport
	for name, st := range run.perOp {
		h := st.hist.Snapshot()
		r := opReport(h, st.errors.Load(), st.maxNs.Load())
		r.Incidents = st.incidents.Load()
		r.BareFaults = st.bareFaults.Load()
		r.Unavailable = st.unavailable.Load()
		r.BareBusy = st.bareBusy.Load()
		m.Ops[name] = r
		for i, c := range h.Counts {
			overall.Counts[i] += c
		}
		overall.Count += h.Count
		overall.Sum += h.Sum
		overallErrs += st.errors.Load()
		overallMax = max(overallMax, st.maxNs.Load())
		sumChaos.Incidents += r.Incidents
		sumChaos.BareFaults += r.BareFaults
		sumChaos.Unavailable += r.Unavailable
		sumChaos.BareBusy += r.BareBusy
	}
	m.Overall = opReport(overall, overallErrs, overallMax)
	m.Overall.Incidents = sumChaos.Incidents
	m.Overall.BareFaults = sumChaos.BareFaults
	m.Overall.Unavailable = sumChaos.Unavailable
	m.Overall.BareBusy = sumChaos.BareBusy
	if elapsed > 0 {
		m.ThroughputRPS = float64(overall.Count) / elapsed.Seconds()
	}
	return m
}

func opReport(h obs.HistSnapshot, errs uint64, maxNs int64) OpReport {
	return OpReport{
		Count:      h.Count,
		Errors:     errs,
		MeanMillis: round2(h.Mean() * 1e3),
		P50Millis:  round2(h.Quantile(0.50) * 1e3),
		P95Millis:  round2(h.Quantile(0.95) * 1e3),
		P99Millis:  round2(h.Quantile(0.99) * 1e3),
		MaxMillis:  round2(float64(maxNs) / 1e6),
	}
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// Report is the JSON document planarsiload emits (BENCH_6.json).
type Report struct {
	PR          int                    `json:"pr,omitempty"`
	Description string                 `json:"description"`
	Date        string                 `json:"date"`
	Target      string                 `json:"target"`
	Config      ReportConfig           `json:"config"`
	Modes       map[string]*ModeReport `json:"modes"`
}

// ReportConfig echoes the generator configuration into the report.
type ReportConfig struct {
	Graph       string  `json:"graph"`
	Grid        string  `json:"grid,omitempty"`
	Mix         string  `json:"mix"`
	HitFrac     float64 `json:"hitFrac"`
	Patterns    int     `json:"patterns,omitempty"`
	RatePerSec  float64 `json:"ratePerSec"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"durationSec"`
	Seed        int64   `json:"seed"`
}

// ModeReport is one arrival model's measurements.
type ModeReport struct {
	Sent          uint64              `json:"sent"`
	ElapsedSec    float64             `json:"elapsedSec"`
	ThroughputRPS float64             `json:"throughputRps"`
	Overall       OpReport            `json:"overall"`
	Ops           map[string]OpReport `json:"ops"`
}

// OpReport is one operation's client-observed latency summary. Count
// includes errored requests; percentiles are histogram-interpolated.
type OpReport struct {
	Count      uint64  `json:"count"`
	Errors     uint64  `json:"errors"`
	MeanMillis float64 `json:"meanMillis"`
	P50Millis  float64 `json:"p50Millis"`
	P95Millis  float64 `json:"p95Millis"`
	P99Millis  float64 `json:"p99Millis"`
	MaxMillis  float64 `json:"maxMillis"`

	// Chaos-mode (-chaos) outcome tallies. Incidents/Unavailable are
	// well-formed fault answers (500 + incident id, 503 + Retry-After);
	// their Bare* counterparts are the malformed ones — nonzero Bare*
	// under chaos means the resilience layer has a bug.
	Incidents   uint64 `json:"incidents,omitempty"`
	BareFaults  uint64 `json:"bareFaults,omitempty"`
	Unavailable uint64 `json:"unavailable,omitempty"`
	BareBusy    uint64 `json:"bareBusy,omitempty"`
}
