package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/obs"
)

// The serve workload drives the planarsid daemon built from the tree on
// loopback. One host graph is registered and warmed during set-up; two
// keep-alive connections then run a closed loop of decide, find and
// count requests, so the time goes to HTTP, the micro-batch window, the
// compiled-pattern cache and the warm dynamic programs.

const (
	serveGrid     = 8  // side of the host grid
	serveHostSeed = 1  // seeds the host's labeling and the daemon's pipeline
	serveRelabels = 16 // relabelings per pattern, used in turn
	serveBudget   = 10 * time.Second
)

// serveRuns is the daemon's -runs flag, its only flag beyond the address
// and seed. It pins the run budget at its default for the host. Pinned,
// the budget also stops count; unpinned, count's Theorem 4.2 stopping
// rule runs past it, covers past the budget are never cached, and every
// count rebuilds covers for a seed-dependent number of runs.
var serveRuns = core.RunBudget(serveGrid*serveGrid, core.Options{})

// serveQuery is one request kind of the closed-loop cycle.
type serveQuery struct {
	kind, endpoint string
	shapes         []*graph.Graph // relabelings of one pattern
	present        bool
	count          int
}

type serve struct {
	cfg     config
	tr      *tracer
	costs   *opCost
	host    *graph.Graph
	hostRaw []byte
	queries []serveQuery
	cycleOf []int // query indices of one cycle
	warm    []*graph.Graph

	d      *daemon
	before promText
	next   [2]int
	peak   float64
	sample chan struct{}
	wg     sync.WaitGroup
}

func newServe(cfg config, tr *tracer) (workload, error) {
	if cfg.daemon == "" {
		return nil, fmt.Errorf("serve needs --daemon (run.sh builds planarsid)")
	}
	// The host and the daemon's pipeline seed are the same for every
	// workload seed; the seed picks the patterns' labelings. The serving
	// layers are what this workload measures, and with a seeded host each
	// seed brings its own covers, which moved decide latency by a third
	// from one seed to the next.
	w := &serve{cfg: cfg, tr: tr, costs: newOpCost(),
		host: relabel(graph.Grid(serveGrid, serveGrid), rand.New(rand.NewPCG(serveHostSeed, 0x5e7e)))}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5e7e))
	edges := w.host.Edges()
	wire := struct {
		N     int        `json:"n"`
		Edges [][2]int32 `json:"edges"`
	}{w.host.N(), edges}
	w.hostRaw, _ = json.Marshal(wire)

	relabels := func(h *graph.Graph) []*graph.Graph {
		out := make([]*graph.Graph, serveRelabels)
		for i := range out {
			out[i] = relabel(h, rng)
		}
		return out
	}
	paw := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	// The count is of triangles, which a grid has none of: it runs the
	// full run budget like a decide miss. Counting the host's 4-cycles
	// instead enumerates hundreds of occurrences per run, and that cost
	// varies by a third from one seed's covers to the next.
	w.queries = []serveQuery{
		{kind: "decide", endpoint: "/decide", shapes: relabels(graph.Cycle(4)), present: true},
		{kind: "decide", endpoint: "/decide", shapes: relabels(graph.Star(4)), present: true},
		{kind: "decide", endpoint: "/decide", shapes: relabels(graph.Cycle(3)), present: false},
		{kind: "find", endpoint: "/find", shapes: relabels(graph.Path(4)), present: true},
		{kind: "count", endpoint: "/count", shapes: relabels(graph.Cycle(3)), present: false},
	}
	// Oracle answers, before any clock starts.
	for i, q := range w.queries {
		if naive.Decide(w.host, q.shapes[0]) != q.present {
			return nil, fmt.Errorf("oracle disagrees with the fixed answer for a %s pattern", q.kind)
		}
		if q.kind == "count" {
			w.queries[i].count = len(naive.Search(w.host, q.shapes[0], naive.Options{}))
		}
	}
	// Per cycle: 8 decide hits, 1 decide miss, 2 finds, 1 count.
	w.cycleOf = []int{0, 1, 3, 0, 1, 2, 0, 3, 1, 0, 1, 4}
	// Warm-up patterns: a miss of every cached (size, diameter) shape
	// builds every run's cover; the paw is absent from a grid and has
	// the 4-cycle's and the star's shape.
	w.warm = []*graph.Graph{paw, graph.Cycle(3), graph.Path(4)}
	return w, nil
}

// setup boots the daemon, registers the host and warms every pattern
// and shape the window uses.
func (w *serve) setup() error {
	w.stopDaemon()
	d, err := startDaemon(w.cfg.daemon, "-addr", "127.0.0.1:0", "-runs", strconv.Itoa(serveRuns), "-seed", strconv.FormatUint(serveHostSeed, 10))
	if err != nil {
		return err
	}
	w.d = d
	if _, _, err := d.postOn(0, "/graphs/host", "application/json", w.hostRaw); err != nil {
		return fmt.Errorf("register host: %w", err)
	}
	for _, h := range w.warm {
		if _, err := d.queryOn(0, "/decide", h, nil, nil, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, q := range w.queries {
		if _, err := d.queryOn(0, q.endpoint, q.shapes[0], nil, nil, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	w.before, err = d.metrics()
	if err != nil {
		return err
	}
	w.sample = make(chan struct{})
	w.wg.Add(1)
	go w.sampleHeap()
	return nil
}

// sampleHeap polls the daemon's heap gauge once a second for
// go.heap_peak_mb.
func (w *serve) sampleHeap() {
	defer w.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-w.sample:
			return
		case <-t.C:
			if m, err := w.d.metrics(); err == nil {
				w.peak = max(w.peak, m.sum("planarsi_go_heap_alloc_bytes"))
			}
		}
	}
}

func (w *serve) clients() int { return 2 }

// cycle sends one fixed cycle of requests on caller c's connection. The
// second caller starts half a cycle later, so the two callers' misses
// do not start in step.
func (w *serve) cycle(r *runner, c int) {
	for j := range w.cycleOf {
		q := w.queries[w.cycleOf[(j+c*len(w.cycleOf)/2)%len(w.cycleOf)]]
		h := q.shapes[w.next[c]%len(q.shapes)]
		w.next[c]++
		r.do(q.kind, serveBudget, func(op *span) error {
			resp, err := w.d.queryOn(c, q.endpoint, h, op, w.tr, w.costs)
			if err != nil {
				return err
			}
			return w.check(q, h, resp)
		})
	}
}

func (w *serve) check(q serveQuery, h *graph.Graph, resp *queryResponse) error {
	if resp.Found != q.present {
		return fmt.Errorf("%s found=%v, oracle %v", q.endpoint, resp.Found, q.present)
	}
	switch q.kind {
	case "count":
		if resp.Count == nil || *resp.Count != q.count {
			return fmt.Errorf("count %v, oracle %d", resp.Count, q.count)
		}
	case "find":
		if !core.VerifyOccurrence(w.host, h, resp.Occurrence) {
			return fmt.Errorf("find returned an occurrence that does not verify")
		}
	}
	return nil
}

func (w *serve) finish(out *outcome) error {
	close(w.sample)
	w.wg.Wait()
	after, err := w.d.metrics()
	if err != nil {
		return err
	}
	l, b := out.layers, w.before
	delta := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - b.sum(name, labels...)
	}
	out.residentBytes = after.sum("planarsi_registry_bytes")

	// Warmth guard: the window must build nothing.
	var misses, builds float64
	for _, class := range []string{"clustering", "cover", "pattern"} {
		hits := delta("planarsi_index_memo_hits_total", `class="`+class+`"`)
		miss := delta("planarsi_index_memo_misses_total", `class="`+class+`"`)
		misses += miss
		builds += delta("planarsi_index_memo_build_seconds_total", `class="`+class+`"`)
		l.set("index.memo_hit_ratio."+class, hitRatio(hits, miss))
	}
	l.set("index.memo_build_ms.clustering", 1e3*delta("planarsi_index_memo_build_seconds_total", `class="clustering"`))
	l.set("index.memo_build_ms.cover", 1e3*delta("planarsi_index_memo_build_seconds_total", `class="cover"`))
	if misses != 0 || builds != 0 {
		out.guards = append(out.guards, fmt.Sprintf("window not warm: %v memo misses, %.3fs memo builds", misses, builds))
	}
	l.set("index.queries_per_sweep", delta("planarsi_index_queries_total")/max(delta("planarsi_index_sweeps_total"), 1))
	l.set("index.resident_bytes", out.residentBytes)

	ops := float64(max(len(out.samples), 1))
	var handlerS, handlerN float64
	for _, ep := range []string{"decide", "find", "count"} {
		handlerS += delta("planarsi_http_request_duration_seconds_sum", `endpoint="`+ep+`"`)
		handlerN += delta("planarsi_http_request_duration_seconds_count", `endpoint="`+ep+`"`)
	}
	handlerMs := 1e3 * handlerS / max(handlerN, 1)
	l.set("serve.handler_ms", handlerMs)
	l.set("serve.transport_ms", out.meanOpMs()-handlerMs)
	l.set("serve.window_wait_ms", 1e3*delta("planarsi_sched_window_wait_seconds_sum")/max(delta("planarsi_sched_window_wait_seconds_count"), 1))
	l.set("serve.batch_size", delta("planarsi_sched_batch_size_sum")/max(delta("planarsi_sched_batch_size_count"), 1))
	l.set("serve.rejected", delta("planarsi_sched_rejected_total"))
	l.set("serve.retries", delta("planarsi_sched_retries_total"))
	l.set("serve.shed", delta("planarsi_shed_total"))
	// The daemon's runtime and pool, not this client's.
	l.set("par.steals", delta("planarsi_pool_steals_total")/ops)
	l.set("par.parks", delta("planarsi_pool_parks_total")/ops)
	l.set("go.gc_pause_ms", 1e3*delta("planarsi_go_gc_pause_seconds_total")/ops)
	l.set("go.heap_peak_mb", max(w.peak, after.sum("planarsi_go_heap_alloc_bytes"))/(1<<20))
	delete(l, "go.alloc_mb")
	if w.tr == nil {
		return nil
	}
	w.costs.finish(l)
	rp := newReplay(w.tr)
	for _, q := range w.queries {
		if err := rp.cover(replayInput{g: w.host, h: q.shapes[0], seed: serveHostSeed, present: q.present}); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rp.canon(q.shapes)
	}
	if err := rp.conn(w.host, conn.Options{Seed: serveHostSeed, MaxRuns: serveRuns}, 2); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rp.finish(l)
	return exactMiss(l, w.host, graph.Cycle(3), core.Options{Seed: serveHostSeed, MaxRuns: serveRuns})
}

func (w *serve) stopDaemon() {
	if w.sample != nil {
		select {
		case <-w.sample:
		default:
			close(w.sample)
		}
		w.wg.Wait()
		w.sample = nil
	}
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

func (w *serve) close() { w.stopDaemon() }

// daemon is one running planarsid process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	clients [2]*http.Client
	logDone chan struct{}
}

// live holds the daemons that are running, so a stuck run can stop them
// before it exits.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

func stopLiveDaemons() {
	live.Lock()
	defer live.Unlock()
	for d := range live.set {
		_ = d.cmd.Process.Kill()
	}
}

// startDaemon starts planarsid and waits for its listening line.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start planarsid: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]bool)
	}
	live.set[d] = true
	live.Unlock()
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "planarsid: listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("planarsid exited before listening")
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("planarsid did not report its address within 30s")
	}
	for i := range d.clients {
		// One transport per caller: each caller keeps its own
		// keep-alive connection.
		d.clients[i] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   serveBudget + 5*time.Second,
		}
	}
	return d, nil
}

// stop sends SIGTERM, kills the daemon if it has not exited within ten
// seconds, and waits for it and its log reader.
func (d *daemon) stop() {
	for _, c := range d.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-d.logDone
		_ = d.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

func (d *daemon) postOn(c int, path, ctype string, body []byte) ([]byte, http.Header, error) {
	resp, err := d.clients[c].Post(d.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, resp.Header, nil
}

// queryResponse is the part of planarsid's answer the benchmark checks.
type queryResponse struct {
	Found      bool            `json:"found"`
	Count      *int            `json:"count"`
	Occurrence core.Occurrence `json:"occurrence"`
	Trace      *struct {
		RequestID string     `json:"requestId"`
		Spans     []obs.Span `json:"spans"`
		Cost      obs.Cost   `json:"cost"`
	} `json:"trace"`
}

// queryOn sends one query on caller c's connection. With a tracer, the
// server's spans become children of op, which takes the server's
// request id.
func (d *daemon) queryOn(c int, endpoint string, h *graph.Graph, op *span, tr *tracer, costs *opCost) (*queryResponse, error) {
	body, _ := json.Marshal(struct {
		Graph   string `json:"graph"`
		Pattern any    `json:"pattern"`
	}{"host", struct {
		N     int        `json:"n"`
		Edges [][2]int32 `json:"edges"`
	}{h.N(), h.Edges()}})
	path := endpoint
	if tr != nil {
		path += "?trace=1"
	}
	sent := time.Now()
	sp := tr.begin("serve.http", op)
	b, hdr, err := d.postOn(c, path, "application/json", body)
	end := time.Now()
	if err != nil {
		tr.endAt(sp, end)
		return nil, err
	}
	var resp queryResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		tr.endAt(sp, end)
		return nil, fmt.Errorf("%s: %w", endpoint, err)
	}
	if tr != nil && resp.Trace != nil {
		op.Req = hdr.Get("X-Request-Id")
		sp.Req = op.Req
		tr.adopt(sp, sent, "core.", resp.Trace.Spans)
		costs.addCost(resp.Trace.Cost)
	}
	tr.endAt(sp, end)
	return &resp, nil
}

// promText is a parsed Prometheus text exposition: series -> value.
type promText map[string]float64

func (d *daemon) metrics() (promText, error) {
	resp, err := d.clients[0].Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := promText{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds the series of one metric name whose labels contain every
// given label fragment.
func (m promText) sum(name string, labels ...string) float64 {
	var s float64
	for series, v := range m {
		base, lab, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, want := range labels {
			if !strings.Contains(lab, want) {
				ok = false
				break
			}
		}
		if ok {
			s += v
		}
	}
	return s
}
