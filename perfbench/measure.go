package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planarsi/internal/par"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow boot does not move it.
const setupReps = 3

// A workload generates its inputs and oracle answers from the seed when
// it is made (untimed), then sets up and runs fixed cycles of operations.
type workload interface {
	// setup is everything the workload does before its first timed
	// operation. It runs setupReps times; each call replaces the state
	// the previous one built.
	setup() error
	// clients is the number of closed-loop callers.
	clients() int
	// cycle runs one fixed cycle of operations as caller c. The mix of
	// a cycle is the same for every seed, so medians compare across
	// seeds.
	cycle(r *runner, c int)
	// finish reads the end-of-window counters into out and, on a traced
	// run, replays the layer entry points.
	finish(out *outcome) error
	close()
}

type workloadDef struct {
	// tailPct is the percentile tail_ms reports: the highest one with
	// at least ten samples beyond it at the workload's usual op count.
	tailPct float64
	make    func(cfg config, tr *tracer) (workload, error)
}

var workloads = map[string]workloadDef{
	"cold":       {tailPct: 90, make: newCold},
	"serve":      {tailPct: 99, make: newServe},
	"live-edits": {tailPct: 90, make: newEdits},
}

// sample is one timed operation.
type sample struct {
	kind string
	ms   float64
	ok   bool
}

// runner times operations for a workload's callers.
type runner struct {
	tr *tracer

	mu      sync.Mutex
	samples []sample
	errs    []string
}

// do times one operation. f performs the call and checks its answer;
// it receives the op span, the parent of any span it records. An answer
// later than budget counts as a failure.
func (r *runner) do(kind string, budget time.Duration, f func(op *span) error) {
	op := r.tr.begin("op."+kind, nil)
	t0 := time.Now()
	err := f(op)
	d := time.Since(t0)
	r.tr.end(op)
	if err == nil && d > budget {
		err = fmt.Errorf("took %v, over its %v budget", d.Round(time.Millisecond), budget)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{kind: kind, ms: msOf(d), ok: err == nil})
	if err != nil && len(r.errs) < 5 {
		r.errs = append(r.errs, kind+": "+err.Error())
	}
}

// outcome is what one measured window produced.
type outcome struct {
	workload string
	tailPct  float64
	setupS   []float64
	windowS  float64
	samples  []sample
	// residentBytes is what the workload keeps resident at the end of
	// the window (see README.md).
	residentBytes float64
	// guards lists violated run-level checks (warmth, determinism);
	// any entry makes the run incorrect.
	guards []string
	layers layerSet
}

func (o *outcome) attempted() int { return len(o.samples) }

func (o *outcome) failed() int {
	n := 0
	for _, s := range o.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

func (o *outcome) correct() bool {
	return o.failed() == 0 && len(o.guards) == 0 && len(o.samples) > 0
}

func (o *outcome) result() *result {
	for _, g := range o.guards {
		fmt.Fprintf(os.Stderr, "perfbench: %s: guard failed: %s\n", o.workload, g)
	}
	return &result{Correct: o.correct(), Attempted: o.attempted(), Failed: o.failed()}
}

// latencies returns the sorted latencies of the samples of one kind
// (with its sub-kinds: "decide" includes "decide/after_edit"), or of
// every sample when kind is empty.
func (o *outcome) latencies(kind string) []float64 {
	var xs []float64
	for _, s := range o.samples {
		if kind == "" || s.kind == kind || strings.HasPrefix(s.kind, kind+"/") {
			xs = append(xs, s.ms)
		}
	}
	sort.Float64s(xs)
	return xs
}

func (o *outcome) meanOpMs() float64 { return mean(o.latencies("")) }

// hitRatio is the share of memo accesses that hit. A class nobody
// accessed missed nothing: a warm serve window reaches no clustering,
// because every cover it asks for is already built.
func hitRatio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return hits / (hits + misses)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// endToEnd computes every end-to-end metric from the raw samples.
func (o *outcome) endToEnd() map[string]metric {
	all := o.latencies("")
	ok := len(all) - o.failed()
	beyond := len(all) - int(math.Ceil(o.tailPct/100*float64(len(all))))
	fmt.Printf("# %s: %d ops (%d ok) in %.2fs; tail_ms is p%g with %d samples beyond it; fail_frac %.4f\n",
		o.workload, len(all), ok, o.windowS, o.tailPct, beyond, float64(o.failed())/float64(max(len(all), 1)))
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: only %d samples beyond p%g; lengthen --seconds\n", o.workload, beyond, o.tailPct)
	}
	for _, k := range []string{"decide", "find", "count", "connectivity", "edit", "decide/after_edit"} {
		if n := len(o.latencies(k)); n > 0 {
			fmt.Printf("# %s: %s p50 %.3f ms over %d samples\n", o.workload, k, percentile(o.latencies(k), 50), n)
		}
	}
	m := map[string]metric{
		"setup_s":       {median(o.setupS), "s"},
		"ops_per_s":     {float64(ok) / o.windowS, "1/s"},
		"p50_ms":        {percentile(all, 50), "ms"},
		"tail_ms":       {percentile(all, o.tailPct), "ms"},
		"decide_p50_ms": {percentile(o.latencies("decide"), 50), "ms"},
		"find_p50_ms":   {percentile(o.latencies("find"), 50), "ms"},
		"count_p50_ms":  {percentile(o.latencies("count"), 50), "ms"},
		"resident_mb":   {o.residentBytes / (1 << 20), "MiB"},
	}
	return m
}

// percentile is the nearest-rank percentile of sorted xs: an observed
// sample, never an interpolation, so it never exceeds the maximum.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// measureWorkload makes the workload (inputs and oracles, untimed), times
// its set-up setupReps times, and runs whole cycles on every caller until
// seconds have passed.
func measureWorkload(cfg config, seconds float64, tr *tracer) (*outcome, error) {
	def := workloads[cfg.workload]
	w, err := def.make(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	out := &outcome{workload: cfg.workload, tailPct: def.tailPct, layers: layerSet{}}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}

	rt := startRuntimeWatch()
	r := &runner{tr: tr}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w.cycle(r, c)
				if time.Now().After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	out.windowS = time.Since(start).Seconds()
	out.samples = r.samples
	rt.stop(out)
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed op: %s\n", cfg.workload, e)
	}
	if err := w.finish(out); err != nil {
		return nil, err
	}
	return out, nil
}

// runtimeWatch reads this process's Go runtime and fork-join pool
// counters across a window. The serve workload overwrites these layers
// with the daemon's own counters.
type runtimeWatch struct {
	before runtime.MemStats
	pool   par.PoolStats
	peak   atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup
}

func startRuntimeWatch() *runtimeWatch {
	w := &runtimeWatch{done: make(chan struct{}), pool: par.ReadPoolStats()}
	runtime.ReadMemStats(&w.before)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.done:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > w.peak.Load() {
					w.peak.Store(ms.HeapInuse)
				}
			}
		}
	}()
	return w
}

func (w *runtimeWatch) stop(out *outcome) {
	close(w.done)
	w.wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	pool := par.ReadPoolStats()
	ops := float64(max(len(out.samples), 1))
	out.layers.set("go.gc_pause_ms", float64(after.PauseTotalNs-w.before.PauseTotalNs)/1e6/ops)
	out.layers.set("go.alloc_mb", float64(after.TotalAlloc-w.before.TotalAlloc)/(1<<20)/ops)
	out.layers.set("go.heap_peak_mb", float64(max(w.peak.Load(), after.HeapInuse))/(1<<20))
	out.layers.set("par.steals", float64(pool.Steals-w.pool.Steals)/ops)
	out.layers.set("par.parks", float64(pool.Parks-w.pool.Parks)/ops)
}

// layerSet collects per-layer metric values by name.
type layerSet map[string]float64

func (l layerSet) set(name string, v float64) { l[name] = v }

// complete returns every declared per-layer metric. A layer the
// workload does not exercise reads 0; those names go to standard error.
func (l layerSet) complete(workload string) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	var absent []string
	for _, d := range perLayer {
		v, ok := l[d.name]
		if !ok {
			absent = append(absent, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range l {
		if _, ok := m[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: undeclared layer metric %s\n", name)
		}
	}
	if len(absent) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s does not exercise (reported as 0): %s\n", workload, strings.Join(absent, " "))
	}
	return m
}

// stamp records what a wall-clock number depends on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
}

func newStamp(cfg config) stamp {
	return stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		TreeSHA256: treeHash(),
	}
}

func (s stamp) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "none" and is identified
// by its tree hash instead.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return r
	}
	return ref
}

// treeHash hashes the Go sources and go.mod files of the checkout, so two
// runs can tell whether they measured the same code.
func treeHash() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
