// Command perfbench is the repository benchmark. It runs one workload
// (cold, serve or live-edits) against the code in the checkout, checks
// every answer against an oracle computed before timing starts, and
// prints the result as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is repeated traced and the metrics are the per-layer ones. --all
// runs every workload both ways and prints every metric as a table;
// --selftest runs every workload briefly and fails when a metric named
// in BENCHMARK.json is missing or carries the wrong unit. README.md
// lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string
	out      string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; equal seeds give equal inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the workload traced and reports per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "planarsid binary for the serve workload")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for trace files")
	all := flag.Bool("all", false, "run every workload untraced and traced and print every metric")
	selftest := flag.Bool("selftest", false, "run every workload briefly and check the metric names and units in BENCHMARK.json")
	flag.Parse()
	cfg.trace = traceFlag == 1
	watchdog(cfg)

	switch {
	case *selftest:
		return runSelftest(cfg)
	case *all:
		return runAll(cfg)
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := runOne(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printTable(cfg, res)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// runOne runs one workload, untraced or traced, and assembles its
// result line.
func runOne(cfg config) (*result, error) {
	st := newStamp(cfg)
	fmt.Printf("# stamp %s\n", st)
	if cfg.trace {
		return runTraced(cfg, st)
	}
	out, err := measureWorkload(cfg, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	res := out.result()
	res.Metrics = out.endToEnd()
	return res, nil
}

// runTraced measures the workload untraced for half the window, then
// traced for the other half with the same seed, replays the layer entry
// points, and reports the per-layer metrics plus the tracing overhead.
func runTraced(cfg config, st stamp) (*result, error) {
	half := cfg.seconds / 2
	plain, err := measureWorkload(cfg, half, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced half: %w", err)
	}
	tr := newTracer()
	traced, err := measureWorkload(cfg, half, tr)
	if err != nil {
		return nil, fmt.Errorf("traced half: %w", err)
	}
	layers := traced.layers
	// Per-kind medians come from the untraced half, like every
	// end-to-end number.
	for name, kind := range map[string]string{
		"connectivity_p50_ms":    "connectivity",
		"edit_p50_ms":            "edit",
		"scan_after_edit_p50_ms": "decide/after_edit",
	} {
		if xs := plain.latencies(kind); len(xs) > 0 {
			layers.set(name, percentile(xs, 50))
		}
	}
	layers.set("ops.samples", float64(plain.attempted()))
	layers.set("fail_frac", float64(plain.failed()+traced.failed())/float64(max(plain.attempted()+traced.attempted(), 1)))
	layers.set("trace.overhead_pct", 100*(traced.meanOpMs()/plain.meanOpMs()-1))
	layers.set("trace.spans", float64(tr.len()))
	layers.set("trace.unattributed_pct", 100*tr.unattributedShare())
	addSpanLayers(layers, tr, traced)
	res := traced.result()
	res.Correct = res.Correct && plain.correct()
	res.Attempted += plain.attempted()
	res.Failed += plain.failed()
	res.Metrics = layers.complete(cfg.workload)
	if err := tr.write(cfg, st); err != nil {
		return nil, err
	}
	return res, nil
}

// printTable prints the result metrics one per line for a human reader;
// tools read only the JSON line after it.
func printTable(cfg config, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("# %-12s %-34s %14.4f %s\n", cfg.workload, n, m.Value, m.Unit)
	}
}

// runAll runs every workload untraced and then traced, printing every
// metric by name and unit, and exits non-zero if any answer was wrong.
func runAll(cfg config) int {
	code := 0
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = name, traced
			res, err := runOne(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				code = 1
				continue
			}
			printTable(c, res)
			fmt.Printf("# %-12s correct=%v attempted=%d failed=%d trace=%v\n", name, res.Correct, res.Attempted, res.Failed, traced)
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// spec is the part of BENCHMARK.json the self-test checks.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelftest runs every workload of BENCHMARK.json for a few seconds,
// untraced and traced, and fails when a declared metric is missing or
// has another unit, or when any answer was wrong.
func runSelftest(cfg config) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: selftest: %v\n", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: selftest: BENCHMARK.json: %v\n", err)
		return 1
	}
	bad := 0
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.trace, c.seconds = w.Name, traced, 4
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			res, err := runOne(c)
			if err != nil {
				fmt.Printf("FAIL %s trace=%v: %v\n", w.Name, traced, err)
				bad++
				continue
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("FAIL %s trace=%v: correct=%v failed=%d\n", w.Name, traced, res.Correct, res.Failed)
				bad++
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					fmt.Printf("FAIL %s trace=%v: metric %s missing\n", w.Name, traced, m.Name)
					bad++
				case got.Unit != m.Unit:
					fmt.Printf("FAIL %s trace=%v: metric %s has unit %q, BENCHMARK.json says %q\n", w.Name, traced, m.Name, got.Unit, m.Unit)
					bad++
				}
			}
			if len(res.Metrics) != len(want) {
				fmt.Printf("FAIL %s trace=%v: %d metrics printed, BENCHMARK.json declares %d\n", w.Name, traced, len(res.Metrics), len(want))
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selftest: %d failures\n", bad)
		return 1
	}
	fmt.Println("selftest: ok")
	return 0
}

// hardLimit bounds one run of one workload, set-up and traced replay
// included; past it the run is stuck.
const hardLimit = 170 * time.Second

// watchdog ends a stuck run: it prints every goroutine's stack, stops
// the daemon if one is running, and exits with status 3.
func watchdog(cfg config) {
	if cfg.workload == "" {
		return
	}
	time.AfterFunc(hardLimit, func() {
		buf := make([]byte, 1<<22)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v; goroutines:\n%s\n", cfg.workload, hardLimit, buf)
		stopLiveDaemons()
		os.Exit(3)
	})
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
