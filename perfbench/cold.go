package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/flow"
	"planarsi/internal/graph"
	"planarsi/internal/naive"
	"planarsi/internal/obs"
	"planarsi/internal/wd"
)

// The cold workload makes package-level pipeline calls on fresh inputs
// with no Index, so every call pays for clustering, the cover and the
// band decompositions, and connectivity runs the separating covers with
// the sequential DP: the paper's Table 1 path and its Lemma 5.2 path.
// One caller; the pipeline forks up to GOMAXPROCS internally.

const (
	coldHitGrid   = 64 // side of the grids a 4-cycle is decided in
	coldFindGrid  = 32 // side of the grids a 4-cycle is found in
	coldMissGrid  = 12 // side of the grids a triangle is missing from
	coldCountGrid = 8  // side of the grids whose 4-cycles are counted
	coldPool      = 3  // distinct inputs per op type, used in turn
)

// coldConnTarget is one connectivity target of known connectivity.
type coldConnTarget struct {
	name    string
	g       *graph.Graph
	maxRuns int
	want    int
}

// coldInputs are the seeded inputs of the cold workload.
type coldInputs struct {
	hits, finds, misses, counts []*graph.Graph
	targets                     []coldConnTarget
}

// makeColdInputs builds the inputs from the seed. Grids, relabeled per
// seed, keep the per-call cost steady across seeds; on seeded
// RandomPlanar targets one decide costs from half to one and a half
// times the median.
func makeColdInputs(seed uint64) coldInputs {
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	var in coldInputs
	for i := 0; i < coldPool; i++ {
		in.hits = append(in.hits, relabel(graph.Grid(coldHitGrid, coldHitGrid), rng))
		in.finds = append(in.finds, relabel(graph.Grid(coldFindGrid, coldFindGrid), rng))
		in.misses = append(in.misses, relabel(graph.Grid(coldMissGrid, coldMissGrid), rng))
		in.counts = append(in.counts, relabel(graph.Grid(coldCountGrid, coldCountGrid), rng))
	}
	// Targets of connectivity 2..5, relabeled and passed without an
	// embedding so planarity.Embed runs. A connectivity-5 answer is the
	// absence of every separating cycle, which is correct under any run
	// budget; the icosahedron uses one run (the default budget costs
	// over 12 s).
	for _, t := range []coldConnTarget{
		{name: "grid6", g: graph.Grid(6, 6)},
		{name: "grid8", g: graph.Grid(8, 8)},
		{name: "wheel16", g: graph.Wheel(16)},
		{name: "apollonian16", g: graph.Apollonian(16, rng)},
		{name: "octahedron", g: graph.Bipyramid(4)},
		{name: "icosahedron", g: graph.Icosahedron(), maxRuns: 1},
	} {
		t.g = relabel(t.g, rng)
		in.targets = append(in.targets, t)
	}
	return in
}

// relabel returns g with its vertices randomly renumbered and no
// embedding.
func relabel(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.N())
	edges := g.Edges()
	for i, e := range edges {
		edges[i] = [2]int32{int32(perm[e[0]]), int32(perm[e[1]])}
	}
	return graph.FromEdges(g.N(), edges)
}

type cold struct {
	tr    *tracer
	costs *opCost
	seed  uint64
	coldInputs
	c4, c3    *graph.Graph
	countWant int
	cycles    int
}

func newCold(cfg config, tr *tracer) (workload, error) {
	w := &cold{tr: tr, costs: newOpCost(), seed: cfg.seed, c4: graph.Cycle(4), c3: graph.Cycle(3)}
	w.coldInputs = makeColdInputs(cfg.seed)
	// Oracles, before any clock starts.
	for _, g := range w.misses {
		if naive.Decide(g, w.c3) {
			return nil, fmt.Errorf("oracle finds a triangle in a grid")
		}
	}
	w.countWant = 8 * (coldCountGrid - 1) * (coldCountGrid - 1)
	if n := len(naive.Search(w.counts[0], w.c4, naive.Options{})); n != w.countWant {
		return nil, fmt.Errorf("oracle counts %d 4-cycles, closed form %d", n, w.countWant)
	}
	for i := range w.targets {
		w.targets[i].want = flow.VertexConnectivity(w.targets[i].g)
	}
	// Start the fork-join pool outside any clock.
	if _, err := core.Decide(graph.Grid(4, 4), w.c4, core.Options{}); err != nil {
		return nil, err
	}
	return w, nil
}

// setup builds the seeded inputs and decides once on each hit target:
// the cold workload keeps no state between calls, so that is all the
// set-up it has.
func (w *cold) setup() error {
	in := makeColdInputs(w.seed)
	for i, t := range w.targets {
		in.targets[i].want = t.want
	}
	w.coldInputs = in
	for _, g := range w.hits {
		found, err := core.Decide(g, w.c4, core.Options{Seed: w.seed})
		if err == nil && !found {
			err = fmt.Errorf("warm-up decide missed a present 4-cycle")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *cold) clients() int { return 1 }

// cycle runs three decide hits, one decide miss, four finds, one count
// and one connectivity call per target. Six calls are cheaper than a
// hit and six dearer, so the median of a cycle falls among the hits.
func (w *cold) cycle(r *runner, _ int) {
	i := w.cycles % coldPool
	w.cycles++
	opt := core.Options{Seed: w.seed + uint64(w.cycles)}
	for j := range w.hits {
		g := w.hits[(i+j)%coldPool]
		r.do("decide", 10*time.Second, func(op *span) error {
			return tracedCall(w.tr, w.costs, op, "core.decide", opt, func(o core.Options) error {
				found, err := core.Decide(g, w.c4, o)
				if err == nil && !found {
					err = fmt.Errorf("missed a present 4-cycle")
				}
				return err
			})
		})
	}
	r.do("decide", 20*time.Second, func(op *span) error {
		return tracedCall(w.tr, w.costs, op, "core.decide", opt, func(o core.Options) error {
			found, err := core.Decide(w.misses[i], w.c3, o)
			if err == nil && found {
				err = fmt.Errorf("found a triangle in a grid")
			}
			return err
		})
	})
	for j := 0; j < 4; j++ {
		g := w.finds[(i+j)%coldPool]
		fopt := opt
		fopt.Seed += uint64(j) << 32
		r.do("find", 10*time.Second, func(op *span) error {
			return tracedCall(w.tr, w.costs, op, "core.find", fopt, func(o core.Options) error {
				occ, err := core.FindOne(g, w.c4, o)
				if err == nil && (occ == nil || !core.VerifyOccurrence(g, w.c4, occ)) {
					err = fmt.Errorf("no verified 4-cycle found")
				}
				return err
			})
		})
	}
	// Count pins the run budget at its default. Unpinned, the Theorem
	// 4.2 stopping rule runs a seed-dependent number of runs past it.
	copt := opt
	copt.MaxRuns = core.RunBudget(w.counts[i].N(), core.Options{})
	r.do("count", 20*time.Second, func(op *span) error {
		return tracedCall(w.tr, w.costs, op, "core.count", copt, func(o core.Options) error {
			n, err := core.Count(w.counts[i], w.c4, o)
			if err == nil && n != w.countWant {
				err = fmt.Errorf("counted %d 4-cycles, want %d", n, w.countWant)
			}
			return err
		})
	})
	for _, t := range w.targets {
		r.do("connectivity", 30*time.Second, func(op *span) error {
			var res conn.Result
			var err error
			copt := conn.Options{Seed: opt.Seed, MaxRuns: t.maxRuns}
			if w.tr != nil {
				wt := wd.NewTracker()
				copt.Tracker = wt
				w.tr.call("conn.vertex_connectivity", op, func() { res, err = conn.VertexConnectivity(t.g, copt) })
				w.costs.add(wt, nil, nil)
			} else {
				res, err = conn.VertexConnectivity(t.g, copt)
			}
			if err != nil {
				return err
			}
			if res.Connectivity != t.want {
				return fmt.Errorf("%s: connectivity %d, want %d", t.name, res.Connectivity, t.want)
			}
			if res.Cut != nil && (len(res.Cut) != t.want || !conn.VerifyCut(t.g, res.Cut)) {
				return fmt.Errorf("%s: reported cut does not verify", t.name)
			}
			return nil
		})
	}
}

// tracedCall runs one core call. Traced, the call gets a recorder and
// counters, and the program's spans become children of its span.
func tracedCall(tr *tracer, costs *opCost, op *span, name string, opt core.Options, f func(core.Options) error) error {
	if tr == nil {
		return f(opt)
	}
	o, wt, cc, st := attachCounters(opt)
	origin := time.Now()
	o.Trace = obs.NewRecorder(1 << 16)
	sp := tr.begin(name, op)
	err := f(o)
	end := time.Now()
	spans, _ := o.Trace.Snapshot()
	tr.adopt(sp, origin, "core.", spans)
	tr.endAt(sp, end)
	costs.add(wt, cc, st)
	return err
}

func (w *cold) finish(out *outcome) error {
	// No Index, so what stays resident is the process heap: the inputs
	// plus anything the library kept. The second collection empties the
	// sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.residentBytes = float64(ms.HeapAlloc)
	if w.tr == nil {
		return nil
	}
	w.costs.finish(out.layers)
	rp := newReplay(w.tr)
	ins := []replayInput{
		{g: w.hits[0], h: w.c4, seed: w.seed, present: true},
		{g: w.misses[0], h: w.c3, seed: w.seed, present: false},
		{g: w.finds[0], h: w.c4, seed: w.seed, present: true},
	}
	for _, in := range ins {
		if err := rp.cover(in); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	for _, t := range w.targets {
		if err := rp.conn(t.g, conn.Options{Seed: w.seed, MaxRuns: t.maxRuns}, t.want); err != nil {
			return fmt.Errorf("replay %s: %w", t.name, err)
		}
	}
	rp.canon([]*graph.Graph{w.c4, w.c3})
	rp.finish(out.layers)
	return exactMiss(out.layers, w.misses[0], w.c3, core.Options{Seed: w.seed})
}

func (w *cold) close() {}
