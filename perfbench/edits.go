package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"planarsi/internal/conn"
	"planarsi/internal/core"
	"planarsi/internal/flow"
	"planarsi/internal/graph"
	"planarsi/internal/index"
	"planarsi/internal/obs"
	"planarsi/internal/wd"
)

// The live-edits workload drives a library Index over a grid built from
// its edge list. Each step toggles one grid edge under RequirePlanar
// (removing it, and re-adding it on the next step, so the grid never
// gains a triangle), scans and counts a fixed batch of relabeled
// patterns, finds two occurrences, and scans again warm. It is the only
// workload that writes: every edit re-clusters, re-cuts and rebuilds the
// bands it touches.

const (
	editGrid     = 8 // side of the host grid
	editRelabels = 4 // relabelings per shape in a batch
	editBudget   = 20 * time.Second
)

// editRuns is the Index's MaxRuns: the default budget for the host,
// pinned so that count stops inside the cached runs, as in serve.
var editRuns = core.RunBudget(editGrid*editGrid, core.Options{})

type edits struct {
	cfg   config
	tr    *tracer
	costs *opCost
	g     *graph.Graph
	// faces lists the grid's unit squares as edge quadruples, for the
	// closed-form 4-cycle count: 8 per face whose four edges are present.
	faces   [][4][2]int32
	toggles [][2]int32
	scan    []*graph.Graph
	counts  []*graph.Graph
	finds   []*graph.Graph
	// scanWant is the oracle's answer per scan member; the 4-cycle count
	// depends on the step and comes from c4Count.
	scanWant []bool

	ix      *index.Index
	tracker *wd.Tracker
	stats   *core.Stats
	step    int
	memo0   []index.MemoStats
	st0     index.Stats
	editRes []index.EditResult
}

func newEdits(cfg config, tr *tracer) (workload, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0xed17))
	w := &edits{cfg: cfg, tr: tr, costs: newOpCost()}
	n := editGrid * editGrid
	perm := rng.Perm(n)
	id := func(r, c int) int32 { return int32(perm[r*editGrid+c]) }
	var edges [][2]int32
	for r := 0; r < editGrid; r++ {
		for c := 0; c < editGrid; c++ {
			if c+1 < editGrid {
				edges = append(edges, [2]int32{id(r, c), id(r, c+1)})
			}
			if r+1 < editGrid {
				edges = append(edges, [2]int32{id(r, c), id(r+1, c)})
			}
			if r+1 < editGrid && c+1 < editGrid {
				w.faces = append(w.faces, [4][2]int32{
					{id(r, c), id(r, c+1)}, {id(r+1, c), id(r+1, c+1)},
					{id(r, c), id(r+1, c)}, {id(r, c+1), id(r+1, c+1)},
				})
			}
		}
	}
	w.g = graph.FromEdges(n, edges)
	for _, i := range rng.Perm(len(edges)) {
		w.toggles = append(w.toggles, edges[i])
	}
	// The shapes of a batch differ in size. Members of equal size share
	// a clustering, and a batch building one clustering for two of them
	// at once can deadlock: the work-stealing join inside the clustering
	// build picks up the sibling, which waits on the same sync.Once.
	shapes := []*graph.Graph{graph.Cycle(4), graph.Cycle(3), graph.Star(5)}
	for _, h := range shapes {
		for i := 0; i < editRelabels; i++ {
			w.scan = append(w.scan, relabel(h, rng))
		}
	}
	for _, h := range shapes[:2] {
		for i := 0; i < editRelabels; i++ {
			w.counts = append(w.counts, relabel(h, rng))
		}
	}
	for i := 0; i < editRelabels; i++ {
		w.finds = append(w.finds, relabel(graph.Cycle(4), rng))
	}
	// A grid minus one edge still holds 4-cycles and vertices of degree
	// four, and no triangle: the scan answers are fixed for every step.
	for _, h := range w.scan {
		w.scanWant = append(w.scanWant, h.N() != 3)
	}
	if got := w.c4Count(w.g); got != 8*(editGrid-1)*(editGrid-1) {
		return nil, fmt.Errorf("closed-form count %d disagrees with the grid", got)
	}
	return w, nil
}

// c4Count is the oracle's 4-cycle count of g: 8 per intact unit square.
func (w *edits) c4Count(g *graph.Graph) int {
	n := 0
	for _, f := range w.faces {
		if g.HasEdge(f[0][0], f[0][1]) && g.HasEdge(f[1][0], f[1][1]) && g.HasEdge(f[2][0], f[2][1]) && g.HasEdge(f[3][0], f[3][1]) {
			n += 8
		}
	}
	return n
}

// setup builds a fresh Index and runs the first scans, which build every
// cover the batch needs.
func (w *edits) setup() error {
	opt := core.Options{Seed: w.cfg.seed, MaxRuns: editRuns}
	if w.tr != nil {
		w.tracker, w.stats = wd.NewTracker(), new(core.Stats)
		opt.Tracker, opt.Stats = w.tracker, w.stats
	}
	w.ix = index.New(w.g, opt)
	w.step = 0
	if err := w.checkScan(w.ix.Scan(context.Background(), w.scan)); err != nil {
		return err
	}
	if err := w.checkCount(w.ix.ScanCount(context.Background(), w.counts), w.g); err != nil {
		return err
	}
	if _, err := w.ix.FindOccurrence(w.finds[0]); err != nil {
		return err
	}
	w.memo0, w.st0 = w.ix.MemoStats(), w.ix.Stats()
	if w.tracker != nil {
		// The window's counters start here.
		w.tracker.Reset()
		*w.stats = core.Stats{}
	}
	return nil
}

func (w *edits) checkScan(res []index.ScanResult) error {
	for i, r := range res {
		if r.Err != nil {
			return r.Err
		}
		if r.Found != w.scanWant[i] {
			return fmt.Errorf("scan member %d found=%v, oracle %v", i, r.Found, w.scanWant[i])
		}
	}
	return nil
}

func (w *edits) checkCount(res []index.ScanResult, g *graph.Graph) error {
	want := w.c4Count(g)
	for i, r := range res {
		if r.Err != nil {
			return r.Err
		}
		exp := 0
		if w.counts[i].N() == 4 {
			exp = want
		}
		if r.Count != exp {
			return fmt.Errorf("count member %d = %d, oracle %d", i, r.Count, exp)
		}
	}
	return nil
}

func (w *edits) clients() int { return 1 }

// cycle is one step: edit, scan and count after the edit, two finds of
// a shape the scan has just rebuilt, and the scan again warm. Two calls
// are cheaper than a scan and two dearer, so the median of a step falls
// among the scans.
func (w *edits) cycle(r *runner, _ int) {
	e := w.toggles[(w.step/2)%len(w.toggles)]
	batch := index.EditBatch{RequirePlanar: true}
	if w.step%2 == 0 {
		batch.Remove = [][2]int32{e}
	} else {
		batch.Add = [][2]int32{e}
	}
	w.step++
	r.do("edit", editBudget, func(op *span) error {
		var res index.EditResult
		var err error
		w.tr.call("index.apply_edits", op, func() { res, err = w.ix.ApplyEdits(batch) })
		if err != nil {
			return err
		}
		if res.Epoch != uint64(w.step) || w.ix.Graph().HasEdge(e[0], e[1]) != (len(batch.Add) == 1) {
			return fmt.Errorf("edit left epoch %d, want %d", res.Epoch, w.step)
		}
		w.editRes = append(w.editRes, res)
		return nil
	})
	g := w.ix.Graph()
	w.scanOp(r, "decide/after_edit", func(ctx context.Context) error { return w.checkScan(w.ix.Scan(ctx, w.scan)) })
	w.scanOp(r, "count/after_edit", func(ctx context.Context) error { return w.checkCount(w.ix.ScanCount(ctx, w.counts), g) })
	for j := 0; j < 2; j++ {
		h := w.finds[(2*w.step+j)%len(w.finds)]
		w.scanOp(r, "find", func(ctx context.Context) error {
			occ, err := w.ix.FindOccurrenceCtx(ctx, h)
			if err == nil && (occ == nil || !core.VerifyOccurrence(g, h, occ)) {
				err = fmt.Errorf("no verified 4-cycle found")
			}
			return err
		})
	}
	w.scanOp(r, "decide", func(ctx context.Context) error { return w.checkScan(w.ix.Scan(ctx, w.scan)) })
}

// scanOp times one Index query under a budget. Traced, the context
// carries a recorder and a cost counter, and the program's spans become
// children of the query's span.
func (w *edits) scanOp(r *runner, kind string, f func(ctx context.Context) error) {
	r.do(kind, editBudget, func(op *span) error {
		ctx, cancel := context.WithTimeout(context.Background(), editBudget)
		defer cancel()
		if w.tr == nil {
			return f(ctx)
		}
		cc := new(obs.CostCounter)
		origin := time.Now()
		rec := obs.NewRecorder(1 << 16)
		ctx = obs.WithCost(obs.WithRecorder(ctx, rec), cc)
		sp := w.tr.begin("index.query", op)
		err := f(ctx)
		end := time.Now()
		spans, _ := rec.Snapshot()
		w.tr.adopt(sp, origin, "core.", spans)
		w.tr.endAt(sp, end)
		w.costs.addCost(cc.Snapshot())
		return err
	})
}

func (w *edits) finish(out *outcome) error {
	st := w.ix.Stats()
	out.residentBytes = float64(st.MemBytes + st.GraphBytes)
	l := out.layers
	memo := w.ix.MemoStats()
	for i, m := range memo {
		if m.Class != "clustering" && m.Class != "cover" && m.Class != "pattern" {
			continue
		}
		hits, misses := float64(m.Hits-w.memo0[i].Hits), float64(m.Misses-w.memo0[i].Misses)
		l.set("index.memo_hit_ratio."+m.Class, hitRatio(hits, misses))
		if m.Class != "pattern" {
			l.set("index.memo_build_ms."+m.Class, 1e3*(m.BuildSeconds-w.memo0[i].BuildSeconds))
		}
	}
	l.set("index.queries_per_sweep", float64(st.Queries-w.st0.Queries)/max(float64(st.Sweeps-w.st0.Sweeps), 1))
	l.set("index.resident_bytes", out.residentBytes)
	var kept, rebuilt, covers float64
	for _, res := range w.editRes {
		kept += float64(res.Bands.Kept)
		rebuilt += float64(res.Bands.Rebuilt)
		covers += float64(res.PlainCovers.Rebuilt)
	}
	edits := max(float64(len(w.editRes)), 1)
	l.set("index.bands_kept_per_edit", kept/edits)
	l.set("index.bands_rebuilt_per_edit", rebuilt/edits)
	l.set("index.covers_rebuilt_per_edit", covers/edits)
	l.set("index.edit_ms", mean(out.latencies("edit")))
	l.set("index.scan_ms", mean(append(out.latencies("decide"), out.latencies("count")...)))
	if len(w.editRes) >= 4 {
		var first float64
		for _, res := range w.editRes[:4] {
			first += float64(res.Bands.Rebuilt)
		}
		l.set("exact.edit_bands_rebuilt", first)
	}
	if w.tr == nil {
		return nil
	}
	w.costs.addWork(w.tracker, w.stats)
	w.costs.finish(l)
	l.set("core.runs_per_query", float64(w.stats.Runs)/max(float64(st.Queries-w.st0.Queries), 1))
	final := w.ix.Graph()
	rp := newReplay(w.tr)
	for i, h := range w.scan {
		if i%editRelabels != 0 {
			continue
		}
		if err := rp.cover(replayInput{g: final, h: h, seed: w.cfg.seed, present: w.scanWant[i]}); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	rp.canon(w.scan)
	if err := rp.conn(final, conn.Options{Seed: w.cfg.seed, MaxRuns: editRuns}, flow.VertexConnectivity(final)); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rp.finish(l)
	return exactMiss(l, final, graph.Cycle(3), core.Options{Seed: w.cfg.seed, MaxRuns: editRuns})
}

func (w *edits) close() {}
