// Package pmdag implements Section 3.3 of the paper: the parallel engine
// for the bounded-treewidth subgraph isomorphism DP.
//
// The decomposition tree is split into layered paths (Lemma 3.2, package
// treepath). Paths of one layer are independent and processed in
// parallel. A path's bottom node reads only solved children, so the
// sequential DP step (match.Result.Step) solves it outright; above it,
// the DP's sequential chain is broken by materializing the directed
// acyclic *graph of partial matches* (Section 3.3.2): one DAG vertex per
// partial match of each node on the path, and an edge from a child-node
// state to a parent-node state whenever the transition rules allow it
// (for joins, whenever some valid state of the already-solved off-path
// child makes the pair compatible).
//
// Valid partial matches are exactly the DAG vertices reachable from the
// tagged sources: the valid states of the path's bottom node and every
// partial match that marks no vertex as matched-in-a-child (C = ∅ states
// are always realizable from the trivial all-unmatched match). To make
// the reachability low-depth, shortcuts are inserted into the forest F of
// no-new-match transitions (Section 3.3.3): F is itself decomposed into
// layered paths by the same treepath decomposition, hub vertices every
// ~log₂(V) positions receive shortcut edges of exponentially increasing
// hub distance, and every vertex gets an escape edge to the
// forest-parent of its path top. Any root-to-valid path then needs
// O(k log V) hops — at most k matching edges, and O(log V) hops per
// forest segment — which the breadth-first search's round count
// certifies empirically (Lemma 3.3).
//
// State sets live on the flat match.StateSet substrate: per-level
// universes and per-node valid sets come from the engine's arena, join
// grouping uses the hash-partitioned match.JoinIndex (linear in the
// off-path child's states, one probe per on-path state), and each path
// worker returns its counts in its own slot, which the driving goroutine
// folds into the run's cost record after the layer.
package pmdag

import (
	"fmt"
	"math"
	"sync/atomic"

	"planarsi/internal/match"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/treedecomp"
	"planarsi/internal/treepath"
	"planarsi/internal/wd"
)

// Stats reports the structure of a run for the Figure 5 experiments.
type Stats struct {
	// Layers and Paths describe the Lemma 3.2 decomposition.
	Layers, Paths int
	// LongestPath is the longest decomposition-tree path (the sequential
	// chain the engine avoids).
	LongestPath int
	// DAGVertices / DAGEdges count partial-match DAG elements across all
	// paths; ForestEdges of those are no-new-match transitions, and
	// ShortcutEdges were added by the Section 3.3.3 construction.
	DAGVertices, DAGEdges, ForestEdges, ShortcutEdges int64
	// MaxHops is the largest BFS round count over all paths: the depth
	// of the reachability phase, O(k log n) per Lemma 3.3.
	MaxHops int
}

// Config tunes the engine; the zero value reproduces the paper's choices.
type Config struct {
	// ShortcutSpacing overrides the hub spacing of the Section 3.3.3
	// shortcut construction. 0 selects ceil(log2 V), the paper's
	// work-efficient choice; 1 places a hub at every forest vertex, the
	// Θ(log n)-work-overhead variant the paper warns about (kept for the
	// ablation benchmark).
	ShortcutSpacing int
}

// Run executes the parallel path-DAG engine for one problem with the
// default configuration. It produces exactly the same per-node valid
// state sets as match.Run (the tests assert this), plain mode only. tr
// records work and depth.
func Run(p *match.Problem, tr *wd.Tracker) (*match.Result, *Stats) {
	rs, stats := RunMulti([]*match.Problem{p}, Config{}, tr)
	return rs[0], stats
}

// RunMulti executes the path-DAG engine for several patterns sharing one
// target and decomposition. The layered path decomposition of the nice
// tree (LayersParallel and Decompose, the per-(G, ND) work) is built
// once, then each layer's (path, problem) pairs are processed in parallel
// by the per-path pipeline. Each pattern's per-node state sets and cost
// record are byte-identical to a solo Run; a pattern whose Cancel fires
// drops out at its next path checkpoint (partial Result, one trace
// event) without stopping its batch-mates. The returned Stats sum the
// DAG counters over all problems (MaxHops is the maximum). The counters
// are flushed once, at the end: tr's "pmdag" work is DAGEdges +
// DAGVertices, its "pmdag-bfs" rounds the BFS hops of every path, and
// each run's cost record goes to its Problem.Cost.
func RunMulti(ps []*match.Problem, cfg Config, tr *wd.Tracker) ([]*match.Result, *Stats) {
	if len(ps) == 0 {
		return nil, nil
	}
	for _, p := range ps {
		if p.Separating {
			panic("pmdag: separating mode is handled by the sequential engine")
		}
	}
	engs := match.NewEngines(ps)
	nd := ps[0].ND
	paths := treepath.Decompose(nd.Parent, treepath.LayersParallel(nd.Parent, tr))
	byLayer := paths.ByLayer()
	stats := &Stats{Layers: len(byLayer), Paths: paths.Len()}
	for q := 0; q < paths.Len(); q++ {
		stats.LongestPath = max(stats.LongestPath, len(paths.Path(q)))
	}
	var hops int64
	cancelTraced := make([]atomic.Bool, len(ps))
	for _, ids := range byLayer {
		// All paths of a layer are independent — their bottom nodes only
		// depend on strictly lower layers (Lemma 3.2) — and the problems
		// never share mutable state, so the (path, problem) grid of one
		// layer is a single flat parallel loop. Task t writes only
		// slots[t]; a skipped task leaves its slot zero.
		slots := make([]pathStats, len(ids)*len(ps))
		par.ForGrain(0, len(slots), 1, func(t int) {
			j, x := t/len(ps), t%len(ps)
			p := ps[x]
			// Cancellation checkpoint at path granularity: a fired token
			// (request gone, or a sibling band already found an
			// occurrence) abandons the problem's run. Skipped paths leave
			// nil sets, which is safe: any later path would observe the
			// same monotonic token before reading them, and callers that
			// saw Cancel fire discard the whole Result.
			if p.Cancel.Cancelled() {
				// One trace event per run marks the abandonment point;
				// every concurrently skipped path observes the same token.
				if p.Trace != nil && !cancelTraced[x].Swap(true) {
					p.Trace.Event("pmdag.cancel", -1, -1, "path-DAG engine abandoned at path checkpoint")
				}
				return
			}
			slots[t] = processPath(engs[x], paths.Path(int(ids[j])), cfg)
		})
		for t, st := range slots {
			engs[t%len(ps)].AddCost(st.cost)
			stats.DAGVertices += st.dagVertices
			stats.DAGEdges += st.dagEdges
			stats.ForestEdges += st.forestEdges
			stats.ShortcutEdges += st.shortcutEdges
			stats.MaxHops = max(stats.MaxHops, st.hops)
			hops += int64(st.hops)
		}
	}
	tr.AddPhaseRounds("pmdag-layers", int64(len(byLayer)))
	tr.AddPhaseWork("pmdag", stats.DAGEdges+stats.DAGVertices)
	tr.AddPhaseRounds("pmdag-bfs", hops)
	for x, p := range ps {
		p.Cost.Add(engs[x].Cost())
	}
	return engs, stats
}

// pathStats is one path's share of a run: its cost record, its DAG
// counts and the BFS rounds its reachability search took.
type pathStats struct {
	cost                                              obs.Cost
	dagVertices, dagEdges, forestEdges, shortcutEdges int64
	hops                                              int
}

// processPath materializes the partial-match DAG of one decomposition-tree
// path, adds shortcuts, runs the reachability BFS, and stores the valid
// sets of every node on the path into eng.Sets. In DecideOnly mode only
// the top node's set is stored, and the sets this path consumed (the
// bottom node's children and the off-path join children) plus all scratch
// universes go back to the engine's arena.
func processPath(eng *match.Result, path []int32, cfg Config) pathStats {
	p := eng.Problem()
	nd := p.ND
	L := len(path)
	// emitted counts every state emission of this path, joins the
	// join-attempt subset.
	var emitted, joins int64
	// ji is this worker's reusable signature index for join grouping.
	var ji match.JoinIndex
	// consumed collects the child nodes whose sets this path read; in
	// DecideOnly mode they are recycled once the path is done.
	var consumed []int32
	if p.DecideOnly {
		if l := nd.Left[path[0]]; l >= 0 {
			consumed = append(consumed, l)
		}
		if r := nd.Right[path[0]]; r >= 0 {
			consumed = append(consumed, r)
		}
	}
	// Universe of states per level; level 0 holds the bottom's valid set.
	// Each level is a StateSet: the dense slice numbers the DAG vertices
	// of the level and the index answers successor lookups.
	uni := make([]*match.StateSet, L)
	// abort recycles this path's private scratch and bails: nothing is
	// stored into eng.Sets, so a cancelled run leaves only nil or fully
	// solved node sets behind. The emissions made so far still count.
	abort := func() pathStats {
		for j := 0; j < L; j++ {
			if uni[j] != nil {
				eng.Recycle(uni[j])
			}
		}
		return pathStats{cost: obs.Cost{Joins: joins, Emissions: emitted}}
	}
	// The bottom node's children are solved, so the sequential DP step
	// computes its valid set outright; at a join every emission is an
	// attempted combination.
	uni[0] = eng.Step(path[0], &ji, &emitted)
	if nd.Kind[path[0]] == treedecomp.Join {
		joins = emitted
	}
	for j := 1; j < L; j++ {
		if p.Cancel.Cancelled() {
			return abort()
		}
		us := eng.Universe(path[j])
		set := eng.NewSet(len(us))
		for _, s := range us {
			set.Add(s)
		}
		uni[j] = set
	}
	offset := make([]int32, L+1)
	for j := 0; j < L; j++ {
		offset[j+1] = offset[j] + int32(uni[j].Len())
	}
	V := int(offset[L])

	// Build edges into a flat (src, dst) pair list — compressed to CSR
	// below — plus the forest next-pointer (unique no-new-match
	// successor). A flat buffer replaces the old per-source [][]int32
	// adjacency: one amortized slice instead of V headers and V append
	// chains, and the BFS then walks contiguous memory.
	pairs := make([]uint64, 0, 4*V)
	forestNext := make([]int32, V)
	for i := range forestNext {
		forestNext[i] = -1
	}
	var forestEdges int64
	addEdge := func(src, dst int32, forest bool) {
		pairs = append(pairs, uint64(src)<<32|uint64(uint32(dst)))
		if forest {
			forestNext[src] = dst
			forestEdges++
		}
	}
	for j := 1; j < L; j++ {
		if p.Cancel.Cancelled() {
			return abort()
		}
		node := path[j]
		below := path[j-1]
		lookup := func(s match.State) int32 {
			li := uni[j].IndexOf(s)
			if li < 0 {
				panic(fmt.Sprintf("pmdag: successor state missing from universe at node %d", node))
			}
			return offset[j] + int32(li)
		}
		switch nd.Kind[node] {
		case treedecomp.Introduce, treedecomp.Forget:
			for li, s := range uni[j-1].States() {
				src := offset[j-1] + int32(li)
				if nd.Kind[node] == treedecomp.Introduce {
					eng.IntroduceSuccessors(node, s, func(t match.State, newMatch bool) {
						emitted++
						addEdge(src, lookup(t), !newMatch)
					})
				} else {
					emitted++
					if t, ok := eng.ForgetSuccessor(node, s); ok {
						addEdge(src, lookup(t), true)
					}
				}
			}
		case treedecomp.Join:
			// The off-path child is the sibling of path[j-1].
			off := nd.Left[node]
			if off == below {
				off = nd.Right[node]
			}
			if p.DecideOnly {
				consumed = append(consumed, off)
			}
			ji.Build(eng.Sets[off].States())
			for li, s := range uni[j-1].States() {
				src := offset[j-1] + int32(li)
				lo, hi := ji.Bucket(&s)
				if lo == hi {
					continue
				}
				block := eng.JoinBlockMask(s.C)
				for t := lo; t < hi; t++ {
					emitted++
					joins++
					if w, ok := eng.JoinCombineBlocked(s, block, ji.At(t)); ok {
						addEdge(src, lookup(w), ji.At(t).C == 0)
					}
				}
			}
		default:
			panic("pmdag: interior path node cannot be a leaf")
		}
	}

	// Shortcut construction (Section 3.3.3) over the forest F. Transition
	// edges are the DAG-edge count the stats report; the shortcut edges
	// land in the same flat pair list.
	edges := int64(len(pairs))
	shortcuts := buildShortcuts(forestNext, func(src, dst int32) {
		pairs = append(pairs, uint64(src)<<32|uint64(uint32(dst)))
	}, cfg.ShortcutSpacing)

	// Compress the pair list to CSR: per-source counting, prefix sum,
	// scatter.
	off := make([]int32, V+1)
	for _, e := range pairs {
		off[e>>32]++
	}
	var sum int32
	for i := 0; i <= V; i++ {
		c := off[i]
		off[i] = sum
		sum += c
	}
	csr := make([]int32, len(pairs))
	fill := make([]int32, V)
	for _, e := range pairs {
		src := e >> 32
		csr[off[src]+fill[src]] = int32(uint32(e))
		fill[src]++
	}

	// Sources: bottom valid states plus every C = ∅ state anywhere.
	sources := make([]int32, 0, uni[0].Len())
	for li := 0; li < uni[0].Len(); li++ {
		sources = append(sources, offset[0]+int32(li))
	}
	for j := 1; j < L; j++ {
		for li, s := range uni[j].States() {
			if s.C == 0 {
				sources = append(sources, offset[j]+int32(li))
			}
		}
	}

	// Parallel BFS over the shortcut graph.
	if p.Cancel.Cancelled() {
		return abort()
	}
	reached := make([]atomic.Bool, V)
	frontier := make([]int32, 0, len(sources))
	for _, s := range sources {
		if reached[s].CompareAndSwap(false, true) {
			frontier = append(frontier, s)
		}
	}
	hops := 0
	for len(frontier) > 0 {
		hops++
		var next []int32
		if len(frontier) > 256 {
			nexts := make([][]int32, len(frontier))
			par.For(0, len(frontier), func(i int) {
				v := frontier[i]
				var local []int32
				for _, w := range csr[off[v]:off[v+1]] {
					if reached[w].CompareAndSwap(false, true) {
						local = append(local, w)
					}
				}
				nexts[i] = local
			})
			for _, l := range nexts {
				next = append(next, l...)
			}
		} else {
			for _, v := range frontier {
				for _, w := range csr[off[v]:off[v+1]] {
					if reached[w].CompareAndSwap(false, true) {
						next = append(next, w)
					}
				}
			}
		}
		frontier = next
	}

	// Store valid sets for the path's nodes. Level 0 is its own valid set
	// verbatim (every bottom state is a BFS source); interior levels keep
	// the reached subset of their universe. DecideOnly retains only the
	// top — the single set the parent path will consume — and recycles
	// every scratch universe plus the consumed child sets.
	for j := 0; j < L; j++ {
		if p.DecideOnly && j < L-1 {
			continue
		}
		if j == 0 {
			eng.Sets[path[0]] = uni[0]
			uni[0] = nil // stored, not scratch anymore
			continue
		}
		set := eng.NewSet(uni[j].Len())
		for li, s := range uni[j].States() {
			if reached[offset[j]+int32(li)].Load() {
				set.Add(s)
			}
		}
		eng.Sets[path[j]] = set
	}
	for j := 0; j < L; j++ {
		if uni[j] != nil {
			eng.Recycle(uni[j])
		}
	}
	for _, c := range consumed {
		eng.RecycleNode(c)
	}
	// Nodes are the path's nice nodes, States the materialized DAG
	// vertices, Bytes the universes plus the pair list and its CSR copy.
	return pathStats{
		cost: obs.Cost{
			Nodes:     int64(L),
			States:    int64(V),
			Joins:     joins,
			Emissions: emitted,
			Bytes:     int64(V)*match.StateBytes + int64(len(pairs))*12,
		},
		dagVertices:   int64(V),
		dagEdges:      edges,
		forestEdges:   forestEdges,
		shortcutEdges: shortcuts,
		hops:          hops,
	}
}

// buildShortcuts decomposes the no-new-match forest into layered paths
// (Lemma 3.2 again: forestNext is the forest's parent array, and its
// layers come from treepath's linear-time sequential sweep), places hubs
// every ~log₂(V) positions with shortcut edges of exponentially
// increasing hub distance, and adds an escape edge from every vertex to
// the forest-parent of its path's top (the paper's "shortcut from every
// vertex to the first vertex in a lower layer").
// Shortcut edges go through addEdge; the count is returned. The added
// edge count is O(V): V/log V hubs with log V shortcuts each, plus one
// escape edge per vertex.
func buildShortcuts(forestNext []int32, addEdge func(src, dst int32), spacing int) int64 {
	V := len(forestNext)
	if V == 0 {
		return 0
	}
	paths := treepath.Decompose(forestNext, treepath.LayersSequential(forestNext))
	if spacing <= 0 {
		spacing = int(math.Ceil(math.Log2(float64(V + 1))))
	}
	if spacing < 1 {
		spacing = 1
	}
	var count int64
	for q := 0; q < paths.Len(); q++ {
		fp := paths.Path(q)
		l := len(fp)
		// Hub-to-hub exponential shortcuts.
		numHubs := (l + spacing - 1) / spacing
		for h := 0; h < numHubs; h++ {
			src := fp[h*spacing]
			for step := 1; h+step < numHubs; step *= 2 {
				dst := fp[(h+step)*spacing]
				addEdge(src, dst)
				count++
			}
		}
		// Escape edges: jump past the rest of this path in one hop.
		top := fp[l-1]
		esc := forestNext[top]
		if esc >= 0 {
			for _, v := range fp {
				if v != top { // top already has the forest edge itself
					addEdge(v, esc)
					count++
				}
			}
		}
	}
	return count
}
