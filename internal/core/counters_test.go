package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/obs"
	"planarsi/internal/par"
	"planarsi/internal/wd"
)

// pinnedCounters is everything deterministic a pipeline call reports:
// the Stats shape, the DP cost totals and the work/depth counters.
type pinnedCounters struct {
	Runs, Bands   int
	FallbackBands int64
	MaxBandWidth  int
	Cost          obs.Cost
	Work, Rounds  int64
}

// twoHubWheel is two wheels sharing a rim of the given length: removing
// the rim separates the hubs, and no triangle does.
func twoHubWheel(rim int) (*graph.Graph, []bool) {
	b := graph.NewBuilder(rim + 2)
	hub1, hub2 := int32(rim), int32(rim+1)
	for i := 0; i < rim; i++ {
		b.AddEdge(int32(i), int32((i+1)%rim))
		b.AddEdge(int32(i), hub1)
		b.AddEdge(int32(i), hub2)
	}
	s := make([]bool, rim+2)
	s[hub1], s[hub2] = true, true
	return b.Build(), s
}

// pinnedCase is one one-pattern call of TestDeterministicCountersPinned
// with its answer and counters under the named engine.
type pinnedCase struct {
	name       string
	engine     Engine
	sequential bool // pin par.SetParallelism(1)
	run        func(Options) (string, error)
	answer     string
	want       pinnedCounters
	notes      string // band-note histogram, pinned for sequential cases
}

// pinnedCases builds the pinned calls on fixed targets. Each case names
// its engine, so no pin depends on EngineAuto's choice. Separating bands
// run the sequential engine under every Engine.
func pinnedCases() []pinnedCase {
	rng := rand.New(rand.NewPCG(71, 73))
	planar := graph.RandomPlanar(220, 0.7, rng)
	small := graph.RandomPlanar(60, 0.7, rng)
	grid := graph.Grid(12, 12)
	wheel, terminals := twoHubWheel(6)

	return []pinnedCase{
		{
			name:   "decide-miss",
			engine: EnginePathDAG,
			run: func(o Options) (string, error) {
				ok, err := Decide(grid, graph.Cycle(3), o)
				return fmt.Sprint(ok), err
			},
			answer: "false",
			want: pinnedCounters{Runs: 19, Bands: 418, MaxBandWidth: 2,
				Cost: obs.Cost{Nodes: 13109, States: 193836, Joins: 7318, Emissions: 227384, Bytes: 8606892},
				Work: 515510, Rounds: 6765},
		},
		{
			name:   "decide-miss-sequential-engine",
			engine: EngineSequential,
			run: func(o Options) (string, error) {
				ok, err := Decide(grid, graph.Cycle(5), o)
				return fmt.Sprint(ok), err
			},
			answer: "false",
			want: pinnedCounters{Runs: 19, Bands: 341, MaxBandWidth: 3,
				Cost: obs.Cost{Nodes: 21080, States: 1023000, Joins: 105840, Emissions: 1452824, Bytes: 65461088},
				Work: 1040721, Rounds: 21829},
		},
		{
			name:   "count-capped",
			engine: EnginePathDAG,
			run: func(o Options) (string, error) {
				o.MaxRuns = 3
				n, err := Count(small, graph.Path(3), o)
				return fmt.Sprint(n), err
			},
			answer: "2234",
			want: pinnedCounters{Runs: 3, Bands: 18, MaxBandWidth: 3,
				Cost: obs.Cost{Nodes: 2002, States: 95983, Joins: 20798, Emissions: 108234, Bytes: 4399988},
				Work: 211982, Rounds: 1405},
		},
		{
			name:   "separating-miss",
			engine: EngineSequential,
			run: func(o Options) (string, error) {
				occ, err := DecideSeparating(wheel, graph.Cycle(3), terminals, o)
				return fmt.Sprint(occ), err
			},
			answer: "[]",
			want: pinnedCounters{Runs: 11, Bands: 27, MaxBandWidth: 4,
				Cost: obs.Cost{Nodes: 385, States: 11766, Emissions: 14570, Bytes: 751456},
				Work: 12380, Rounds: 454},
		},
		{
			name:       "decide-hit",
			engine:     EnginePathDAG,
			sequential: true,
			run: func(o Options) (string, error) {
				o.Seed = 1 // a miss band precedes the hit
				ok, err := Decide(planar, graph.Cycle(3), o)
				return fmt.Sprint(ok), err
			},
			answer: "true",
			want: pinnedCounters{Runs: 1, Bands: 7, MaxBandWidth: 2,
				Cost: obs.Cost{Nodes: 20, States: 476, Emissions: 589, Bytes: 21988},
				Work: 2705, Rounds: 38},
			notes: "found×1 miss×1 skipped×5",
		},
		{
			name:       "find-witness",
			engine:     EnginePathDAG,
			sequential: true,
			run: func(o Options) (string, error) {
				occ, err := FindOne(planar, graph.Path(5), o)
				if occ != nil && !VerifyOccurrence(planar, graph.Path(5), occ) {
					return "", fmt.Errorf("invalid witness %v", occ)
				}
				return fmt.Sprint(occ), err
			},
			answer: "[22 5 136 67 44]",
			want: pinnedCounters{Runs: 1, Bands: 5, MaxBandWidth: 3,
				Cost: obs.Cost{Nodes: 969, States: 548990, Joins: 173267, Emissions: 649329, Bytes: 24584044},
				Work: 1073162, Rounds: 639},
			notes: "found×1 skipped×4",
		},
		{
			name:       "separating-hit",
			engine:     EngineSequential,
			sequential: true,
			run: func(o Options) (string, error) {
				occ, err := DecideSeparating(wheel, graph.Cycle(6), terminals, o)
				if occ != nil && !VerifySeparating(wheel, graph.Cycle(6), terminals, occ) {
					return "", fmt.Errorf("invalid separating witness %v", occ)
				}
				return fmt.Sprint(occ), err
			},
			answer: "[0 1 2 3 4 5]",
			want: pinnedCounters{Runs: 1, Bands: 2, MaxBandWidth: 4,
				Cost: obs.Cost{Nodes: 17, States: 24449, Emissions: 36494, Bytes: 1564608},
				Work: 24505, Rounds: 23},
			notes: "found×1 skipped×1",
		},
	}
}

// runPinned makes c's call under engine with seed 5 and returns its
// answer and counters; rec, when non-nil, records the call's spans.
func runPinned(t *testing.T, c pinnedCase, engine Engine, rec *obs.Recorder) (string, pinnedCounters) {
	t.Helper()
	var st Stats
	tr := wd.NewTracker()
	got, err := c.run(Options{Seed: 5, Engine: engine, Stats: &st, Tracker: tr, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	return got, pinnedCounters{Runs: st.Runs, Bands: st.Bands, FallbackBands: st.FallbackBands,
		MaxBandWidth: st.MaxBandWidth, Cost: st.Cost, Work: tr.Work(), Rounds: tr.Rounds()}
}

// TestDeterministicCountersPinned pins, for fixed seeds, the exact
// counters of one-pattern calls. Misses and capped counts run every band
// to completion, so their counters hold at any parallelism; hits cancel
// their sibling bands, so those cases pin band order with
// SetParallelism(1). The answers (and witnesses) are pinned alongside.
// Every band span must carry one of the single-pattern outcome notes.
func TestDeterministicCountersPinned(t *testing.T) {
	soloNotes := map[string]bool{"skipped": true, "cancelled": true, "found": true, "miss": true,
		"fallback:found": true, "fallback:miss": true}
	for _, c := range pinnedCases() {
		t.Run(c.name, func(t *testing.T) {
			if c.sequential {
				par.SetParallelism(1)
				defer par.SetParallelism(0)
			}
			rec := obs.NewRecorder(1 << 16)
			got, have := runPinned(t, c, c.engine, rec)
			if got != c.answer || have != c.want {
				t.Errorf("answer %s counters %#v\nwant   %s counters %#v", got, have, c.answer, c.want)
			}
			spans, dropped := rec.Snapshot()
			if dropped != 0 {
				t.Fatalf("recorder dropped %d spans", dropped)
			}
			hist := map[string]int{}
			bands := 0
			for _, sp := range spans {
				if sp.Name != "band" {
					continue
				}
				bands++
				hist[sp.Note]++
				if !soloNotes[sp.Note] && !strings.HasPrefix(sp.Note, "occs=") {
					t.Errorf("run %d band %d: note %q is not a single-pattern outcome", sp.Run, sp.Band, sp.Note)
				}
			}
			if bands != have.Bands {
				t.Errorf("%d band spans, Stats.Bands = %d", bands, have.Bands)
			}
			if c.sequential {
				if notes := noteHistogram(hist); notes != c.notes {
					t.Errorf("band notes %q, want %q", notes, c.notes)
				}
			}
		})
	}
}

// brentCrossover is P* of DESIGN.md's "Engine choice" table: the
// smallest power of two at or above the decide-miss crossovers ΔW/ΔD,
// past which Brent's rule projects the path-DAG engine to be faster.
const brentCrossover = 64

// TestEngineAutoFollowsBrentCrossover checks EngineAuto against the Brent
// trade it rests on. On the pinned miss and capped-count calls its
// counters are the sequential engine's, and a separating call runs the
// sequential engine under every Engine. On the 12×12 triangle miss the
// path-DAG engine's extra work per saved round, ΔW/ΔD, must lie in
// (brentCrossover/2, brentCrossover]; a change that moves it must
// revisit the table and EngineAuto's choice.
func TestEngineAutoFollowsBrentCrossover(t *testing.T) {
	separating := map[string]bool{"decide-miss": false, "count-capped": false, "separating-miss": true}
	for _, c := range pinnedCases() {
		sep, ok := separating[c.name]
		if !ok {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			ref := map[Engine]pinnedCounters{}
			for _, e := range []Engine{EngineAuto, EngineSequential, EnginePathDAG} {
				var got string
				if got, ref[e] = runPinned(t, c, e, nil); got != c.answer {
					t.Fatalf("engine %d: answer %s, want %s", e, got, c.answer)
				}
			}
			seq, dag := ref[EngineSequential], ref[EnginePathDAG]
			if ref[EngineAuto] != seq {
				t.Errorf("EngineAuto counters %#v\nwant the sequential engine's %#v", ref[EngineAuto], seq)
			}
			// Plain calls must tell the engines apart, or the check above
			// would pass unobserved; separating calls run one engine.
			if differ := seq != dag; differ == sep {
				t.Fatalf("separating=%v call: explicit engines' counters differ=%v", sep, differ)
			}
			if c.name != "decide-miss" {
				return
			}
			dW, dD := dag.Work-seq.Work, seq.Rounds-dag.Rounds
			if dD <= 0 {
				t.Fatalf("path-DAG engine saved %d rounds", dD)
			}
			if x := float64(dW) / float64(dD); x <= brentCrossover/2 || x > brentCrossover {
				t.Errorf("crossover ΔW/ΔD = %d/%d = %.1f, want it in (%d, %d]", dW, dD, x, brentCrossover/2, brentCrossover)
			}
		})
	}
}

// noteHistogram renders note counts as "note×n" in sorted note order.
func noteHistogram(hist map[string]int) string {
	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s×%d", k, hist[k])
	}
	return strings.Join(parts, " ")
}
