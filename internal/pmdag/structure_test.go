package pmdag

import (
	"math/rand/v2"
	"testing"

	"planarsi/internal/graph"
	"planarsi/internal/match"
)

// TestPathDAGStructurePinned pins the exact structure of the path-DAG
// engine: the layered path decomposition of the nice tree, the DAG sizes,
// the shortcut edges placed on the no-new-match forest and the BFS hop
// count, plus the emission count. Any change to either use of Lemma 3.2
// (the layer schedule, or the paths of the shortcut forest) moves at
// least one of these figures.
func TestPathDAGStructurePinned(t *testing.T) {
	targets := map[string]func() (g, h *graph.Graph){
		"path64":   func() (g, h *graph.Graph) { return graph.Path(64), graph.Path(4) },
		"path512":  func() (g, h *graph.Graph) { return graph.Path(512), graph.Path(4) },
		"path2048": func() (g, h *graph.Graph) { return graph.Path(2048), graph.Path(4) },
		"planar40": func() (g, h *graph.Graph) {
			return graph.RandomPlanar(40, 0.5, rand.New(rand.NewPCG(16, 1))), graph.Cycle(4)
		},
		"planar60": func() (g, h *graph.Graph) {
			return graph.RandomPlanar(60, 0.9, rand.New(rand.NewPCG(16, 2))), graph.Cycle(3)
		},
	}
	cases := []struct {
		target  string
		spacing int
		want    Stats
		states  int64
	}{
		{"path64", 0, Stats{1, 1, 129, 4805, 4547, 3157, 308, 8}, 6193},
		{"path64", 1, Stats{1, 1, 129, 4805, 4547, 3157, 3038, 8}, 6193},
		{"path512", 0, Stats{1, 1, 1025, 38853, 36803, 25557, 2699, 8}, 50097},
		{"path512", 1, Stats{1, 1, 1025, 38853, 36803, 25557, 30677, 8}, 50097},
		{"path2048", 0, Stats{1, 1, 4097, 155589, 147395, 102357, 11332, 8}, 200625},
		{"path2048", 1, Stats{1, 1, 4097, 155589, 147395, 102357, 139215, 8}, 200625},
		{"planar40", 0, Stats{3, 19, 14, 18133, 15927, 11915, 2232, 9}, 19304},
		{"planar40", 1, Stats{3, 19, 14, 18133, 15927, 11915, 14882, 7}, 19304},
		{"planar60", 0, Stats{3, 30, 23, 16209, 15317, 11685, 2683, 7}, 17628},
		{"planar60", 1, Stats{3, 30, 23, 16209, 15317, 11685, 17907, 5}, 17628},
	}
	for _, c := range cases {
		g, h := targets[c.target]()
		engs, st := RunMulti([]*match.Problem{problemFor(g, h)}, Config{ShortcutSpacing: c.spacing}, nil)
		eng := engs[0]
		if *st != c.want {
			t.Errorf("%s spacing %d: stats %+v, want %+v", c.target, c.spacing, *st, c.want)
		}
		if got := eng.StatesGenerated(); got != c.states {
			t.Errorf("%s spacing %d: StatesGenerated %d, want %d", c.target, c.spacing, got, c.states)
		}
		if !eng.Found() {
			t.Errorf("%s spacing %d: pattern not found", c.target, c.spacing)
		}
	}
}
