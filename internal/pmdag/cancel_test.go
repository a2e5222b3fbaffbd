package pmdag

import (
	"math/rand/v2"
	"testing"
	"time"

	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/par"
	"planarsi/internal/treedecomp"
)

func cancelTestProblem(t *testing.T, seed uint64) *match.Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	g := graph.RandomPlanar(300, 0.7, rng)
	td := treedecomp.Build(g, treedecomp.MinDegree)
	nd := treedecomp.MakeNice(td)
	if nd.Width+1 > match.MaxBag {
		t.Skip("decomposition too wide for the engine on this seed")
	}
	return &match.Problem{G: g, H: graph.Cycle(4), ND: nd}
}

// TestEmissionParityAcrossParEngines: with no cancellation, the
// state-emission counter (the Lemma 3.1 work measure) is deterministic
// — identical on the sequential runtime (SetParallelism(1)) and the
// default parallel one, and identical with an unfired token attached.
func TestEmissionParityAcrossParEngines(t *testing.T) {
	p := cancelTestProblem(t, 31)

	engPar, _ := Run(p, nil)

	par.SetParallelism(1)
	engSeq, _ := Run(p, nil)
	par.SetParallelism(0)

	pt := *p
	pt.Cancel = par.NewCanceller() // never fired
	engTok, _ := Run(&pt, nil)

	if a, b := engPar.Cost().Emissions, engSeq.Cost().Emissions; a != b {
		t.Fatalf("emission parity broken across parallelism: default=%d sequential=%d", a, b)
	}
	if a, b := engPar.Cost().Emissions, engTok.Cost().Emissions; a != b {
		t.Fatalf("unfired token changed emissions: %d vs %d", a, b)
	}
	if engPar.Found() != engSeq.Found() || engPar.Found() != engTok.Found() {
		t.Fatal("runs disagree on Found")
	}
}

// TestCancelledRunRerunIdentical: abandoning a pmdag run mid-flight and
// rerunning the same problem fresh must reproduce the reference
// per-node sets exactly (the arena and shared transition caches carry
// no state across runs).
func TestCancelledRunRerunIdentical(t *testing.T) {
	p := cancelTestProblem(t, 37)
	ref, _ := Run(p, nil)

	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond} {
		c := par.NewCanceller()
		go func(d time.Duration) {
			time.Sleep(d)
			c.Cancel()
		}(delay)
		pc := *p
		pc.Cancel = c
		Run(&pc, nil) // result intentionally discarded: the token may have fired mid-run

		again, _ := Run(p, nil)
		if again.Cost().Emissions != ref.Cost().Emissions {
			t.Fatalf("delay %v: rerun emissions %d, want %d", delay, again.Cost().Emissions, ref.Cost().Emissions)
		}
		for i := range ref.Sets {
			if ref.Sets[i].Len() != again.Sets[i].Len() {
				t.Fatalf("delay %v: node %d set size %d, want %d", delay, i, again.Sets[i].Len(), ref.Sets[i].Len())
			}
			for _, s := range ref.Sets[i].States() {
				if !again.Sets[i].Contains(s) {
					t.Fatalf("delay %v: node %d missing state after rerun", delay, i)
				}
			}
		}
	}
}
