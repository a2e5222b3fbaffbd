package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"planarsi/internal/graph"
	"planarsi/internal/par"
)

// TestDecidePreCancelled: a token fired before the call returns
// par.ErrCancelled without doing work.
func TestDecidePreCancelled(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	g := graph.RandomPlanar(200, 0.6, rng)
	h := graph.Cycle(4)
	c := par.NewCanceller()
	c.Cancel()
	if _, err := Decide(g, h, Options{Seed: 1, Cancel: c}); !errors.Is(err, par.ErrCancelled) {
		t.Fatalf("pre-cancelled Decide err = %v, want ErrCancelled", err)
	}
	if _, err := FindOne(g, h, Options{Seed: 1, Cancel: c}); !errors.Is(err, par.ErrCancelled) {
		t.Fatalf("pre-cancelled FindOne err = %v, want ErrCancelled", err)
	}
	if _, err := List(g, h, Options{Seed: 1, Cancel: c}); !errors.Is(err, par.ErrCancelled) {
		t.Fatalf("pre-cancelled List err = %v, want ErrCancelled", err)
	}
	s := make([]bool, g.N())
	s[0], s[g.N()-1] = true, true
	if _, err := DecideSeparating(g, h, s, Options{Seed: 1, Cancel: c}); !errors.Is(err, par.ErrCancelled) {
		t.Fatalf("pre-cancelled DecideSeparating err = %v, want ErrCancelled", err)
	}
}

// TestDecideUnfiredTokenIdenticalAnswers: carrying a token that never
// fires must not perturb answers — the checkpoints are reads only.
func TestDecideUnfiredTokenIdenticalAnswers(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomPlanar(20+rng.IntN(60), rng.Float64(), rng)
		h := randomPattern(2+rng.IntN(4), rng.IntN(3), rng)
		want, err := Decide(g, h, Options{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decide(g, h, Options{Seed: uint64(trial), Cancel: par.NewCanceller()})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: with-token=%v without=%v", trial, got, want)
		}
	}
}

// TestCancelledRerunByteIdentical: fire the token mid-flight (from a
// concurrent goroutine), then rerun from scratch with the same Options —
// the rerun must return byte-identical results to a never-cancelled
// call. This is the cancellation-soundness contract: abandoning DPs
// mid-band must leave no trace in any shared state. The separating
// victim holds its witness to the same contract: a cancelled call
// returns ErrCancelled, never a partial or different witness. Whether a
// given delay lands before, during or after a call depends on the
// machine, so which outcome each attempt exercises is best-effort. It
// runs under each of pipelineEngines.
func TestCancelledRerunByteIdentical(t *testing.T) {
	for _, e := range pipelineEngines {
		t.Run(e.name, func(t *testing.T) { cancelledRerunByteIdentical(t, e.engine) })
	}
}

func cancelledRerunByteIdentical(t *testing.T, engine Engine) {
	rng := rand.New(rand.NewPCG(17, 19))
	g := graph.RandomPlanar(150, 0.7, rng)
	h := graph.Cycle(4)
	opt := Options{Seed: 42, Engine: engine}

	refFound, err := Decide(g, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	refOccs, err := List(g, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex is a terminal, so any 4-cycle whose removal
	// disconnects g separates.
	terminals := make([]bool, g.N())
	for v := range terminals {
		terminals[v] = true
	}
	var refSep Occurrence

	attempt := func(delay time.Duration, victim string) {
		c := par.NewCanceller()
		go func() {
			time.Sleep(delay)
			c.Cancel()
		}()
		copt := opt
		copt.Cancel = c
		var got bool
		var err error
		switch victim {
		case "decide":
			got, err = Decide(g, h, copt)
		case "list":
			var occs []Occurrence
			occs, err = List(g, h, copt)
			got = len(occs) > 0
			if err == nil && !sameOccurrences(occs, refOccs) {
				// A cancelled List must never return truncated data
				// with a nil error.
				t.Fatalf("delay %v: List returned %d occurrences with nil error, want %d", delay, len(occs), len(refOccs))
			}
		case "separating":
			var occ Occurrence
			occ, err = DecideSeparating(g, h, terminals, copt)
			got = occ != nil
			if err == nil && !slices.Equal(occ, refSep) {
				t.Fatalf("delay %v: separating witness %v with nil error, want %v", delay, occ, refSep)
			}
			again, rerr := DecideSeparating(g, h, terminals, opt)
			if rerr != nil || !slices.Equal(again, refSep) {
				t.Fatalf("delay %v: separating rerun=%v err=%v, want %v", delay, again, rerr, refSep)
			}
		}
		// Either the call finished first (answer must match) or it
		// was cancelled (error must be ErrCancelled).
		if err != nil {
			if !errors.Is(err, par.ErrCancelled) {
				t.Fatalf("delay %v %s: unexpected error %v", delay, victim, err)
			}
		} else if got != refFound {
			t.Fatalf("delay %v %s: uncancelled answer %v, want %v", delay, victim, got, refFound)
		}

		// Rerun from scratch: byte-identical to the reference.
		again, err := Decide(g, h, opt)
		if err != nil || again != refFound {
			t.Fatalf("delay %v %s: rerun=%v err=%v, want %v", delay, victim, again, err, refFound)
		}
	}
	delays := []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond}
	for _, delay := range delays {
		for _, victim := range []string{"decide", "list"} {
			attempt(delay, victim)
		}
	}
	// The separating attempts run on one worker: with more, the witness
	// is whichever band certifies first, and they compare witnesses
	// exactly.
	func() {
		par.SetParallelism(1)
		defer par.SetParallelism(0)
		refSep, err = DecideSeparating(g, h, terminals, opt)
		if err != nil || refSep == nil || !VerifySeparating(g, h, terminals, refSep) {
			t.Fatalf("reference separating witness %v (err %v) must exist and verify", refSep, err)
		}
		for _, delay := range delays {
			attempt(delay, "separating")
		}
	}()
	// One full listing rerun after all the aborted attempts: the
	// occurrence set must be byte-identical to the pristine reference.
	occs, err := List(g, h, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOccurrences(occs, refOccs) {
		t.Fatal("rerun List differs from reference after cancelled runs")
	}
}

func sameOccurrences(a, b []Occurrence) bool {
	if len(a) != len(b) {
		return false
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i], kb[i] = a[i].Key(), b[i].Key()
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
