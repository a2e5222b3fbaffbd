package index

// Persistence: an Index's memoized artifact tables can be written to a
// versioned binary snapshot (internal/snap) and restored behind the
// same memoization keys, so a process restart warm-boots from disk
// instead of re-paying the target-side preprocessing.
//
// What is snapshotted: the target graph, the pipeline configuration
// (Seed, Engine, MaxRuns, Heuristic, Beta, PaperLoop), the lifetime
// query and sweep counters, the edit epoch, and every *completed*
// memoized cover — plain prepared covers by (k, d, run), separating
// covers by (k, d, run, terminal mask) — together with their accounted
// byte footprints, carried verbatim so a restored Index reports
// byte-identical Stats.
//
// What is not: artifacts still under construction when Save runs
// (their build has not completed; the restored Index rebuilds them
// on demand, bit-identically, from the derived (Seed, stream, run)
// randomness), covers past core.CoverRuns (never memoized, see
// Prepared), and the cached planar embedding (recomputed lazily).

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"planarsi/internal/snap"
)

// Snapshot captures the Index's completed memoized artifacts as a
// serializable snapshot. Artifacts under construction are skipped (a
// restored Index rebuilds them bit-identically on demand), so Snapshot
// is safe to call concurrently with queries — "mid-churn" saves are
// first-class. Artifact lists are sorted by key, so equal cache
// contents always serialize to identical bytes.
func (ix *Index) Snapshot() *snap.Snapshot {
	gen := ix.acquire()
	defer ix.release(gen)
	s := &snap.Snapshot{
		Options: ix.opt.Config(),
		Queries: ix.queries.Load(),
		Sweeps:  ix.sweeps.Load(),
		Epoch:   gen.epoch,
		Graph:   gen.g,
	}
	gen.completed(func(e memoEntry) {
		ca := snap.CoverArtifact{K: e.key.k, D: e.key.d, Run: e.key.run, Bytes: e.bytes, Mask: e.key.mask, PC: e.val}
		if e.key.sep {
			s.Sep = append(s.Sep, ca)
		} else {
			s.Plain = append(s.Plain, ca)
		}
	})
	sortCovers(s.Plain)
	sortCovers(s.Sep)
	return s
}

// sortCovers orders cover artifacts by key.
func sortCovers(cs []snap.CoverArtifact) {
	slices.SortFunc(cs, func(a, b snap.CoverArtifact) int {
		if c := cmp.Compare(a.K, b.K); c != 0 {
			return c
		}
		if c := cmp.Compare(a.D, b.D); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Run, b.Run); c != 0 {
			return c
		}
		return strings.Compare(a.Mask, b.Mask)
	})
}

// Save writes the Index's snapshot to w (see Snapshot for what is and
// is not captured). The written artifacts are immutable, so Save may
// run concurrently with queries; queries finishing new artifacts during
// the write land in the next Save.
func (ix *Index) Save(w io.Writer) error {
	return snap.Write(w, ix.Snapshot())
}

// FromSnapshot reconstructs an Index from a decoded snapshot: the
// restored artifacts are installed behind the same memoization keys as
// completed entries, so the first query for a restored (k, d, run) is
// served from cache exactly as on the Index that saved it. Because
// per-run randomness is derived purely from (Seed, stream, run), a
// restored Index answers byte-identically to a freshly built Index with
// the same Options — restoring only moves preprocessing cost, never
// answers.
func FromSnapshot(s *snap.Snapshot) (*Index, error) {
	ix := New(s.Graph, s.Options)
	ix.queries.Store(s.Queries)
	ix.sweeps.Store(s.Sweeps)
	// The generation is unpublished beyond this constructor; its epoch
	// resumes the saved mutation history.
	gen := ix.cur.Load()
	gen.epoch = s.Epoch
	for _, ca := range s.Plain {
		if !gen.plain.put(coverKey{k: ca.K, d: ca.D, run: ca.Run}, ca.PC, ca.Bytes) {
			return nil, fmt.Errorf("%w: duplicate plain cover key (k=%d d=%d run=%d)", snap.ErrFormat, ca.K, ca.D, ca.Run)
		}
	}
	for _, ca := range s.Sep {
		if !gen.sep.put(coverKey{k: ca.K, d: ca.D, run: ca.Run, sep: true, mask: ca.Mask}, ca.PC, ca.Bytes) {
			return nil, fmt.Errorf("%w: duplicate separating cover key (k=%d d=%d run=%d)", snap.ErrFormat, ca.K, ca.D, ca.Run)
		}
	}
	return ix, nil
}

// Load reads a snapshot written by Save and reconstructs the Index (see
// FromSnapshot). The reader is treated as untrusted: malformed input
// fails with an error wrapping snap.ErrFormat, never a panic.
func Load(r io.Reader) (*Index, error) {
	s, err := snap.Read(r)
	if err != nil {
		return nil, err
	}
	return FromSnapshot(s)
}
