package index

// Live-graph mutation: ApplyEdits applies a batch of edge insertions and
// deletions to the Index's target, advancing it to a new generation
// (epoch + 1) whose artifact tables are migrated copy-on-write from the
// old one.
//
// Migration is surgical but answer-preserving. For every completed memo
// entry the cheap geometry is recomputed on the edited graph — the
// clustering is a pure function of (Seed, stream, run) and O(n) to
// rebuild, cover band-cutting is one BFS per cluster — and diffed
// against the old generation. The expensive artifacts (the nice tree
// decompositions of the bands) are reused exactly when their band is
// bit-identical to its predecessor, rebuilt otherwise. An entry whose
// every part survived keeps its old pointer outright, so its snapshot
// bytes are verbatim those of the previous generation. Because reuse
// requires bit-identity and every rebuild follows the fresh-build code
// path, the migrated generation is indistinguishable from an Index built
// from scratch on the edited graph: same artifacts, same answers, same
// snapshot bytes.
//
// In-flight queries are never disturbed: they pinned the old generation
// and drain against it (see generation.go); the swap only decides what
// later queries see.

import (
	"errors"
	"fmt"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/planarity"
)

// ErrEpochConflict is returned by ApplyEdits when the batch named an
// IfEpoch that is no longer the Index's current epoch — a concurrent
// editor won the race. The serving layer maps it to HTTP 409.
var ErrEpochConflict = errors.New("index: epoch conflict")

// ErrNonPlanarEdit is returned by ApplyEdits when RequirePlanar is set
// and the edited graph would not be planar. The Index is left unchanged.
var ErrNonPlanarEdit = errors.New("index: edit batch would make the target non-planar")

// EditBatch is one atomic set of edge edits. Removals are applied before
// additions (an edge may be removed and re-added in one batch);
// validation is all-or-nothing — any invalid edit rejects the whole
// batch with an error wrapping graph.ErrEdit and the Index unchanged.
type EditBatch struct {
	// Add and Remove list undirected edges as (u, v) vertex-id pairs
	// over the target's fixed vertex set.
	Add    [][2]int32 `json:"add,omitempty"`
	Remove [][2]int32 `json:"remove,omitempty"`
	// RequirePlanar rejects the batch (ErrNonPlanarEdit) if the edited
	// graph would lose planarity — the Theorem 2.4 work guarantee only
	// holds for planar targets.
	RequirePlanar bool `json:"requirePlanar,omitempty"`
	// IfEpoch, when non-nil, makes the batch conditional: it applies
	// only if the Index is still at that epoch (optimistic concurrency
	// for multiple writers; ErrEpochConflict otherwise).
	IfEpoch *uint64 `json:"ifEpoch,omitempty"`
}

// ClassDelta reports, for one artifact class, how many migrated entries
// were kept verbatim vs rebuilt by an edit batch.
type ClassDelta struct {
	Kept    int `json:"kept"`
	Rebuilt int `json:"rebuilt"`
}

// EditResult describes one applied batch: the new epoch and the
// per-class migration work. Bands counts individual band decompositions
// across all migrated covers — the unit the "surgical invalidation"
// claim is measured in: Bands.Rebuilt stays proportional to the
// edit's locality, not to the target size.
type EditResult struct {
	// Epoch is the Index's epoch after the batch (previous epoch + 1).
	Epoch uint64 `json:"epoch"`
	// Added and Removed count the applied edits.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// PlainCovers and SeparatingCovers describe migrated memo entries;
	// Bands describes band decompositions within the migrated covers.
	PlainCovers      ClassDelta `json:"plainCovers"`
	SeparatingCovers ClassDelta `json:"separatingCovers"`
	Bands            ClassDelta `json:"bands"`
}

// ApplyEdits applies one batch of edge edits, advancing the Index to a
// new epoch. On success later queries run against the edited graph with
// every unaffected artifact retained; queries already in flight finish
// against the pre-edit generation. On any error the Index is unchanged:
// a batch failing validation wraps graph.ErrEdit, a stale IfEpoch wraps
// ErrEpochConflict, a planarity-violating batch under RequirePlanar
// returns ErrNonPlanarEdit.
//
// Concurrent ApplyEdits calls serialize; concurrent queries, Save and
// Stats need no coordination (they pin whichever generation is current
// when they start). Post-edit answers are byte-identical to those of a
// fresh Index built on the edited graph with the same Options.
func (ix *Index) ApplyEdits(b EditBatch) (EditResult, error) {
	ix.editMu.Lock()
	defer ix.editMu.Unlock()

	old := ix.cur.Load()
	if b.IfEpoch != nil && *b.IfEpoch != old.epoch {
		return EditResult{Epoch: old.epoch}, fmt.Errorf(
			"%w: batch conditioned on epoch %d, index at %d", ErrEpochConflict, *b.IfEpoch, old.epoch)
	}
	g2, err := old.g.WithEdits(b.Add, b.Remove)
	if err != nil {
		return EditResult{Epoch: old.epoch}, err
	}
	if b.RequirePlanar && !planarity.IsPlanar(g2) {
		return EditResult{Epoch: old.epoch}, ErrNonPlanarEdit
	}

	t0 := time.Now()
	next := ix.newGeneration(old.epoch+1, g2)
	res := EditResult{Epoch: next.epoch, Added: len(b.Add), Removed: len(b.Remove)}
	ix.migrate(old, next, &res)
	ix.memo[memoEpoch].buildNanos.Add(time.Since(t0).Nanoseconds())

	ix.cur.Store(next)
	ix.retire(old)
	return res, nil
}

// migrate carries every completed memo entry of old into next, keeping
// it verbatim when the edit did not touch it and rebuilding it through
// the fresh-build code path otherwise. Entries still under construction
// are skipped, exactly as Snapshot skips them: their builders publish
// into the old generation, and a later query against next rebuilds them
// on demand, bit-identically. next is unpublished and editMu serializes
// us, so filling its tables races nothing.
func (ix *Index) migrate(old, next *generation, res *EditResult) {
	refresh := func(key coverKey, pc *core.PreparedCover) (*core.PreparedCover, bool) {
		pc2, kept, rebuilt := next.prepare(key, pc)
		res.Bands.Kept += kept
		res.Bands.Rebuilt += rebuilt
		// Every band reused, none appeared or disappeared, and the BFS
		// depth proxy unchanged: pc2 references pc's band pointers
		// throughout, so the two are bit-identical.
		survived := rebuilt == 0 && len(pc2.Bands) == len(pc.Bands) && pc2.BFSRounds == pc.BFSRounds
		return pc2, survived
	}
	res.PlainCovers = next.plain.carry(old.plain, refresh)
	res.SeparatingCovers = next.sep.carry(old.sep, refresh)

	for c, d := range [numInvalClasses]ClassDelta{
		invalCover:      res.PlainCovers,
		invalSeparating: res.SeparatingCovers,
		invalBand:       res.Bands,
	} {
		ix.inval[c].retained.Add(uint64(d.Kept))
		ix.inval[c].invalidated.Add(uint64(d.Rebuilt))
	}
}
