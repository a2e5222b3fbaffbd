package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"planarsi/internal/graph"
	"planarsi/internal/index"
)

// EditRequest is the JSON body of POST /graphs/{name}/edges: one atomic
// batch of edge insertions and deletions against a registered host
// graph. Edges decode strictly (see Edge).
type EditRequest struct {
	Add    []Edge `json:"add,omitempty"`
	Remove []Edge `json:"remove,omitempty"`
	// RequirePlanar rejects the batch (422) if the edited graph would
	// lose planarity.
	RequirePlanar bool `json:"requirePlanar,omitempty"`
	// IfEpoch makes the batch conditional on the graph still being at
	// that edit epoch (409 otherwise) — optimistic concurrency for
	// multiple writers.
	IfEpoch *uint64 `json:"ifEpoch,omitempty"`
}

// EditResponse is the JSON body of a successful edit batch: the new
// epoch plus the per-class migration work (see index.EditResult).
type EditResponse struct {
	Graph string `json:"graph"`
	index.EditResult
}

// editStatus maps an ApplyEdits error to its HTTP status.
func editStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, index.ErrEpochConflict):
		// A concurrent editor won the race the IfEpoch condition guarded.
		return http.StatusConflict
	case errors.Is(err, graph.ErrEdit), errors.Is(err, index.ErrNonPlanarEdit):
		// The batch was well-formed JSON but unapplicable to this graph.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// handleApplyEdits serves POST /graphs/{name}/edges: it applies one edit
// batch through the registry, advancing the graph's edit epoch. Queries
// already in flight drain against the pre-edit generation; queries
// admitted after the response see the edited graph.
func (s *Server) handleApplyEdits(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req EditRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	batch := index.EditBatch{
		Add:           edgePairs(req.Add),
		Remove:        edgePairs(req.Remove),
		RequirePlanar: req.RequirePlanar,
		IfEpoch:       req.IfEpoch,
	}
	res, err := s.reg.ApplyEdits(name, batch)
	if err != nil {
		httpError(w, editStatus(err), "%v", err)
		return
	}
	// The graph changed shape, so the per-(graph, kind) breakers' failure
	// history no longer describes it: start the circuits fresh.
	s.dropBreakers(name)
	writeJSON(w, http.StatusOK, EditResponse{Graph: name, EditResult: res})
}

// edgePairs converts wire edges to the index's batch form.
func edgePairs(es []Edge) [][2]int32 {
	if len(es) == 0 {
		return nil
	}
	out := make([][2]int32, len(es))
	for i, e := range es {
		out[i] = [2]int32(e)
	}
	return out
}
