package serve

// Snapshot-directory management for the daemon: SaveSnapshots writes
// one snapshot file per registered graph into Options.SnapshotDir
// (atomically, via temp file + rename), RestoreSnapshots registers
// every *.snap found there at boot, and POST /snapshot triggers an
// on-demand checkpoint. Together with planarsid's graceful-shutdown
// save, this converts daemon restarts into warm boots: pinned graphs
// come back with their preprocessing caches already populated.

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"planarsi/internal/fault"
)

// ErrNoSnapshotDir reports a snapshot operation on a server configured
// without a snapshot directory.
var ErrNoSnapshotDir = errors.New("serve: no snapshot directory configured")

// SnapshotInfo describes one snapshot file written or restored.
type SnapshotInfo struct {
	// Name is the graph's registry name.
	Name string `json:"name"`
	// File is the snapshot's path on disk.
	File string `json:"file"`
	// FileBytes is the size of the snapshot file.
	FileBytes int64 `json:"fileBytes"`
	// N and M describe the snapshotted host graph.
	N int `json:"n"`
	M int `json:"m"`
	// Covers counts the cached covers carried by the snapshot (plain +
	// separating).
	Covers int `json:"covers"`
}

// snapshotFile maps a registry name to its file inside dir. Names pass
// through url.PathEscape so arbitrary registry names (including ones
// with separators) produce exactly one flat, collision-free file each;
// the rare escaped name that still matches a path special-case is
// refused.
func snapshotFile(dir, name string) (string, error) {
	esc := url.PathEscape(name)
	if esc == "" || esc == "." || esc == ".." {
		return "", fmt.Errorf("serve: graph name %q cannot name a snapshot file", name)
	}
	return filepath.Join(dir, esc+".snap"), nil
}

// SaveSnapshots checkpoints every registered graph to the snapshot
// directory, one file per graph, each written to a temp file and
// renamed into place so a crash mid-save never corrupts a previous
// snapshot. The directory is reconciled against the registry: *.snap
// files whose graph is no longer registered (removed via the API, or
// dropped by stage-2 eviction) are pruned, so a later warm boot cannot
// resurrect a graph the daemon let go. Per-graph failures don't abort
// the sweep; they are joined into the returned error alongside the
// successfully written files.
func (s *Server) SaveSnapshots() ([]SnapshotInfo, error) {
	dir := s.opt.SnapshotDir
	if dir == "" {
		return nil, ErrNoSnapshotDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := s.reg.Names()
	sort.Strings(names)
	var infos []SnapshotInfo
	var errs []error
	// current maps every *registered* graph's file name, whether or not
	// its save succeeded — a transient save failure must not get the
	// previous good snapshot pruned.
	current := make(map[string]bool, len(names))
	for _, name := range names {
		if path, err := snapshotFile(dir, name); err == nil {
			current[filepath.Base(path)] = true
		}
		info, err := s.saveOne(dir, name)
		if err != nil {
			errs = append(errs, fmt.Errorf("snapshot %q: %w", name, err))
			continue
		}
		infos = append(infos, info)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, "*.snap")); err == nil {
		for _, path := range stale {
			if !current[filepath.Base(path)] {
				if err := os.Remove(path); err != nil {
					errs = append(errs, fmt.Errorf("prune %s: %w", path, err))
				}
			}
		}
	}
	return infos, errors.Join(errs...)
}

// removeSnapshotFile deletes a graph's snapshot file, if persistence is
// configured — called when a graph is explicitly removed, so the next
// boot does not resurrect it. Best-effort: a missing file is fine, and
// the reconciliation sweep in SaveSnapshots backstops other failures.
func (s *Server) removeSnapshotFile(name string) {
	if s.opt.SnapshotDir == "" {
		return
	}
	if path, err := snapshotFile(s.opt.SnapshotDir, name); err == nil {
		_ = os.Remove(path)
	}
}

func (s *Server) saveOne(dir, name string) (SnapshotInfo, error) {
	if err := fault.Err(fault.SnapshotWrite); err != nil {
		return SnapshotInfo{}, err
	}
	path, err := snapshotFile(dir, name)
	if err != nil {
		return SnapshotInfo{}, err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-snap-*")
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer os.Remove(tmp.Name())
	if err := s.reg.WriteSnapshot(tmp, name); err != nil {
		tmp.Close()
		return SnapshotInfo{}, err
	}
	// The rename-into-place pattern only survives crashes if the data is
	// on disk before the rename and the directory entry after it: fsync
	// the temp file, rename, then fsync the directory. Without the first
	// a power loss can leave a complete-looking file of zeros under the
	// final name; without the second the rename itself may not be
	// durable.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return SnapshotInfo{}, err
	}
	if err := tmp.Close(); err != nil {
		return SnapshotInfo{}, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return SnapshotInfo{}, err
	}
	if err := syncDir(dir); err != nil {
		return SnapshotInfo{}, err
	}
	return s.snapshotInfo(name, path)
}

// syncDir fsyncs a directory, making a just-renamed file's directory
// entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (s *Server) snapshotInfo(name, path string) (SnapshotInfo, error) {
	info := SnapshotInfo{Name: name, File: path}
	if fi, err := os.Stat(path); err == nil {
		info.FileBytes = fi.Size()
	}
	e := s.reg.Acquire(name)
	if e == nil {
		return info, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	defer s.reg.Release(e)
	info.N = e.Graph().N()
	info.M = e.Graph().M()
	st := e.Index().Stats()
	info.Covers = st.PlainCovers + st.SeparatingCovers
	return info, nil
}

// RestoreSnapshots registers every *.snap file in the snapshot
// directory, returning one SnapshotInfo per restored graph. A missing
// directory is a cold boot, not an error. Corrupt or incompatible files
// are skipped (joined into the returned error) rather than failing the
// boot: a damaged snapshot must never take the daemon down, it only
// costs that graph its warm start.
func (s *Server) RestoreSnapshots() ([]SnapshotInfo, error) {
	dir := s.opt.SnapshotDir
	if dir == "" {
		return nil, ErrNoSnapshotDir
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return nil, err
	}
	slices.Sort(paths)
	var infos []SnapshotInfo
	var errs []error
	for _, path := range paths {
		e, err := s.restoreOne(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("restore %s: %w", path, err))
			continue
		}
		info, err := s.snapshotInfo(e.Name(), path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		infos = append(infos, info)
	}
	return infos, errors.Join(errs...)
}

func (s *Server) restoreOne(path string) (*Entry, error) {
	if err := fault.Err(fault.SnapshotRead); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return s.reg.RestoreSnapshot(f, s.opt.MaxGraphVertices)
}

// SnapshotResponse is the JSON body of POST /snapshot. On partial
// failure Graphs still lists the files that were written and Error
// carries the joined per-graph failures, so an orchestrator can tell a
// degraded checkpoint from a wholly failed one.
type SnapshotResponse struct {
	Dir    string         `json:"dir"`
	Graphs []SnapshotInfo `json:"graphs"`
	Error  string         `json:"error,omitempty"`
}

// handleSnapshot serves POST /snapshot: an on-demand checkpoint of
// every registered graph. Registered only when a snapshot directory is
// configured.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	infos, err := s.SaveSnapshots()
	resp := SnapshotResponse{Dir: s.opt.SnapshotDir, Graphs: infos}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, resp)
}
