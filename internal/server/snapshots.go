package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// maxSnapshotBytes bounds a PUT /v1/snapshots body. Scaled-config
// snapshots are a few MB; the bound only exists so a broken client
// cannot exhaust the daemon's memory.
const maxSnapshotBytes = 256 << 20

// snapshotQuery resolves the (benchmark, scheme, seed) cell named by a
// snapshot request's query string and the backend's snapshot path for
// it. It fails with a client error when the daemon has no checkpointing
// backend or the names don't resolve.
func (s *Server) snapshotQuery(r *http.Request) (path string, err error) {
	sb, ok := s.cfg.Backend.(snapshotBackend)
	if !ok || sb.Config().CheckpointEvery == 0 || sb.Config().CheckpointDir == "" {
		return "", errors.New("snapshots unavailable: daemon runs without checkpointing (-state-dir/-checkpoint-every)")
	}
	bench := r.URL.Query().Get("benchmark")
	if err := workload.Check(bench); err != nil {
		return "", err
	}
	sc, err := secmem.ByName(r.URL.Query().Get("scheme"), harness.ProtectedBytes)
	if err != nil {
		return "", err
	}
	var seed uint64
	if q := r.URL.Query().Get("seed"); q != "" {
		seed, err = strconv.ParseUint(q, 10, 64)
		if err != nil {
			return "", fmt.Errorf("bad seed %q: %v", q, err)
		}
	}
	return sb.SnapshotPathSeeded(bench, sc, seed), nil
}

// handleSnapshotGet serves the latest PLUTSNAP of one grid cell, raw.
// 404 means no snapshot exists — either the run never checkpointed or
// it completed (completion retires the file). The cluster coordinator
// polls this on heartbeat so a worker's death never loses more than one
// checkpoint cadence of progress.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	path, err := s.snapshotQuery(r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "no snapshot for this cell (run never checkpointed, or completed)"})
		return
	}
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handleSnapshotPut installs a migrated PLUTSNAP for one grid cell: the
// body is validated as a well-formed snapshot container and written
// atomically to the cell's snapshot path, so a subsequent submit of the
// same cell (the backend runs with Resume) continues from it instead of
// starting at cycle zero. This is the receiving half of checkpoint
// migration: the coordinator ships a dead or straggling worker's
// snapshot here, then resubmits the run.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	path, err := s.snapshotQuery(r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxSnapshotBytes+1))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if len(data) > maxSnapshotBytes {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: "snapshot exceeds size bound"})
		return
	}
	// Reject garbage before it can shadow a real resume: the container
	// must decode (section table, CRCs, version) even though the
	// engine-level restore happens later, inside the run.
	if _, err := checkpoint.Decode(data); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("not a valid PLUTSNAP: %v", err)})
		return
	}
	if err := checkpoint.WriteFileAtomic(path, data); err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"installed": true, "bytes": len(data)})
}
