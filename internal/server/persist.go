package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// persistedJob is the on-disk record of one job, written to
// Config.StateDir as <id>.json. Finished jobs carry their settled result
// so a restarted daemon keeps serving them; unfinished jobs are recorded
// as queued and re-enqueued on boot — together with the harness's
// snapshot files this is what makes a daemon kill lossless.
type persistedJob struct {
	ID      string       `json:"id"`
	Request RunRequest   `json:"request"`
	State   State        `json:"state"`
	Error   string       `json:"error,omitempty"`
	Stats   *stats.Stats `json:"stats,omitempty"`
}

// persist writes j's current state to the state dir. Terminal states
// are written by job.settle before they become visible; this records
// the rest.
func (s *Server) persist(j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// A job that has not settled is recorded as queued: if the daemon
	// dies while it runs, the restarted daemon must run it again (the
	// checkpointed backend resumes it from its last snapshot).
	state := j.state
	if !state.Terminal() {
		state = StateQueued
	}
	s.writeRecord(j.recordLocked(state))
}

// writeRecord stores p atomically, so a kill mid-write never corrupts a
// record. No-op without a StateDir.
func (s *Server) writeRecord(p persistedJob) {
	if s.cfg.StateDir == "" {
		return
	}
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(s.cfg.StateDir, p.ID+".json")
	if err := checkpoint.WriteFileAtomic(path, blob); err != nil {
		fmt.Fprintf(os.Stderr, "plutusd: persist %s: %v\n", p.ID, err)
	}
}

// recoverState loads every persisted job from dir. Terminal jobs are
// returned settled (for result serving); the rest are returned as
// pending, to be re-enqueued. maxID is the highest numeric job id seen,
// so fresh ids never collide with recovered ones.
func recoverState(dir string, protectedBytes uint64) (settled, pending []*job, maxID int, err error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, err
	}
	var recs []persistedJob
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		blob, rerr := os.ReadFile(filepath.Join(dir, e.Name()))
		if rerr != nil {
			return nil, nil, 0, rerr
		}
		var p persistedJob
		if jerr := json.Unmarshal(blob, &p); jerr != nil {
			return nil, nil, 0, fmt.Errorf("state record %s: %w", e.Name(), jerr)
		}
		recs = append(recs, p)
	}
	// Deterministic recovery order: by id, which is also submission order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	for _, p := range recs {
		var n int
		if _, serr := fmt.Sscanf(p.ID, "run-%06d", &n); serr == nil && n > maxID {
			maxID = n
		}
		sc, serr := secmem.ByName(p.Request.Scheme, protectedBytes)
		if serr != nil {
			return nil, nil, 0, fmt.Errorf("state record %s: %w", p.ID, serr)
		}
		j := newJob(p.ID, p.Request, sc, p.Request.Key())
		switch p.State {
		case StateDone:
			j.settle(p.Stats, nil, nil)
			settled = append(settled, j)
		case StateFailed:
			j.settle(nil, errors.New(p.Error), nil)
			settled = append(settled, j)
		default:
			pending = append(pending, j)
		}
	}
	return settled, pending, maxID, nil
}
