package trace

import (
	"fmt"
	"io"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/valmodel"
)

// Capture runs wl under cfg with an issue tap installed and streams the
// actually-issued instruction stream to out in PLTR-v2 format — not a
// round-robin approximation of the workload, but the exact per-warp
// streams the simulated schedulers pulled, including truncation by
// cfg.MaxInstructions and any behaviour differences under tamper plans.
// The run's stats are returned alongside, so a capture doubles as the
// reference result the replay must reproduce.
//
// If wl implements valmodel.Modeler (workload.Bench and Replay both
// do), its value model is embedded in the header and
// replayed values match wl bit for bit. Otherwise the trace carries
// only the instruction stream and replays with a zero model.
func Capture(cfg gpusim.Config, wl gpusim.Workload, out io.Writer) (*stats.Stats, error) {
	hdr := Header{Warps: wl.Warps()}
	if m, ok := wl.(valmodel.Modeler); ok {
		hdr.Model = m.ValueModel()
		hdr.HasModel = true
	}
	tw, err := NewWriter(out, hdr)
	if err != nil {
		return nil, err
	}
	g, err := gpusim.New(cfg, wl)
	if err != nil {
		return nil, err
	}
	g.SetIssueTap(func(warp int, inst gpusim.Inst) {
		tw.Append(RecordOf(warp, inst))
	})
	st, err := g.RunWithCheckpoints(nil)
	if err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("trace: capture %s: %w", wl.Name(), err)
	}
	return st, nil
}
