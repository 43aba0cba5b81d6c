package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/tamper"
	"github.com/plutus-gpu/plutus/internal/workload"
)

const (
	snapGoldenBudget  = 2000
	snapGoldenCadence = 10
)

// snapGoldenPlan attacks with every kind; each scheme runs the subset it
// has DRAM-resident targets for.
const snapGoldenPlan = `seed 11
at cycle=10 attack=bitflip range=0x0:0x100000 count=3
at cycle=30 attack=wordflip range=0x0:0x100000 count=3
at cycle=50 attack=sectorflip range=0x0:0x100000 count=3
at cycle=70 attack=splice range=0x0:0x100000 count=3
at cycle=90 attack=mac-corrupt range=0x0:0x100000 count=3
at cycle=110 attack=ctr-rollback range=0x0:0x100000 count=3
at cycle=130 attack=bmt-corrupt range=0x0:0x100000 count=3
`

// TestSnapshotGolden pins PLUTSNAP bytes across commits, which the
// resume tests cannot: they compare snapshots one build produced. One
// line per (scheme, benchmark, benign|attacked) cell holds the sha256 of
// every snapshot the run takes, followed by every snapshot of a run
// resumed from its middle one. Regenerate with `go test -run
// SnapshotGolden -update ./internal/harness/` only when the format
// changes on purpose (and checkpoint.Version with it).
func TestSnapshotGolden(t *testing.T) {
	plan, err := tamper.Parse(snapGoldenPlan)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		sc    secmem.Config
		bench string
		plan  *tamper.Plan
		line  string
		err   error
	}
	var cells []*cell
	for _, name := range secmem.Names() {
		sc, err := secmem.ByName(name, 128<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range statsGoldenBenches {
			cells = append(cells, &cell{sc: sc, bench: bench}, &cell{sc: sc, bench: bench, plan: plan.FilterFor(sc)})
		}
	}
	// The cells are independent; run them on every core.
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			mode := "benign"
			if c.plan != nil {
				mode = "attacked"
			}
			var n int
			var sum []byte
			n, sum, c.err = snapshotDigest(c.bench, c.sc, c.plan)
			c.line = fmt.Sprintf("%s %s %s %d %x\n", c.sc.Scheme, c.bench, mode, n, sum)
		}()
	}
	wg.Wait()
	var out strings.Builder
	for _, c := range cells {
		if c.err != nil {
			t.Fatalf("%s/%s: %v", c.bench, c.sc.Scheme, c.err)
		}
		out.WriteString(c.line)
	}
	path := filepath.Join("testdata", "snapshots.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("snapshot bytes differ from %s (regenerate with -update if intentional):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// snapshotDigest runs one cell with a snapshot every snapGoldenCadence
// cycles, resumes a second GPU from the middle snapshot (the earlier of
// two) and runs it to the end, and returns how many snapshots the two
// runs took and the sha256 over all of them, length-prefixed, in order.
func snapshotDigest(bench string, sc secmem.Config, plan *tamper.Plan) (int, []byte, error) {
	// A smaller GPU than the figures use keeps the pin cheap; every codec
	// path still runs.
	cfg := gpusim.ScaledConfig(sc)
	cfg.SMs, cfg.Partitions = 8, 4
	cfg.MaxInstructions = snapGoldenBudget
	cfg.CheckpointEvery = snapGoldenCadence
	var ops []gpusim.TamperOp
	if plan != nil {
		il, err := geom.NewInterleaver(cfg.Partitions)
		if err != nil {
			return 0, nil, err
		}
		if ops, err = plan.Expand(il, cfg.Sec.ProtectedBytes*uint64(cfg.Partitions)); err != nil {
			return 0, nil, err
		}
	}
	run := func(g *gpusim.GPU) ([][]byte, error) {
		if ops != nil {
			g.ArmTamper(ops)
		}
		var snaps [][]byte
		_, err := g.RunWithCheckpoints(func(_ uint64, data []byte) error {
			snaps = append(snaps, data)
			return nil
		})
		return snaps, err
	}
	wl, err := workload.Get(bench)
	if err != nil {
		return 0, nil, err
	}
	g, err := gpusim.New(cfg, wl)
	if err != nil {
		return 0, nil, err
	}
	snaps, err := run(g)
	if err != nil {
		return 0, nil, err
	}
	if len(snaps) == 0 {
		return 0, nil, fmt.Errorf("run took no snapshots")
	}
	if wl, err = workload.Get(bench); err != nil {
		return 0, nil, err
	}
	resumed, err := gpusim.ResumeSnapshot(cfg, wl, snaps[(len(snaps)-1)/2])
	if err != nil {
		return 0, nil, fmt.Errorf("resume: %w", err)
	}
	more, err := run(resumed)
	if err != nil {
		return 0, nil, fmt.Errorf("resumed run: %w", err)
	}
	if len(more) == 0 {
		return 0, nil, fmt.Errorf("resumed run took no snapshots; the pin would not cover a restored state")
	}
	snaps = append(snaps, more...)
	h := sha256.New()
	for _, s := range snaps {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(s))))
		h.Write(s)
	}
	return len(snaps), h.Sum(nil), nil
}
