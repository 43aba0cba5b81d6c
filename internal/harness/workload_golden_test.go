package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/workload"
)

const (
	// wlGoldenSteps is how many instructions of every warp the stream
	// digest covers.
	wlGoldenSteps = 64
	// wlGoldenBudget is the capture and mgx runs' instruction budget.
	wlGoldenBudget = 1500
)

// wlGoldenSeeds are the canonical instantiation and one perturbed seed.
var wlGoldenSeeds = []uint64{0, 3}

// TestWorkloadGolden pins every registered workload's instruction
// stream and its PLTR capture across commits, which the capture/replay
// tests cannot: they compare a capture with its replay inside one
// build. One line per (workload, seed) holds the sha256 of the first
// wlGoldenSteps instructions of every warp plus the cursor after them,
// of the PLTR bytes captured under plutus, of the capture's
// WriteRunJSON, and of an mgx run's WriteRunJSON. The replay of each
// capture must reproduce its statistics. Regenerate with `go test
// ./internal/harness -run WorkloadGolden -update` only when a stream or
// the trace format changes on purpose.
func TestWorkloadGolden(t *testing.T) {
	type cell struct {
		bench string
		seed  uint64
		line  string
		err   error
	}
	var cells []*cell
	for _, bench := range workload.Names() {
		for _, seed := range wlGoldenSeeds {
			cells = append(cells, &cell{bench: bench, seed: seed})
		}
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			c.line, c.err = workloadDigests(t.TempDir(), c.bench, c.seed)
		}()
	}
	wg.Wait()
	var out strings.Builder
	for _, c := range cells {
		if c.err != nil {
			t.Fatalf("%s seed %d: %v", c.bench, c.seed, c.err)
		}
		fmt.Fprintf(&out, "%s %d %s\n", c.bench, c.seed, c.line)
	}
	path := filepath.Join("testdata", "workloads.golden")
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
		t.Errorf("workload streams differ from %s (regenerate with -update if intentional):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// workloadDigests returns one cell's four hex digests: stream, PLTR
// capture, capture stats and mgx stats.
func workloadDigests(dir, bench string, seed uint64) (string, error) {
	wl, err := workload.GetSeeded(bench, seed)
	if err != nil {
		return "", err
	}
	stream := sha256.New()
	for w := 0; w < wl.Warps(); w++ {
		for i := 0; i < wlGoldenSteps; i++ {
			inst, ok := wl.Next(w)
			if !ok {
				break
			}
			hashInst(stream, w, inst)
		}
	}
	for _, c := range wl.Cursor() {
		stream.Write(binary.LittleEndian.AppendUint64(nil, c))
	}

	cfg, err := wlGoldenConfig("plutus")
	if err != nil {
		return "", err
	}
	if wl, err = workload.GetSeeded(bench, seed); err != nil {
		return "", err
	}
	var pltr bytes.Buffer
	capture, err := trace.Capture(cfg, wl, &pltr)
	if err != nil {
		return "", fmt.Errorf("capture: %w", err)
	}
	path := filepath.Join(dir, "cap.pltr")
	if err := os.WriteFile(path, pltr.Bytes(), 0o644); err != nil {
		return "", err
	}
	replay, err := trace.OpenReplay(bench, path)
	if err != nil {
		return "", err
	}
	g, err := gpusim.New(cfg, replay)
	if err != nil {
		return "", err
	}
	if st := g.Run(); *st != *capture {
		return "", fmt.Errorf("replay diverged from its capture:\ncapture: %+v\nreplay:  %+v", *capture, *st)
	}

	if cfg, err = wlGoldenConfig("mgx"); err != nil {
		return "", err
	}
	if wl, err = workload.GetSeeded(bench, seed); err != nil {
		return "", err
	}
	if g, err = gpusim.New(cfg, wl); err != nil {
		return "", err
	}
	capJSON, err := runJSONDigest(capture)
	if err != nil {
		return "", err
	}
	mgxJSON, err := runJSONDigest(g.Run())
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x %x %s %s", stream.Sum(nil), sha256.Sum256(pltr.Bytes()), capJSON, mgxJSON), nil
}

// wlGoldenConfig is the scaled GPU under scheme with the budget every
// golden run uses.
func wlGoldenConfig(scheme string) (gpusim.Config, error) {
	sc, err := secmem.ByName(scheme, 128<<20)
	if err != nil {
		return gpusim.Config{}, err
	}
	cfg := gpusim.ScaledConfig(sc)
	cfg.MaxInstructions = wlGoldenBudget
	return cfg, nil
}

// hashInst writes one instruction of warp w to h.
func hashInst(h hash.Hash, w int, inst gpusim.Inst) {
	b := binary.LittleEndian.AppendUint32(nil, uint32(w))
	b = append(b, byte(inst.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(inst.Cycles))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(inst.Addrs)))
	for _, a := range inst.Addrs {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
	}
	h.Write(b)
}

// runJSONDigest is the hex sha256 of st's WriteRunJSON.
func runJSONDigest(st *stats.Stats) (string, error) {
	var buf bytes.Buffer
	if err := WriteRunJSON(&buf, st); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), nil
}
