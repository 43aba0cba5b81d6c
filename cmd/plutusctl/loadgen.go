package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/plutus-gpu/plutus/internal/castore"
	"github.com/plutus-gpu/plutus/internal/cluster"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
)

func openStore(dir string) (*castore.Store, error) {
	return castore.Open(dir)
}

// LoadgenSummary is the JSON report loadgen emits.
type LoadgenSummary struct {
	Requests       int                `json:"requests"`
	Clients        int                `json:"clients"`
	Workers        int                `json:"workers"`
	GridCells      int                `json:"grid_cells"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	ThroughputRPS  float64            `json:"throughput_rps"`
	LatencyUS      map[string]float64 `json:"latency_us"`
	Errors         int                `json:"errors"`
	VerifiedCells  int                `json:"verified_cells"`
	StoreHits      uint64             `json:"store_hits"`
}

// runLoadgen boots a 1-coordinator/N-worker cluster in this process,
// warms the full grid through a sweep, fires -requests seeded requests
// at the coordinator's /v1/cells endpoint from -clients concurrent
// clients, verifies every collected cell byte-for-byte against a local
// single-box run, and reports latency percentiles and throughput.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	requests := fs.Int("requests", 1_000_000, "total requests to fire")
	clients := fs.Int("clients", 64, "concurrent client goroutines")
	insts := fs.Uint64("insts", 1500, "warp-instruction budget per run")
	benches := fs.String("benches", "stream,bfs", "comma-separated benchmarks")
	schemes := fs.String("schemes", "pssm,plutus", "comma-separated schemes")
	nseeds := fs.Int("seeds", 4, "seeds 1..N per (benchmark, scheme)")
	seed := fs.Uint64("seed", 1, "request-mix RNG seed")
	workers := fs.Int("workers", 3, "in-process plutusd workers")
	out := fs.String("out", "", "write the JSON summary here (default stdout)")
	fs.Parse(args)

	hcfg := harness.Config{MaxInstructions: *insts, Parallelism: 2}

	// Boot the workers: real plutusd servers on loopback listeners.
	var urls []string
	for i := 0; i < *workers; i++ {
		s := server.New(server.Config{
			Backend:         harness.NewRunner(hcfg),
			Workers:         2,
			QueueDepth:      64,
			MaxInstructions: hcfg.MaxInstructions,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		defer s.Drain()
		urls = append(urls, "http://"+ln.Addr().String())
	}

	co := cluster.New(cluster.Config{Workers: urls, Harness: hcfg})
	defer co.Close()
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	chs := &http.Server{Handler: co.Handler()}
	go chs.Serve(cln)
	defer chs.Close()
	coordURL := "http://" + cln.Addr().String()
	fmt.Fprintf(os.Stderr, "loadgen: coordinator %s, %d workers\n", coordURL, *workers)

	// Warm the grid: one sweep executes every cell once (sharded across
	// the workers); the measurement phase then exercises the steady
	// serving path — coordinator store hits — like a result-consuming
	// fleet would.
	benchList := strings.Split(*benches, ",")
	schemeList := strings.Split(*schemes, ",")
	seeds := make([]uint64, *nseeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	warmStart := time.Now()
	sw, err := co.SubmitSweep("loadgen", benchList, schemeList, seeds)
	if err != nil {
		return err
	}
	if err := sw.Wait(context.Background()); err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}
	st := sw.Status()
	fmt.Fprintf(os.Stderr, "loadgen: grid warm (%d cells in %.1fs)\n", st.Total, time.Since(warmStart).Seconds())

	// Fire. Each client owns a deterministic PCG stream (seed, client
	// index) so a rerun replays the same request mix.
	type cellSpec struct {
		bench, scheme string
		seed          uint64
	}
	var grid []cellSpec
	for _, b := range benchList {
		for _, s := range schemeList {
			for _, sd := range seeds {
				grid = append(grid, cellSpec{b, s, sd})
			}
		}
	}
	perClient := *requests / *clients
	total := perClient * *clients
	latencies := make([][]int64, *clients)
	errCounts := make([]int, *clients)
	var wg sync.WaitGroup
	fireStart := time.Now()
	for ci := 0; ci < *clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(*seed, uint64(ci)))
			hc := &http.Client{}
			lats := make([]int64, 0, perClient)
			for i := 0; i < perClient; i++ {
				spec := grid[rng.IntN(len(grid))]
				body, _ := json.Marshal(cluster.CellRequest{
					Tenant: "loadgen", Benchmark: spec.bench, Scheme: spec.scheme, Seed: spec.seed,
				})
				t0 := time.Now()
				resp, err := hc.Post(coordURL+"/v1/cells", "application/json", bytes.NewReader(body))
				if err != nil {
					errCounts[ci]++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCounts[ci]++
					continue
				}
				lats = append(lats, time.Since(t0).Microseconds())
			}
			latencies[ci] = lats
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(fireStart)

	var all []int64
	var errorsTotal int
	for ci := range latencies {
		all = append(all, latencies[ci]...)
		errorsTotal += errCounts[ci]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx])
	}

	// Verify: every collected cell must be byte-identical to a local
	// single-box run of the same run-cache key.
	verified := 0
	for _, cell := range st.Cells {
		content, _, err := co.Store().Get(cell.Key)
		if err != nil {
			return fmt.Errorf("verify: store missing %s: %v", cell.Key, err)
		}
		want, err := localCell(hcfg, cell.Benchmark, cell.Scheme, cell.Seed)
		if err != nil {
			return fmt.Errorf("verify: local oracle %s: %v", cell.Key, err)
		}
		if !bytes.Equal(content, want) {
			return fmt.Errorf("verify: cell %s differs from single-box run", cell.Key)
		}
		verified++
	}

	summary := LoadgenSummary{
		Requests:       total,
		Clients:        *clients,
		Workers:        *workers,
		GridCells:      len(grid),
		ElapsedSeconds: elapsed.Seconds(),
		ThroughputRPS:  float64(len(all)) / elapsed.Seconds(),
		LatencyUS: map[string]float64{
			"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99), "max": pct(1.0),
		},
		Errors:        errorsTotal,
		VerifiedCells: verified,
		StoreHits:     co.Counters().StoreHits,
	}
	blob, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(blob)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d requests in %.1fs (%.0f rps), p50 %.0fµs p99 %.0fµs, %d cells verified\n",
		total, elapsed.Seconds(), summary.ThroughputRPS, summary.LatencyUS["p50"], summary.LatencyUS["p99"], verified)
	if errorsTotal > 0 {
		return fmt.Errorf("%d of %d requests failed", errorsTotal, total)
	}
	return nil
}

// localCell renders one cell's canonical JSON on a fresh single-box
// runner — the oracle the cluster's bytes are verified against.
func localCell(hcfg harness.Config, bench, scheme string, seed uint64) ([]byte, error) {
	r := harness.NewRunner(hcfg)
	sc, err := secmem.ByName(scheme, r.Config().ProtectedBytes)
	if err != nil {
		return nil, err
	}
	st, err := r.RunSeeded(bench, sc, seed)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := harness.WriteRunJSON(&b, st); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
