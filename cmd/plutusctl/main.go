// Command plutusctl operates the distributed sweep fabric: it runs the
// cluster coordinator, submits and watches sweeps, and manages workers.
//
// Usage:
//
//	plutusctl coord   -listen :8095 -workers http://w1:8091,http://w2:8091
//	plutusctl sweep   -coord http://127.0.0.1:8095 -benches bfs,stream -schemes pssm,plutus -seeds 3
//	plutusctl status  -coord http://127.0.0.1:8095 -id sweep-1
//	plutusctl workers -coord http://127.0.0.1:8095 [-add http://w3:8091]
//
// The coordinator shards each sweep's (benchmark × scheme × seed) grid
// across registered plutusd workers, collects results into a
// content-addressed store keyed by the harness run-cache key, steals
// leases from stragglers (migrating their PLUTSNAP checkpoints), and
// sheds over-quota tenants with 429 — see DESIGN.md §14. Load testing
// is perfbench's serve-cells workload (perfbench/README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/plutus-gpu/plutus/internal/castore"
	"github.com/plutus-gpu/plutus/internal/cluster"
	"github.com/plutus-gpu/plutus/internal/harness"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "coord":
		err = runCoord(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:])
	case "status":
		err = runStatus(os.Args[2:])
	case "workers":
		err = runWorkers(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "plutusctl: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plutusctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `plutusctl — cluster coordinator and sweep CLI

subcommands:
  coord    run the coordinator daemon
  sweep    submit a sweep and wait for it
  status   show one sweep's progress
  workers  list or register workers
`)
}

// runCoord serves the coordinator API. The harness flags must match the
// workers' configuration — the run-cache key (and so byte identity)
// depends on them.
func runCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	listen := fs.String("listen", ":8095", "coordinator listen address")
	workers := fs.String("workers", "", "comma-separated plutusd base URLs")
	insts := fs.Uint64("insts", harness.DefaultInstructions, "warp-instruction budget per run (must match workers)")
	ckptEvery := fs.Uint64("checkpoint-every", 0, "workers' checkpoint cadence in cycles (must match workers)")
	storeDir := fs.String("store-dir", "", "persist the content-addressed result store here")
	lease := fs.Duration("lease-timeout", 30*time.Second, "steal a cell from a worker holding it longer than this")
	inflight := fs.Int("tenant-inflight", 0, "max concurrently leased cells per tenant (0 = unlimited)")
	pending := fs.Int("tenant-pending", 0, "max admitted-but-unfinished cells per tenant; beyond it new work is shed with 429 (0 = unlimited)")
	fs.Parse(args)

	cfg := cluster.Config{
		Harness:           harness.Config{MaxInstructions: *insts, CheckpointEvery: *ckptEvery},
		LeaseTimeout:      *lease,
		TenantMaxInflight: *inflight,
		TenantMaxPending:  *pending,
	}
	if *workers != "" {
		cfg.Workers = strings.Split(*workers, ",")
	}
	if *storeDir != "" {
		store, err := castore.Open(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	co := cluster.New(cfg)
	defer co.Close()
	fmt.Fprintf(os.Stderr, "plutusctl coord listening on %s (%d workers)\n", *listen, len(cfg.Workers))
	return http.ListenAndServe(*listen, co.Handler())
}

// runSweep submits one sweep and polls it to completion.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	coord := fs.String("coord", "http://127.0.0.1:8095", "coordinator base URL")
	benches := fs.String("benches", "stream,bfs", "comma-separated benchmarks")
	schemes := fs.String("schemes", "pssm,plutus", "comma-separated schemes")
	seeds := fs.String("seeds", "0", "comma-separated seeds, or a count N meaning seeds 1..N when prefixed with 'x' (e.g. x3)")
	tenant := fs.String("tenant", "cli", "tenant name for quota accounting")
	fs.Parse(args)

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return err
	}
	req := cluster.SweepRequest{
		Tenant:     *tenant,
		Benchmarks: strings.Split(*benches, ","),
		Schemes:    strings.Split(*schemes, ","),
		Seeds:      seedList,
	}
	var st cluster.SweepStatus
	if err := postJSON(*coord+"/v1/sweeps", req, &st); err != nil {
		return err
	}
	fmt.Printf("submitted %s: %d cells\n", st.ID, st.Total)
	for {
		if err := getJSON(*coord+"/v1/sweeps/"+st.ID, &st); err != nil {
			return err
		}
		fmt.Printf("%s: %d/%d done, %d failed\n", st.ID, st.Completed+st.Failed, st.Total, st.Failed)
		if st.Done {
			break
		}
		time.Sleep(time.Second)
	}
	printSweep(st)
	if st.Failed > 0 {
		return fmt.Errorf("%d cells failed", st.Failed)
	}
	return nil
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	coord := fs.String("coord", "http://127.0.0.1:8095", "coordinator base URL")
	id := fs.String("id", "", "sweep id (required)")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("status: -id is required")
	}
	var st cluster.SweepStatus
	if err := getJSON(*coord+"/v1/sweeps/"+*id, &st); err != nil {
		return err
	}
	printSweep(st)
	return nil
}

func runWorkers(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	coord := fs.String("coord", "http://127.0.0.1:8095", "coordinator base URL")
	add := fs.String("add", "", "register this plutusd base URL before listing")
	fs.Parse(args)
	var out cluster.WorkerList
	if *add != "" {
		if err := postJSON(*coord+"/v1/workers", cluster.WorkerRequest{URL: *add}, &out); err != nil {
			return err
		}
	} else if err := getJSON(*coord+"/v1/workers", &out); err != nil {
		return err
	}
	for _, w := range out.Workers {
		state := "dead"
		if w.Alive {
			state = "alive"
		}
		fmt.Printf("%-40s %-5s inflight %d/%d, completed %d\n", w.URL, state, w.Inflight, w.Capacity, w.Completed)
	}
	return nil
}

func printSweep(st cluster.SweepStatus) {
	cells := append([]cluster.SweepCell(nil), st.Cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key })
	for _, c := range cells {
		mark := "…"
		if c.Done {
			mark = "ok"
			if c.Error != "" {
				mark = "FAIL " + c.Error
			}
		}
		digest := c.Digest
		if len(digest) > 12 {
			digest = digest[:12]
		}
		fmt.Printf("  %-48s %-12s %s\n", c.Key, digest, mark)
	}
}

func parseSeeds(s string) ([]uint64, error) {
	if n, ok := strings.CutPrefix(s, "x"); ok {
		count, err := strconv.Atoi(n)
		if err != nil || count < 1 {
			return nil, fmt.Errorf("bad seed count %q", s)
		}
		seeds := make([]uint64, count)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		return seeds, nil
	}
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

func postJSON(url string, in, out any) error {
	blob, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	return decodeJSON(resp, out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return decodeJSON(resp, out)
}

func decodeJSON(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}
