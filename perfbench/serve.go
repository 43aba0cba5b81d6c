package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/plutus-gpu/plutus/internal/cluster"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
	"github.com/plutus-gpu/plutus/internal/stats"
)

const (
	serveBudget  = 1500
	serveSeeds   = 8
	serveClients = 2
	// serveHits is each client's number of store-hit requests per pass.
	serveHits = 100000
)

var (
	serveBenches = []string{"stream", "bfs"}
	serveSchemes = []string{"pssm", "plutus"}
)

// serveCells boots an in-process coordinator and one plutusd worker with
// a single worker slot on loopback, and drives POST /v1/cells from two
// closed-loop clients, each on one keep-alive connection. Every pass
// first requests 32 cells nobody has asked for yet, each exactly once
// and split between the clients, then sends only store hits.
type serveCells struct {
	seed uint64
	hcfg harness.Config

	worker    *server.Server
	whs, chs  *http.Server
	co        *cluster.Coordinator
	workerURL string
	coordURL  string
	clients   []*http.Client

	// served holds each cell's bytes as first served; hits must repeat
	// them and finish checks them against a local run.
	served map[cellReq][]byte
	colds  []time.Duration
	hits   []time.Duration
}

type cellReq struct {
	bench, scheme string
	seed          uint64
}

func (c cellReq) id() string { return cellID(c.bench, c.scheme, c.seed) }

func newServeCells(seed uint64) bench {
	return &serveCells{seed: seed, served: map[cellReq][]byte{}}
}

// cellSeed is the workload seed of cell i of pass p: every pass asks for
// cells no earlier pass touched.
func (s *serveCells) cellSeed(p, i int) uint64 {
	return s.seed*1000 + uint64(p*serveSeeds+i) + 1
}

func (s *serveCells) setup(ctx context.Context, e *env) error {
	for _, name := range serveSchemes {
		if _, err := secmem.ByName(name, protectedBytes); err != nil {
			return err
		}
	}
	s.hcfg = harness.Config{MaxInstructions: serveBudget, Benchmarks: serveBenches, Parallelism: 1}
	s.worker = server.New(server.Config{
		Backend:         harness.NewRunner(s.hcfg),
		Workers:         1,
		QueueDepth:      64,
		MaxInstructions: serveBudget,
	})
	var err error
	s.whs, s.workerURL, err = listen(s.worker.Handler())
	if err != nil {
		return err
	}
	s.co = cluster.New(cluster.Config{Workers: []string{s.workerURL}, Harness: s.hcfg})
	s.chs, s.coordURL, err = listen(s.co.Handler())
	if err != nil {
		return err
	}
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	if err := s.healthy(s.workerURL); err != nil {
		return err
	}
	if err := s.healthy(s.coordURL); err != nil {
		return err
	}
	// Warm-up: one cell of each benchmark simulated, then served again,
	// on every client's connection.
	for _, c := range s.clients {
		for _, b := range serveBenches {
			warm := cellReq{b, serveSchemes[0], s.seed*1000 + 999}
			for i := 0; i < 2; i++ {
				if _, code, err := s.post(ctx, e, c, warm); err != nil || code != http.StatusOK {
					return fmt.Errorf("warm-up request: status %d, %v", code, err)
				}
			}
		}
	}
	return nil
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// healthy polls GET /healthz until it answers 200.
func (s *serveCells) healthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// post sends one POST /v1/cells and returns the body.
func (s *serveCells) post(ctx context.Context, e *env, c *http.Client, cell cellReq) ([]byte, int, error) {
	body, err := json.Marshal(cluster.CellRequest{Tenant: "perfbench", Benchmark: cell.bench, Scheme: cell.scheme, Seed: cell.seed})
	if err != nil {
		return nil, 0, err
	}
	var out []byte
	var code int
	err = e.tr.span(ctx, "http.POST /v1/cells", cell.id(), func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.coordURL+"/v1/cells", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		out, err = io.ReadAll(resp.Body)
		return err
	})
	return out, code, err
}

func (s *serveCells) pass(ctx context.Context, e *env, p int, ph *phase) {
	var cells []cellReq
	for _, b := range serveBenches {
		for _, sc := range serveSchemes {
			for i := 0; i < serveSeeds; i++ {
				cells = append(cells, cellReq{b, sc, s.cellSeed(p, i)})
			}
		}
	}
	rng := rand.New(rand.NewPCG(s.seed, uint64(p)))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	// Cold phase: each cell's first request, split between the clients.
	var mu sync.Mutex
	t0 := time.Now()
	s.clientsDo(func(ci int, c *http.Client) {
		for i := ci; i < len(cells); i += serveClients {
			cell := cells[i]
			r0 := time.Now()
			body, code, err := s.post(ctx, e, c, cell)
			d := time.Since(r0)
			ph.attempt(1)
			if err != nil || code != http.StatusOK {
				ph.fail("%s: cold request: status %d, %v", cell.id(), code, err)
				continue
			}
			var st stats.Stats
			if err := json.Unmarshal(body, &st); err != nil {
				ph.fail("%s: served body: %v", cell.id(), err)
				continue
			}
			ph.retired(st.Instructions)
			ph.result(p, &st)
			mu.Lock()
			s.served[cell] = body
			s.colds = append(s.colds, d)
			mu.Unlock()
		}
	})
	cold := time.Since(t0)
	ph.mu.Lock()
	ph.simWall += cold
	ph.mu.Unlock()

	// Hit phase: every request is for a cell already in the store.
	s.clientsDo(func(ci int, c *http.Client) {
		rng := rand.New(rand.NewPCG(s.seed, uint64(p*serveClients+ci)+1<<32))
		lats := make([]time.Duration, 0, serveHits)
		for i := 0; i < serveHits; i++ {
			cell := cells[rng.IntN(len(cells))]
			r0 := time.Now()
			body, code, err := s.post(ctx, e, c, cell)
			d := time.Since(r0)
			if err != nil || code != http.StatusOK {
				ph.attempt(1)
				ph.fail("%s: hit request: status %d, %v", cell.id(), code, err)
				continue
			}
			mu.Lock()
			want := s.served[cell]
			mu.Unlock()
			if !bytes.Equal(body, want) {
				ph.attempt(1)
				ph.fail("%s: hit bytes differ from the cell's first response", cell.id())
				continue
			}
			lats = append(lats, d)
		}
		for _, d := range lats {
			ph.op(d)
		}
		mu.Lock()
		s.hits = append(s.hits, lats...)
		mu.Unlock()
	})
}

// clientsDo runs fn once per client concurrently and waits for all.
func (s *serveCells) clientsDo(fn func(ci int, c *http.Client)) {
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			fn(ci, c)
		}(ci, c)
	}
	wg.Wait()
}

// finish checks every served cell against a local single-box run of the
// same (benchmark, scheme, seed) and collects the service counters.
func (s *serveCells) finish(ctx context.Context, e *env, ph *phase) {
	var cells []cellReq
	for c := range s.served {
		cells = append(cells, c)
	}
	local := harness.NewRunner(harness.Config{MaxInstructions: serveBudget, Benchmarks: serveBenches, Parallelism: e.nproc})
	var mu sync.Mutex
	var locals []time.Duration
	work := make(chan cellReq)
	var wg sync.WaitGroup
	for i := 0; i < e.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range work {
				sc, err := secmem.ByName(cell.scheme, protectedBytes)
				if err != nil {
					ph.fail("%s: %v", cell.id(), err)
					continue
				}
				t0 := time.Now()
				var st *stats.Stats
				err = e.tr.span(ctx, "harness.RunSeeded", cell.id(), func(context.Context) error {
					st, err = local.RunSeeded(cell.bench, sc, cell.seed)
					return err
				})
				d := time.Since(t0)
				if err != nil {
					ph.fail("%s: local run: %v", cell.id(), err)
					continue
				}
				want := ph.digest(ctx, e, cell.id(), st)
				if !bytes.Equal(s.served[cell], want) {
					ph.fail("%s: served bytes differ from a local harness.WriteRunJSON", cell.id())
				}
				mu.Lock()
				locals = append(locals, d)
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()

	var sz server.Statsz
	if err := getJSON(s.workerURL+"/debug/statsz", &sz); err != nil {
		ph.fail("worker statsz: %v", err)
	}
	n := s.co.Counters()
	ph.setLayer("server.accepted", float64(sz.Accepted))
	ph.setLayer("server.deduped", float64(sz.Deduped))
	ph.setLayer("server.rejected", float64(sz.Rejected))
	ph.setLayer("cluster.store_hits", float64(n.StoreHits))
	ph.setLayer("cluster.retries", float64(n.Retries))
	ph.setLayer("cluster.steals", float64(n.Steals))
	if sz.Cache != nil {
		ph.setLayer("harness.hit_rate", sz.Cache.HitRate)
	}
	requests := len(s.colds) + len(s.hits)
	ph.extra["cell_hit_p50_ms"] = metric{ms(percentile(s.hits, 0.50)), "ms"}
	ph.extra["cell_hit_p99_ms"] = metric{ms(percentile(s.hits, 0.99)), "ms"}
	ph.extra["cell_hit_mean_ms"] = metric{ms(mean(s.hits)), "ms"}
	ph.extra["cell_cold_n"] = metric{float64(len(s.colds)), "count"}
	ph.extra["cell_cold_p50_ms"] = metric{ms(percentile(s.colds, 0.50)), "ms"}
	ph.extra["cells_per_s"] = metric{float64(requests) / ph.wall.Seconds(), "req/s"}
	ph.extra["requests"] = metric{float64(requests), "count"}
	ph.extra["cluster.cold_overhead_ms"] = metric{ms(percentile(s.colds, 0.5) - percentile(locals, 0.5)), "ms"}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *serveCells) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if s.chs != nil {
		s.chs.Close()
	}
	if s.co != nil {
		s.co.Close()
	}
	if s.whs != nil {
		s.whs.Close()
	}
	if s.worker != nil {
		s.worker.Drain()
	}
}
