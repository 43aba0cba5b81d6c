package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/server"
)

// forgetfulWorker fakes a plutusd that restarted without -state-dir
// between accepting a run and being asked about it: every submit is
// accepted, every lookup answers 404 "unknown run id".
func forgetfulWorker(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("GET /debug/statsz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.Statsz{Workers: 1, QueueCapacity: 4})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.RunStatus{ID: "run-000001", State: server.StateQueued})
	})
	mux.HandleFunc("GET /v1/runs/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "unknown run id"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestHandlerStatusCodes: a request the coordinator refuses up front is
// 400 whatever its error text says, a cell that fails on its worker is
// 500 even when the worker's error says "unknown", and a body over
// server.MaxRequestBytes is 413 on every endpoint that decodes one.
func TestHandlerStatusCodes(t *testing.T) {
	cfg := testConfig(harness.Config{MaxInstructions: 400, Parallelism: 1}, forgetfulWorker(t))
	cfg.timing.maxAttempts = 2
	co := New(cfg)
	defer co.Close()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	huge := strings.Repeat("a", server.MaxRequestBytes)
	missing := filepath.Join(t.TempDir(), "missing.pltr")
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"empty sweep", "/v1/sweeps", `{"tenant":"t","schemes":["pssm"]}`, http.StatusBadRequest},
		{"missing trace", "/v1/cells", `{"tenant":"t","benchmark":"trace:` + missing + `","scheme":"pssm"}`, http.StatusBadRequest},
		{"worker forgot the run", "/v1/cells", `{"tenant":"t","benchmark":"bfs","scheme":"pssm"}`, http.StatusInternalServerError},
		{"oversize worker", "/v1/workers", `{"url":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{"oversize sweep", "/v1/sweeps", `{"tenant":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{"oversize cell", "/v1/cells", `{"benchmark":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct{ Error string }
			json.NewDecoder(resp.Body).Decode(&body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%.200s), want %d", resp.StatusCode, body.Error, tc.want)
			}
		})
	}
	if n := len(co.Workers()); n != 1 {
		t.Errorf("%d workers registered, want 1: the oversize registration must not land", n)
	}
}
