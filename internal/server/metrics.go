package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// handleMetrics renders the /debug/statsz counters in the Prometheus
// text exposition format (version 0.0.4), for any Prometheus agent
// (the cluster coordinator weighs worker placement by /debug/statsz
// instead). The output is deterministic: families in fixed order,
// per-scheme series sorted by label value.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := s.queued
	inFlight := s.inFlight
	accepted := s.accepted
	deduped := s.deduped
	rejected := s.rejected
	completed := s.completed
	failed := s.failed
	draining := s.draining
	byScheme := make(map[string]uint64, len(s.completedByScheme))
	for k, v := range s.completedByScheme {
		byScheme[k] = v
	}
	s.mu.Unlock()

	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("plutusd_queue_depth", "Jobs accepted but not yet picked up by a worker.", float64(queued))
	gauge("plutusd_queue_capacity", "Bound of the accepted-but-not-running FIFO.", float64(cap(s.queue)))
	gauge("plutusd_workers", "Worker-pool size.", float64(s.cfg.Workers))
	gauge("plutusd_inflight_runs", "Runs currently holding a worker.", float64(inFlight))
	drainingV := 0.0
	if draining {
		drainingV = 1
	}
	gauge("plutusd_draining", "1 while the daemon refuses new submissions.", drainingV)
	counter("plutusd_runs_accepted_total", "Submissions accepted into the queue.", accepted)
	counter("plutusd_runs_deduped_total", "Submissions coalesced onto an in-flight identical run.", deduped)
	counter("plutusd_runs_rejected_total", "Submissions rejected with 429 (queue full).", rejected)
	counter("plutusd_runs_completed_total", "Runs settled successfully.", completed)
	counter("plutusd_runs_failed_total", "Runs settled with an error.", failed)

	fmt.Fprintf(&b, "# HELP plutusd_scheme_runs_completed_total Runs settled successfully, by security scheme.\n")
	fmt.Fprintf(&b, "# TYPE plutusd_scheme_runs_completed_total counter\n")
	schemes := make([]string, 0, len(byScheme))
	for k := range byScheme {
		schemes = append(schemes, k)
	}
	sort.Strings(schemes)
	for _, sc := range schemes {
		fmt.Fprintf(&b, "plutusd_scheme_runs_completed_total{scheme=%q} %d\n", sc, byScheme[sc])
	}

	if mb, ok := s.cfg.Backend.(metricsBackend); ok {
		m := mb.Metrics()
		counter("plutusd_cache_lookups_total", "Run-cache lookups (one per Run, RunSeeded or RunSeededContext call).", m.Lookups)
		counter("plutusd_cache_executions_total", "Simulations actually executed (cache misses).", m.Executions)
		gauge("plutusd_cache_hit_rate", "Fraction of lookups served without a fresh simulation.", m.HitRate())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
