// Package client is the thin Go client for plutusd's v1 API, used by
// `plutussim -remote` and the cluster coordinator. It speaks the wire
// types of internal/server and adds the client-side conveniences the
// protocol deliberately leaves out: 429 retry with Retry-After, waiting
// on the SSE stream, and a submit-wait-fetch one-shot.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/plutus-gpu/plutus/internal/server"
)

// Client talks to one plutusd instance.
type Client struct {
	base  string
	hc    *http.Client
	retry backoff
}

// backoff is the capped, jittered exponential policy SubmitRetry applies
// when the daemon answers 429 (New fixes it at 100 ms doubling to 5 s).
// The server's Retry-After advice is the floor of each wait; the
// exponential term takes over when the advice stays optimistic under
// sustained saturation, and the cap keeps a long-saturated queue from
// pushing waits beyond tail-latency budgets.
type backoff struct {
	base, cap time.Duration
	// jitter perturbs a computed wait; nil spreads it ±25%, which
	// decorrelates a herd of clients all told to retry after the same
	// advice. Tests pin it.
	jitter func(time.Duration) time.Duration
}

// wait computes attempt's sleep (0-based): the larger of the server's
// advice and the exponential term, capped, then jittered.
func (b backoff) wait(attempt int, advice time.Duration) time.Duration {
	w := b.base
	for i := 0; i < attempt && w < b.cap; i++ {
		w *= 2
	}
	w = min(max(w, advice), b.cap)
	if b.jitter != nil {
		w = b.jitter(w)
	} else {
		// ±25%, full-jitter style: rand here is load-spreading, not
		// simulation state — the client is outside the determinism scope.
		w = w/2 + w/4 + time.Duration(rand.Int64N(int64(w/2)+1))
	}
	return min(w, b.cap)
}

// New returns a Client for the daemon at base (e.g. "http://127.0.0.1:8091").
func New(base string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    &http.Client{},
		retry: backoff{base: 100 * time.Millisecond, cap: 5 * time.Second},
	}
}

// BaseURL returns the daemon address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// QueueFullError reports a 429: the daemon's queue was full.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("plutusd queue full; retry after %s", e.RetryAfter)
}

// apiError decodes the server's ErrorResponse into a Go error.
func apiError(resp *http.Response, body []byte) error {
	var er server.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return fmt.Errorf("plutusd: %s (HTTP %d)", er.Error, resp.StatusCode)
	}
	return fmt.Errorf("plutusd: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Second
		var er server.ErrorResponse
		if json.Unmarshal(blob, &er) == nil && er.RetryAfterSeconds > 0 {
			retry = time.Duration(er.RetryAfterSeconds) * time.Second
		}
		return &QueueFullError{RetryAfter: retry}
	}
	if resp.StatusCode >= 400 {
		return apiError(resp, blob)
	}
	if out != nil {
		return json.Unmarshal(blob, out)
	}
	return nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Schemes lists the scheme names the daemon accepts.
func (c *Client) Schemes(ctx context.Context) ([]string, error) {
	var nl server.NameList
	if err := c.do(ctx, http.MethodGet, "/v1/schemes", nil, &nl); err != nil {
		return nil, err
	}
	return nl.Schemes, nil
}

// Benchmarks lists the workload names the daemon accepts.
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	var nl server.NameList
	if err := c.do(ctx, http.MethodGet, "/v1/benchmarks", nil, &nl); err != nil {
		return nil, err
	}
	return nl.Benchmarks, nil
}

// Statsz fetches the /debug/statsz snapshot.
func (c *Client) Statsz(ctx context.Context) (server.Statsz, error) {
	var sz server.Statsz
	err := c.do(ctx, http.MethodGet, "/debug/statsz", nil, &sz)
	return sz, err
}

// Submit enqueues one run. A full queue surfaces as *QueueFullError.
func (c *Client) Submit(ctx context.Context, req server.RunRequest) (server.RunStatus, error) {
	var st server.RunStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs", req, &st)
	return st, err
}

// Status fetches a run's current RunStatus.
func (c *Client) Status(ctx context.Context, id string) (server.RunStatus, error) {
	var st server.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &st)
	return st, err
}

// Result fetches a finished run rendered as format ("json", "csv" or
// "text"), returning the raw body bytes — byte-identical to the local
// CLI rendering of the same run.
func (c *Client) Result(ctx context.Context, id, format string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/runs/"+id+"/result?format="+format, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp, blob)
	}
	return blob, nil
}

// Events consumes the run's SSE stream, calling fn for every event
// (history first, then live) until the job settles, the stream ends, or
// ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, fn func(server.Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		return apiError(resp, blob)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("bad SSE payload %q: %w", data, err)
		}
		if fn != nil {
			fn(ev)
		}
		if ev.State.Terminal() {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// Wait blocks until the run settles and returns its final status. It
// follows the SSE stream, which always ends with the terminal event; a
// stream that breaks first is an error.
func (c *Client) Wait(ctx context.Context, id string) (server.RunStatus, error) {
	if err := c.Events(ctx, id, nil); err != nil {
		return server.RunStatus{}, err
	}
	return c.Status(ctx, id)
}

// SubmitRetry submits one run, absorbing 429 backpressure: each
// rejection waits out the larger of the daemon's Retry-After advice and
// the policy's capped exponential term (jittered so herds decorrelate),
// then resubmits. It returns on acceptance, on any non-429 error, or
// when ctx ends.
func (c *Client) SubmitRetry(ctx context.Context, req server.RunRequest) (server.RunStatus, error) {
	for attempt := 0; ; attempt++ {
		st, err := c.Submit(ctx, req)
		var full *QueueFullError
		if err == nil || !errors.As(err, &full) {
			return st, err
		}
		select {
		case <-time.After(c.retry.wait(attempt, full.RetryAfter)):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Run is the one-shot convenience: submit (riding out 429 backpressure
// through SubmitRetry's capped jittered backoff) and wait for
// completion.
func (c *Client) Run(ctx context.Context, req server.RunRequest) (server.RunStatus, error) {
	st, err := c.SubmitRetry(ctx, req)
	if err != nil {
		return st, err
	}
	return c.Wait(ctx, st.ID)
}

// ErrNoSnapshot reports that the daemon holds no PLUTSNAP for the
// requested cell — the run never checkpointed, or completed and retired
// its snapshot.
var ErrNoSnapshot = errors.New("plutusd: no snapshot for this cell")

func snapshotQuery(bench, scheme string, seed uint64) string {
	q := url.Values{}
	q.Set("benchmark", bench)
	q.Set("scheme", scheme)
	if seed != 0 {
		q.Set("seed", strconv.FormatUint(seed, 10))
	}
	return "/v1/snapshots?" + q.Encode()
}

// Snapshot fetches the daemon's latest PLUTSNAP for one grid cell.
// A missing snapshot surfaces as ErrNoSnapshot.
func (c *Client) Snapshot(ctx context.Context, bench, scheme string, seed uint64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+snapshotQuery(bench, scheme, seed), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, ErrNoSnapshot
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp, blob)
	}
	return blob, nil
}

// PutSnapshot installs a migrated PLUTSNAP on the daemon so a
// subsequent submission of the same cell resumes from it.
func (c *Client) PutSnapshot(ctx context.Context, bench, scheme string, seed uint64, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+snapshotQuery(bench, scheme, seed), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp, blob)
	}
	return nil
}

// MetricsText fetches the daemon's /metrics Prometheus exposition raw.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp, blob)
	}
	return string(blob), nil
}
