// Package client is the typed Go client for the fsmemd daemon. The
// API tests and cmd/fsload drive the server exclusively through it, so
// the wire contract is exercised end to end.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsmem/internal/server"
	"fsmem/internal/trace"
)

// APIError is a non-2xx response decoded from the server's error
// envelope.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	// RetryAfter is the server's backoff hint (429/503 responses carry
	// one computed from queue depth or the rate limiter), 0 if absent.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("fsmemd: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// RetryPolicy configures automatic resubmission on transient failures:
// connection errors (the daemon is restarting) and 429/503 backpressure
// responses. Retrying a submit is always safe — job IDs are
// content-addressed, so a resubmission that races a surviving first
// attempt joins the same job (singleflight) instead of duplicating
// work.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, including
	// the first (<= 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (0 = 100ms); attempt k
	// waits about BaseDelay * 2^(k-1), half-jittered.
	BaseDelay time.Duration
	// MaxDelay caps one backoff step (0 = 5s). A server Retry-After
	// hint overrides the computed delay when it is longer, and is
	// itself capped at 2*MaxDelay.
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for tests (0 = 1).
	Seed uint64
}

func (p RetryPolicy) fill() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Client talks to one fsmemd instance.
type Client struct {
	base string
	hc   *http.Client

	retry RetryPolicy

	jitterMu sync.Mutex
	jitter   *trace.RNG

	retries   atomic.Int64
	retryWait atomic.Int64 // nanoseconds spent backing off
}

// New builds a client for a base URL like "http://127.0.0.1:8377".
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// EnableRetry turns on automatic retry with exponential backoff and
// jitter for every non-streaming request.
func (c *Client) EnableRetry(p RetryPolicy) {
	c.retry = p.fill()
	c.jitter = trace.NewRNG(c.retry.Seed)
}

// RetryStats reports how many requests were retried and the total time
// spent waiting between attempts (cmd/fsload surfaces both in its
// report).
func (c *Client) RetryStats() (retries int64, waited time.Duration) {
	return c.retries.Load(), time.Duration(c.retryWait.Load())
}

// retryable reports whether an attempt's failure is transient: a
// connection-level error (daemon down or restarting — never a context
// cancellation) or explicit server backpressure.
func retryable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	ae, ok := err.(*APIError)
	if !ok {
		return true // transport error: connection refused/reset, EOF, ...
	}
	return ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable
}

// backoff computes the wait before attempt+1, honoring the server's
// Retry-After hint when it asks for more patience than the local
// exponential schedule.
func (c *Client) backoff(attempt int, err error) time.Duration {
	d := c.retry.BaseDelay << (attempt - 1)
	if d > c.retry.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = c.retry.MaxDelay
	}
	// Half-jitter: [d/2, d), so synchronized clients spread out while
	// the schedule stays roughly exponential.
	c.jitterMu.Lock()
	d = d/2 + time.Duration(c.jitter.Float64()*float64(d/2))
	c.jitterMu.Unlock()
	if ae, ok := err.(*APIError); ok && ae.RetryAfter > d {
		d = ae.RetryAfter
		if cap := 2 * c.retry.MaxDelay; d > cap {
			d = cap
		}
	}
	return d
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = c.doOnce(ctx, method, path, body, out)
		if err == nil || attempt >= attempts || !retryable(ctx, err) {
			return err
		}
		wait := c.backoff(attempt, err)
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
		c.retries.Add(1)
		c.retryWait.Add(int64(wait))
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp.StatusCode, data, resp.Header)
	}
	if out != nil {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
			return nil
		}
		return json.Unmarshal(data, out)
	}
	return nil
}

func decodeError(status int, data []byte, hdr http.Header) error {
	ae := &APIError{StatusCode: status, Message: strings.TrimSpace(string(data))}
	var body server.ErrorBody
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		ae.Code = body.Code
		ae.Message = body.Error
	}
	if hdr != nil {
		if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready checks /readyz (an error with code "draining" means the server
// is shutting down).
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Submit posts a job and returns its status document.
func (c *Client) Submit(ctx context.Context, req server.JobRequest) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait blocks until the job reaches a terminal state (or ctx expires)
// and returns the final status. It checks the status once; a live job
// is then followed on its event stream, so Wait wakes the moment the
// job finishes. poll only paces the status re-check after a stream
// that ended without a terminal event (refused, cut, or closed by a
// drain): a server that refuses the stream is polled at poll from then
// on, and a stream that breaks is re-opened at most once per poll.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	stream := true
	for {
		st, err := c.Job(ctx, id)
		if err != nil || st.State.Terminal() {
			return st, err
		}
		if stream {
			terminal := false
			err := c.Events(ctx, id, func(ev server.JobEvent) bool {
				terminal = ev.State.Terminal()
				return true
			})
			if terminal {
				continue // the re-check returns the final status
			}
			var ae *APIError
			stream = !errors.As(err, &ae)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Result fetches a finished job's raw result document.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	return raw, err
}

// ResultJSON fetches and decodes a finished job's result document.
func (c *Client) ResultJSON(ctx context.Context, id string, out any) error {
	raw, err := c.Result(ctx, id)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// Trace streams a finished observed job's command trace ("jsonl" or
// "chrome") into w.
func (c *Client) Trace(ctx context.Context, id, format string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+id+"/trace?format="+format, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return decodeError(resp.StatusCode, data, resp.Header)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Events streams the job's SSE progress events, invoking fn per event,
// until the job reaches a terminal state, fn returns false, or ctx is
// done. It replays the job's full history from the first event.
func (c *Client) Events(ctx context.Context, id string, fn func(server.JobEvent) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		return decodeError(resp.StatusCode, data, resp.Header)
	}
	// The scanner starts at its small default buffer and grows only for
	// a long event line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.JobEvent
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return fmt.Errorf("fsmemd: decoding event: %w", err)
		}
		if !fn(ev) {
			return nil
		}
		if ev.State.Terminal() {
			// The server ends the stream after the terminal event; reading
			// to EOF hands the keep-alive connection back for reuse. A
			// failed read only costs that reuse.
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// Metrics fetches the /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &raw)
	return string(raw), err
}

// Cluster fetches a coordinator's fleet document (GET /v1/cluster).
// Against a plain single-node daemon it returns a not_found APIError.
func (c *Client) Cluster(ctx context.Context) (server.ClusterStatus, error) {
	var st server.ClusterStatus
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &st)
	return st, err
}

// Register joins a worker (by its advertised base URL) to the
// coordinator's fleet (POST /v1/cluster/register). fsmemd -join calls
// this on startup; it is idempotent.
func (c *Client) Register(ctx context.Context, workerAddr string) error {
	return c.do(ctx, http.MethodPost, "/v1/cluster/register",
		server.RegisterRequest{Addr: workerAddr}, nil)
}
