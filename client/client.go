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
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/api"
)

// Client speaks the v1 task API of a resilserverd instance. The zero
// Option set gives sensible production behavior: requests propagate the
// caller's context deadline into the task's timeout_ms, and overload
// (429) and restarting-server (503) responses are retried with
// Retry-After-aware backoff.
type Client struct {
	base    string
	httpc   *http.Client
	retries int
	backoff time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithRetries sets how many times an overloaded (429) or transport-failed
// request is retried before giving up. 0 disables retries; the default
// is 3.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base wait between retries when the server supplies
// no Retry-After header. The default is 200ms, doubling per attempt.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New returns a Client for the server at baseURL (e.g.
// "http://localhost:8080"). A trailing slash is trimmed.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		httpc:   &http.Client{},
		retries: 3,
		backoff: 200 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// withDeadline copies t with TimeoutMS set from ctx's deadline when the
// task does not carry its own — deadline propagation: the server aborts
// the solve when the client would stop waiting anyway.
func withDeadline(ctx context.Context, t api.Task) api.Task {
	if t.TimeoutMS > 0 {
		return t
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			t.TimeoutMS = ms
		}
	}
	return t
}

// Do executes one task synchronously via POST /v1/tasks. Failures are
// *api.Error values: errors.Is(err, api.ErrOverload) etc. work across the
// wire.
func (c *Client) Do(ctx context.Context, t api.Task) (*api.Result, error) {
	var res api.Result
	if err := c.postJSON(ctx, "/v1/tasks", withDeadline(ctx, t), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// DoBatch executes many tasks via POST /v1/batch, returning results
// index-aligned with tasks; per-task failures are in Result.Error.
func (c *Client) DoBatch(ctx context.Context, tasks []api.Task) ([]*api.Result, error) {
	req := api.BatchRequest{Tasks: make([]api.Task, len(tasks))}
	for i, t := range tasks {
		req.Tasks[i] = withDeadline(ctx, t)
	}
	var resp api.BatchResponse
	if err := c.postJSON(ctx, "/v1/batch", req, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Stream executes one task with an NDJSON response, calling emit for
// every line as it arrives: enumerate tasks emit one Partial result per
// minimum contingency set the moment the search finds it, then a final
// line with the totals. An emit error aborts the stream (and, through the
// dropped connection, the server-side search). A task failure — whether
// rejected before streaming started (an HTTP error) or carried in-band
// on a final line after it did — is returned as a *api.Error rather than
// emitted, so `if err != nil` catches it like on the non-streamed path.
func (c *Client) Stream(ctx context.Context, t api.Task, emit func(*api.Result) error) error {
	return c.stream(ctx, "/v1/tasks?stream=ndjson", withDeadline(ctx, t), emit, true)
}

// StreamBatch executes many tasks with an NDJSON response in completion
// order; Result.Index identifies each line's task. Per-task failures are
// emitted as lines carrying Result.Error — the tasks are independent, so
// one failure must not hide the others' results.
func (c *Client) StreamBatch(ctx context.Context, tasks []api.Task, emit func(*api.Result) error) error {
	req := api.BatchRequest{Tasks: make([]api.Task, len(tasks))}
	for i, t := range tasks {
		req.Tasks[i] = withDeadline(ctx, t)
	}
	return c.stream(ctx, "/v1/batch?stream=ndjson", req, emit, false)
}

// Submit queues t as an async job (POST /v1/jobs) and returns the queued
// job record; poll with Job or block with Wait.
func (c *Client) Submit(ctx context.Context, t api.Task) (*api.Job, error) {
	var job api.Job
	if err := c.postJSON(ctx, "/v1/jobs", withDeadline(ctx, t), &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches one job's current state.
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	var job api.Job
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// JobsOption narrows a Jobs listing.
type JobsOption func(url.Values)

// JobsWithState keeps only jobs in the given lifecycle state.
func JobsWithState(state api.JobState) JobsOption {
	return func(q url.Values) { q.Set("state", string(state)) }
}

// JobsWithLimit keeps only the n most recent matches.
func JobsWithLimit(n int) JobsOption {
	return func(q url.Values) { q.Set("limit", strconv.Itoa(n)) }
}

// Jobs lists stored jobs in submission order via GET /v1/jobs,
// optionally filtered by state and truncated to the most recent matches.
func (c *Client) Jobs(ctx context.Context, opts ...JobsOption) ([]*api.Job, error) {
	path := "/v1/jobs"
	if len(opts) > 0 {
		q := url.Values{}
		for _, o := range opts {
			o(q)
		}
		path += "?" + q.Encode()
	}
	var list api.JobList
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &list); err != nil {
		return nil, err
	}
	return list.Jobs, nil
}

// Cancel cancels a queued or running job (terminal jobs are removed) and
// returns the resulting snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (*api.Job, error) {
	var job api.Job
	if err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait polls a job every interval until it reaches a terminal state or
// ctx expires. A zero interval polls every 100ms.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (*api.Job, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.State.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return job, api.Wrap(ctx.Err())
		case <-tick.C:
		}
	}
}

// PutDB registers facts ("R(a,b)" strings) under name via
// PUT /v1/db/{name}, replacing any previous registration.
func (c *Client) PutDB(ctx context.Context, name string, facts []string) (*api.DBInfo, error) {
	var info api.DBInfo
	body := struct {
		Facts []string `json:"facts"`
	}{Facts: facts}
	if err := c.doJSON(ctx, http.MethodPut, "/v1/db/"+name, body, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// MutateDB applies an atomic insert/delete batch to the database
// registered under name via PATCH /v1/db/{name} and returns its
// post-batch info (new version included). Unlike the rest of the client,
// mutation requests are never retried: the batch is not idempotent — a
// replay after an ambiguous transport failure could apply it twice — so
// an error here means the caller must check the database version before
// resending.
func (c *Client) MutateDB(ctx context.Context, name string, muts []api.Mutation) (*api.DBInfo, error) {
	payload, err := json.Marshal(api.MutateRequest{Mutations: muts})
	if err != nil {
		return nil, api.Errorf(api.CodeBadRequest, "encoding request: %v", err)
	}
	resp, err := c.send(ctx, http.MethodPatch, "/v1/db/"+name, payload)
	if err != nil {
		return nil, api.Wrap(err)
	}
	var mr api.MutateResponse
	if _, err := c.finish(resp, &mr); err != nil {
		return nil, err
	}
	return &mr.DBInfo, nil
}

// DBs lists the registered databases.
func (c *Client) DBs(ctx context.Context) ([]api.DBInfo, error) {
	var resp struct {
		Databases []api.DBInfo `json:"databases"`
	}
	if err := c.doJSON(ctx, http.MethodGet, "/v1/db", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Databases, nil
}

// DropDB unregisters name.
func (c *Client) DropDB(ctx context.Context, name string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/db/"+name, nil, nil)
}

// Metrics fetches the server's /metrics snapshot as a generic map.
func (c *Client) Metrics(ctx context.Context) (map[string]any, error) {
	var m map[string]any
	if err := c.doJSON(ctx, http.MethodGet, "/metrics", nil, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// postJSON is doJSON for POST bodies.
func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	return c.doJSON(ctx, http.MethodPost, path, body, out)
}

// doJSON performs one JSON round trip with the retry policy: transport
// errors and 429s are retried (respecting Retry-After and ctx), other
// statuses resolve immediately. Request bodies are buffered once and
// replayed across attempts.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return api.Errorf(api.CodeBadRequest, "encoding request: %v", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, method, path, payload)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil || attempt >= c.retries {
				return api.Wrap(err)
			}
			if !c.sleep(ctx, c.waitFor(nil, attempt)) {
				return api.Wrap(ctx.Err())
			}
			continue
		}
		retriable, err := c.finish(resp, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retriable || attempt >= c.retries {
			return lastErr
		}
		if !c.sleep(ctx, c.waitFor(resp, attempt)) {
			return api.Wrap(ctx.Err())
		}
	}
}

// send issues one attempt.
func (c *Client) send(ctx context.Context, method, path string, payload []byte) (*http.Response, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.httpc.Do(req)
}

// finish consumes one response: 2xx decodes into out, everything else
// becomes a *api.Error (from the typed v1 body when present, else from
// the status). It reports whether the failure is retriable: 429
// (overload) and 503 (a restarting or draining server — with durable
// state it comes back with the registry intact, so waiting it out is
// the right default).
func (c *Client) finish(resp *http.Response, out any) (retriable bool, err error) {
	defer resp.Body.Close()
	raw, readErr := io.ReadAll(resp.Body)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if readErr != nil {
			return false, api.Errorf(api.CodeInternal, "reading response: %v", readErr)
		}
		if out == nil || len(raw) == 0 {
			return false, nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return false, api.Errorf(api.CodeInternal, "decoding response: %v", err)
		}
		return false, nil
	}
	retriable = resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable
	return retriable, decodeError(resp.StatusCode, raw)
}

// decodeError reconstructs the server's *api.Error from a non-2xx body,
// falling back to the status mapping for untyped bodies (a proxy's page, a
// truncated body, the route table's plain-text 404 and 405).
func decodeError(status int, raw []byte) *api.Error {
	var eb api.ErrorBody
	if err := json.Unmarshal(raw, &eb); err == nil && eb.Error != nil && eb.Error.Code != "" {
		return eb.Error
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = http.StatusText(status)
	}
	return api.Errorf(api.CodeForStatus(status), "%s", msg)
}

// waitFor picks the next retry delay: the server's Retry-After when
// given, else exponential backoff from the configured base.
func (c *Client) waitFor(resp *http.Response, attempt int) time.Duration {
	if resp != nil {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				return time.Duration(secs) * time.Second
			}
		}
	}
	return c.backoff << attempt
}

// sleep waits d or until ctx is done, reporting whether the wait ran its
// course.
func (c *Client) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// stream posts body and decodes the NDJSON response line by line. Streams
// are not retried: by the time a line has been emitted the work is
// underway, and replaying it would duplicate partials. With failOnError,
// a non-partial line carrying an Error is returned instead of emitted
// (single-task streams); without it such lines are emitted (batch
// streams, where per-task failures are ordinary results).
func (c *Client) stream(ctx context.Context, path string, body any, emit func(*api.Result) error, failOnError bool) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return api.Errorf(api.CodeBadRequest, "encoding request: %v", err)
	}
	resp, err := c.send(ctx, http.MethodPost, path, payload)
	if err != nil {
		return api.Wrap(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return decodeError(resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var res api.Result
		if err := json.Unmarshal(line, &res); err != nil {
			return api.Errorf(api.CodeInternal, "decoding stream line %q: %v", line, err)
		}
		if failOnError && !res.Partial && res.Error != nil {
			return res.Error
		}
		if err := emit(&res); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return api.Wrap(fmt.Errorf("reading stream: %w", err))
	}
	return nil
}
