package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"repro/api"
)

// The v1 surface: one generic dispatch endpoint over the api.Task
// envelope, a concurrent batch endpoint, and NDJSON streaming for both.
// Every handler here speaks api types on the wire — there are no
// hand-rolled per-endpoint shapes — so a new task kind lands in the
// Session dispatcher and is immediately servable.

// ndjsonContentType is the media type of streamed responses: one JSON
// object (an api.Result) per line, flushed as produced.
const ndjsonContentType = "application/x-ndjson"

// wantsStream reports whether the client asked for an NDJSON stream,
// either with ?stream=ndjson (curl-friendly) or an Accept header naming
// the media type.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "ndjson" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

// streamWriter emits NDJSON lines and flushes each one immediately, so
// the first result reaches the client while the search is still running.
// A failed write (client gone) surfaces as an error from emit, which
// aborts the Session's work; the request context is cancelled by the
// http server at the same time, so ctx-polling solver loops stop too.
type streamWriter struct {
	w   http.ResponseWriter
	enc *json.Encoder
	fl  http.Flusher
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", ndjsonContentType)
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return &streamWriter{w: w, enc: json.NewEncoder(w), fl: fl}
}

func (sw *streamWriter) emit(res *api.Result) error {
	if err := sw.enc.Encode(res); err != nil {
		return err
	}
	if sw.fl != nil {
		sw.fl.Flush()
	}
	return nil
}

// handleV1Task is the generic dispatch endpoint: POST /v1/tasks with an
// api.Task body, answering an api.Result (or, streamed, one Result line
// per increment and a final line with the totals).
func (s *Server) handleV1Task(w http.ResponseWriter, r *http.Request) {
	var task api.Task
	if !s.decode(w, r, &task) {
		return
	}
	// A watch is long-lived by design: the server's default request budget
	// would kill every subscription at the budget mark, so only an explicit
	// task timeout_ms (applied by the Session) and the client disconnect
	// bound it.
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if task.Kind != api.KindWatch {
		ctx, cancel = s.requestCtx(r, 0)
	}
	defer cancel()

	if wantsStream(r) {
		// Pre-solve failures (unknown kind, bad query, unknown db) are
		// still ordinary HTTP errors: nothing has been streamed yet, so
		// the status line is available. Only failures after the first
		// emitted line travel in-band.
		if err := s.sess.Check(task); err != nil {
			s.writeError(w, err)
			return
		}
		sw := newStreamWriter(w)
		s.sess.Stream(ctx, task, sw.emit) //nolint:errcheck // write failure = client gone
		return
	}
	res, err := s.sess.Do(ctx, task)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleV1Batch runs many tasks concurrently on the Session's worker
// pool: POST /v1/batch with an api.BatchRequest body. The non-streamed
// response is index-aligned; the streamed response emits each task's
// results in completion order (Result.Index identifies the task), with
// enumerate tasks streaming their partial set lines too.
func (s *Server) handleV1Batch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Tasks) == 0 {
		s.writeError(w, api.Errorf(api.CodeBadRequest, "tasks must be non-empty"))
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()

	if wantsStream(r) {
		sw := newStreamWriter(w)
		s.sess.StreamBatch(ctx, req.Tasks, req.TimeoutMS, sw.emit) //nolint:errcheck // write failure = client gone
		return
	}
	results := s.sess.DoBatch(ctx, req.Tasks, req.TimeoutMS)
	writeJSON(w, http.StatusOK, api.BatchResponse{Results: results})
}

// handleV1SubmitJob accepts an api.Task for asynchronous execution:
// POST /v1/jobs answers 202 with the queued api.Job; poll GET
// /v1/jobs/{id} until its state is terminal. Submission does not hold an
// admission slot — the job workers bound execution concurrency instead.
func (s *Server) handleV1SubmitJob(w http.ResponseWriter, r *http.Request) {
	var task api.Task
	if !s.decode(w, r, &task) {
		return
	}
	job, err := s.jobs.submit(task)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// handleV1ListJobs answers the stored jobs in submission order:
// GET /v1/jobs?state=queued&limit=10. state keeps only jobs in that
// lifecycle state; limit keeps only the most recent matches.
func (s *Server) handleV1ListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := api.JobState(q.Get("state"))
	switch state {
	case "", api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCanceled:
	default:
		s.writeError(w, api.Errorf(api.CodeBadRequest,
			"unknown state %q (want queued, running, done, failed or canceled)", state))
		return
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.writeError(w, api.Errorf(api.CodeBadRequest, "bad limit %q", raw))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, api.JobList{Jobs: s.jobs.list(state, limit)})
}

func (s *Server) handleV1GetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, api.Errorf(api.CodeUnknownJob, "no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleV1CancelJob cancels a queued or running job (DELETE /v1/jobs/{id});
// a terminal job is removed from the store instead. Both answer the job's
// final snapshot.
func (s *Server) handleV1CancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.cancel(r.PathValue("id"))
	if !ok {
		s.writeError(w, api.Errorf(api.CodeUnknownJob, "no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}
