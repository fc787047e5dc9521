package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/api"
)

// pathFacts builds K disjoint 2-edge paths: 2^K minimum contingency sets
// for qchain — the streaming-enumeration stress family.
func pathFacts(k int) []string {
	var out []string
	for i := 0; i < k; i++ {
		a, b, c := 3*i, 3*i+1, 3*i+2
		out = append(out, fmt.Sprintf("R(c%d,c%d)", a, b), fmt.Sprintf("R(c%d,c%d)", b, c))
	}
	return out
}

func putToy(t *testing.T, ts string) {
	t.Helper()
	if status := doJSON(t, http.MethodPut, ts+"/v1/db/toy",
		putDBRequest{Facts: []string{"R(1,2)", "R(2,3)", "R(3,3)"}}, nil); status != http.StatusOK {
		t.Fatalf("PUT /v1/db/toy: status %d", status)
	}
}

// TestV1TaskAllKinds drives all six kinds through the one generic
// dispatch endpoint.
func TestV1TaskAllKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)
	const chain = "qchain :- R(x,y), R(y,z)"

	do := func(task api.Task) (*api.Result, int) {
		t.Helper()
		var res api.Result
		status := doJSON(t, http.MethodPost, ts.URL+"/v1/tasks", task, &res)
		return &res, status
	}

	if res, st := do(api.Task{Kind: api.KindClassify, Query: chain}); st != 200 || res.Verdict != "NP-complete" {
		t.Fatalf("classify: status %d res %+v", st, res)
	}
	if res, st := do(api.Task{Kind: api.KindSolve, Query: chain, DB: "toy"}); st != 200 || res.Rho != 2 {
		t.Fatalf("solve: status %d res %+v", st, res)
	}
	if res, st := do(api.Task{Kind: api.KindEnumerate, Query: chain, DB: "toy"}); st != 200 || res.Rho != 2 || len(res.Sets) == 0 {
		t.Fatalf("enumerate: status %d res %+v", st, res)
	}
	if res, st := do(api.Task{Kind: api.KindResponsibility, Query: chain, DB: "toy", Tuple: "R(2,3)"}); st != 200 || res.Responsibility <= 0 {
		t.Fatalf("responsibility: status %d res %+v", st, res)
	}
	if res, st := do(api.Task{Kind: api.KindDecide, Query: chain, DB: "toy", K: 2}); st != 200 || !res.Holds {
		t.Fatalf("decide: status %d res %+v", st, res)
	}
	if res, st := do(api.Task{Kind: api.KindVerifyContingency, Query: chain, DB: "toy",
		Gamma: []string{"R(1,2)", "R(3,3)"}}); st != 200 || !res.Valid {
		t.Fatalf("verify: status %d res %+v", st, res)
	}
}

// TestV1ErrorCodes pins the typed error body and its 1:1 status mapping.
func TestV1ErrorCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)
	rng := rand.New(rand.NewSource(3))
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/big",
		putDBRequest{Facts: chainFacts(rng, 1000, 1000)}, nil); status != http.StatusOK {
		t.Fatalf("PUT big: status %d", status)
	}

	cases := []struct {
		task   api.Task
		status int
		code   api.Code
	}{
		{api.Task{Kind: "warp", Query: "q :- R(x,y)", DB: "toy"}, 400, api.CodeBadRequest},
		{api.Task{Kind: api.KindSolve, Query: "broken(", DB: "toy"}, 400, api.CodeBadQuery},
		{api.Task{Kind: api.KindSolve, Query: "q :- R(x,y)", DB: "ghost"}, 404, api.CodeUnknownDB},
		{api.Task{Kind: api.KindResponsibility, Query: "q :- R(x,y)", DB: "toy", Tuple: "R(9,9)"}, 400, api.CodeBadTuple},
		{api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "big", TimeoutMS: 1}, 504, api.CodeTimeout},
	}
	for i, c := range cases {
		var eb api.ErrorBody
		status := doJSON(t, http.MethodPost, ts.URL+"/v1/tasks", c.task, &eb)
		if status != c.status {
			t.Errorf("case %d: status = %d, want %d", i, status, c.status)
		}
		if eb.Error == nil || eb.Error.Code != c.code {
			t.Errorf("case %d: error body = %+v, want code %s", i, eb.Error, c.code)
		}
	}
}

// TestV1BatchMixedKinds: one batch mixing kinds, with a per-item failure.
func TestV1BatchMixedKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)
	req := api.BatchRequest{Tasks: []api.Task{
		{ID: "s", Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"},
		{ID: "e", Kind: api.KindEnumerate, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"},
		{ID: "bad", Kind: api.KindSolve, Query: "q :- R(x,y)", DB: "ghost"},
		{ID: "c", Kind: api.KindClassify, Query: "qperm :- R(x,y), R(y,x)"},
	}}
	var resp api.BatchResponse
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/batch", req, &resp); status != 200 {
		t.Fatalf("batch: status %d", status)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(resp.Results))
	}
	byID := map[string]*api.Result{}
	for _, r := range resp.Results {
		byID[r.ID] = r
	}
	if byID["s"].Rho != 2 || byID["e"].Rho != 2 || len(byID["e"].Sets) == 0 {
		t.Fatalf("solve/enumerate results wrong: %+v / %+v", byID["s"], byID["e"])
	}
	if byID["bad"].Error == nil || byID["bad"].Error.Code != api.CodeUnknownDB {
		t.Fatalf("bad item = %+v, want unknown_db error", byID["bad"])
	}
	if byID["c"].Verdict == "" {
		t.Fatalf("classify item = %+v", byID["c"])
	}
}

// streamLines POSTs body and returns a line scanner over the NDJSON
// response plus a closer for the connection.
func streamLines(t *testing.T, url string, body any) (*bufio.Scanner, func()) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("stream content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return sc, func() { resp.Body.Close() }
}

// inFlight polls the metrics endpoint for the current in-flight count.
func inFlight(t *testing.T, ts string) int {
	t.Helper()
	var m metricsResponse
	if status := doJSON(t, http.MethodGet, ts+"/metrics", nil, &m); status != 200 {
		t.Fatalf("metrics: status %d", status)
	}
	return m.InFlight
}

// TestV1StreamFirstLineBeforeFinish is the acceptance-bar test: a batch
// enumeration request streams its first result line while the job is
// still running (the request is still holding its admission slot), and
// the first line is a partial enumeration set, not a final summary.
func TestV1StreamFirstLineBeforeFinish(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 2^18 minimum sets: the stream cannot be anywhere near done after
	// one line.
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/paths",
		putDBRequest{Facts: pathFacts(18)}, nil); status != http.StatusOK {
		t.Fatalf("PUT paths: status %d", status)
	}
	sc, closeBody := streamLines(t, ts.URL+"/v1/batch?stream=ndjson", api.BatchRequest{
		Tasks: []api.Task{{ID: "big", Kind: api.KindEnumerate, Query: "qchain :- R(x,y), R(y,z)", DB: "paths"}},
	})
	defer closeBody()
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first api.Result
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	if !first.Partial || first.Kind != api.KindEnumerate || len(first.Sets) != 1 || first.Rho != 18 {
		t.Fatalf("first line = %+v, want a partial enumerate set with ρ=18", &first)
	}
	// The request must still be in flight: the search has ~2^18 sets to
	// go, and its admission slot is held for the stream's lifetime.
	if n := inFlight(t, ts.URL); n != 1 {
		t.Fatalf("in_flight after first line = %d, want 1 (stream still running)", n)
	}
}

// TestV1StreamClientDisconnectCancelsSolver is the regression test for
// the dropped-stream satellite: closing the response body mid-stream must
// stop the underlying enumeration (the admission slot drains), not leave
// it burning CPU until completion.
func TestV1StreamClientDisconnectCancelsSolver(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/paths",
		putDBRequest{Facts: pathFacts(18)}, nil); status != http.StatusOK {
		t.Fatalf("PUT paths: status %d", status)
	}
	sc, closeBody := streamLines(t, ts.URL+"/v1/tasks?stream=ndjson",
		api.Task{Kind: api.KindEnumerate, Query: "qchain :- R(x,y), R(y,z)", DB: "paths"})
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	if n := inFlight(t, ts.URL); n != 1 {
		t.Fatalf("in_flight = %d, want 1 while streaming", n)
	}
	closeBody() // client disconnects with ~2^18 sets unstreamed

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if inFlight(t, ts.URL) == 0 {
			return // solver stopped: slot released long before the search space was exhausted
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("request still in flight 10s after client disconnect: solver not cancelled")
}

// TestV1JobsLifecycle: submit → poll → done with the same result the
// synchronous path gives; cancellation of a running job stops it; unknown
// ids 404.
func TestV1JobsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)

	var job api.Job
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"}, &job); status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	if job.ID == "" || job.State != api.JobQueued {
		t.Fatalf("submitted job = %+v", job)
	}
	final := waitJob(t, ts.URL, job.ID, 10*time.Second)
	if final.State != api.JobDone || final.Result == nil || final.Result.Rho != 2 {
		t.Fatalf("final job = %+v, want done with ρ=2", final)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatalf("job missing timestamps: %+v", final)
	}

	// Cancellation of a long-running job.
	rng := rand.New(rand.NewSource(4))
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/big",
		putDBRequest{Facts: chainFacts(rng, 1000, 1000)}, nil); status != http.StatusOK {
		t.Fatalf("PUT big: status %d", status)
	}
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "big"}, &job); status != http.StatusAccepted {
		t.Fatalf("submit big: status %d", status)
	}
	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, status := getJob(t, ts.URL, job.ID)
		if status != 200 {
			t.Fatalf("poll: status %d", status)
		}
		if cur.State == api.JobRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("big job finished before cancel: %+v (instance too easy?)", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var canceled api.Job
	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil, &canceled); status != 200 {
		t.Fatalf("cancel: status %d", status)
	}
	if canceled.State != api.JobCanceled {
		t.Fatalf("cancel snapshot = %+v", canceled)
	}
	// The state flips to canceled immediately; the finish stamp appears
	// only when the solver has actually observed the cancellation and
	// stopped — that is the part worth waiting for.
	stampDeadline := time.Now().Add(30 * time.Second)
	for {
		final, status := getJob(t, ts.URL, job.ID)
		if status != 200 {
			t.Fatalf("poll cancelled: status %d", status)
		}
		if final.State != api.JobCanceled {
			t.Fatalf("cancelled job flipped to %s: %+v", final.State, final)
		}
		if final.Finished != nil {
			break
		}
		if time.Now().After(stampDeadline) {
			t.Fatal("solver still running 30s after job cancellation")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Unknown ids are typed 404s.
	var eb api.ErrorBody
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/ghost", nil, &eb); status != 404 || eb.Error == nil || eb.Error.Code != api.CodeUnknownJob {
		t.Fatalf("unknown job: status %d body %+v", status, eb)
	}

	// DELETE on a terminal job removes it.
	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil, nil); status != 200 {
		t.Fatalf("delete terminal: status %d", status)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil, nil); status != 404 {
		t.Fatalf("get after delete: status %d, want 404", status)
	}
}

func getJob(t *testing.T, ts, id string) (*api.Job, int) {
	t.Helper()
	var job api.Job
	status := doJSON(t, http.MethodGet, ts+"/v1/jobs/"+id, nil, &job)
	return &job, status
}

func waitJob(t *testing.T, ts, id string, budget time.Duration) *api.Job {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		job, status := getJob(t, ts, id)
		if status != 200 {
			t.Fatalf("waitJob: status %d", status)
		}
		if job.State.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, job.State, budget)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestV1JobQueueOverload: a single worker and a one-slot queue shed
// excess submissions with the overload code.
func TestV1JobQueueOverload(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, JobQueue: 1})
	rng := rand.New(rand.NewSource(5))
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/big",
		putDBRequest{Facts: chainFacts(rng, 1000, 1000)}, nil); status != http.StatusOK {
		t.Fatalf("PUT big: status %d", status)
	}
	task := api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "big"}
	overloaded := 0
	for i := 0; i < 4; i++ {
		var eb api.ErrorBody
		status := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", task, &eb)
		switch status {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			overloaded++
			if eb.Error == nil || eb.Error.Code != api.CodeOverload {
				t.Fatalf("429 body = %+v, want overload code", eb)
			}
		default:
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	if overloaded == 0 {
		t.Fatal("4 long submissions on a 1-worker/1-slot manager never overloaded")
	}
}

// TestV1DBTypedErrors: the /v1/db routes answer the typed v1 error body.
func TestV1DBTypedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var eb api.ErrorBody
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/bad",
		putDBRequest{Facts: []string{"nope"}}, &eb); status != 400 || eb.Error == nil || eb.Error.Code != api.CodeBadRequest {
		t.Fatalf("v1 malformed facts: status %d body %+v, want 400 bad_request", status, eb)
	}
	eb = api.ErrorBody{}
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db/ghost", nil, &eb); status != 404 || eb.Error == nil || eb.Error.Code != api.CodeUnknownDB {
		t.Fatalf("v1 unknown db: status %d body %+v, want 404 unknown_db", status, eb)
	}
}

// TestV1StreamRejectsBeforeCommit: a doomed streaming request (unknown
// db) is rejected with a proper HTTP status — the stream must not commit
// a 200 for a task that can never start.
func TestV1StreamRejectsBeforeCommit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var eb api.ErrorBody
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/tasks?stream=ndjson",
		api.Task{Kind: api.KindEnumerate, Query: "q :- R(x,y)", DB: "ghost"}, &eb)
	if status != 404 || eb.Error == nil || eb.Error.Code != api.CodeUnknownDB {
		t.Fatalf("stream unknown db: status %d body %+v, want 404 unknown_db", status, eb)
	}
}

// TestJobManagerCloseCancelsInFlight: Server.Close stamps a running job
// canceled (not failed) and leaves nothing non-terminal behind.
func TestJobManagerCloseCancelsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	rng := rand.New(rand.NewSource(6))
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/big",
		putDBRequest{Facts: chainFacts(rng, 1000, 1000)}, nil); status != http.StatusOK {
		t.Fatalf("PUT big: status %d", status)
	}
	var job api.Job
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "big"}, &job); status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, status := getJob(t, ts.URL, job.ID)
		if status != 200 {
			t.Fatalf("poll: status %d", status)
		}
		if cur.State == api.JobRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before close: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close() // blocks until the worker observes the cancellation
	final, status := getJob(t, ts.URL, job.ID)
	if status != 200 || final.State != api.JobCanceled || final.Finished == nil {
		t.Fatalf("job after close = %+v (status %d), want canceled with finish stamp", final, status)
	}
	// Submissions after close shed with overload.
	var eb api.ErrorBody
	if status := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		api.Task{Kind: api.KindSolve, Query: "q :- R(x,y)", DB: "big"}, &eb); status != http.StatusTooManyRequests {
		t.Fatalf("submit after close: status %d body %+v, want 429", status, eb)
	}
}
