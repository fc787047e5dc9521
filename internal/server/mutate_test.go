package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/api"
)

// solveRho runs a synchronous v1 solve and returns ρ.
func solveRho(t *testing.T, ts, db string) int {
	t.Helper()
	var res api.Result
	status := doJSON(t, http.MethodPost, ts+"/v1/tasks",
		api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: db}, &res)
	if status != http.StatusOK {
		t.Fatalf("solve %s: status %d", db, status)
	}
	return res.Rho
}

func patchDB(t *testing.T, ts, name string, muts []api.Mutation, out any) int {
	t.Helper()
	return doJSON(t, http.MethodPatch, ts+"/v1/db/"+name, api.MutateRequest{Mutations: muts}, out)
}

// TestV1MutateDBEndpoint drives the PATCH surface end to end: an applied
// batch answers the post-batch DBInfo (version bumped, counts updated) and
// changes the solve answer; the server's mutation counter tracks applied
// batches.
func TestV1MutateDBEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)

	var before api.DBInfo
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db/toy", nil, &before); status != http.StatusOK {
		t.Fatalf("GET toy: status %d", status)
	}
	if got := solveRho(t, ts.URL, "toy"); got != 2 {
		t.Fatalf("ρ before mutation = %d, want 2", got)
	}

	// Insert a disjoint chain component: one more witness, ρ 2 → 3.
	var resp api.MutateResponse
	status := patchDB(t, ts.URL, "toy", []api.Mutation{
		{Op: api.MutationInsert, Fact: "R(5,6)"},
		{Op: api.MutationInsert, Fact: "R(6,7)"},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("PATCH insert: status %d", status)
	}
	if resp.Applied != 2 || resp.Version <= before.Version || resp.Tuples != before.Tuples+2 {
		t.Fatalf("mutate response = %+v, want applied=2, version > %d, %d tuples",
			resp, before.Version, before.Tuples+2)
	}
	if got := solveRho(t, ts.URL, "toy"); got != 3 {
		t.Fatalf("ρ after insert = %d, want 3", got)
	}

	// GET reflects the new version; delete brings the answer back.
	var cur api.DBInfo
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db/toy", nil, &cur); status != http.StatusOK || cur.Version != resp.Version {
		t.Fatalf("GET after patch = %+v (status %d), want version %d", cur, status, resp.Version)
	}
	if status := patchDB(t, ts.URL, "toy",
		[]api.Mutation{{Op: api.MutationDelete, Fact: "R(6,7)"}}, &resp); status != http.StatusOK {
		t.Fatalf("PATCH delete: status %d", status)
	}
	if got := solveRho(t, ts.URL, "toy"); got != 2 {
		t.Fatalf("ρ after delete = %d, want 2", got)
	}

	var m metricsResponse
	if status := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if m.Mutations != 2 {
		t.Fatalf("mutations counter = %d, want 2", m.Mutations)
	}
}

// TestV1MutateDBErrors pins the typed failure modes of PATCH: every
// rejection is atomic (the registration keeps its version) and carries the
// right v1 code and status.
func TestV1MutateDBErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)
	var before api.DBInfo
	doJSON(t, http.MethodGet, ts.URL+"/v1/db/toy", nil, &before)

	var eb api.ErrorBody
	if status := patchDB(t, ts.URL, "ghost",
		[]api.Mutation{{Op: api.MutationInsert, Fact: "R(1,9)"}}, &eb); status != 404 || eb.Error == nil || eb.Error.Code != api.CodeUnknownDB {
		t.Fatalf("ghost db: status %d body %+v, want 404 unknown_db", status, eb)
	}

	cases := []struct {
		muts []api.Mutation
		code api.Code
	}{
		{nil, api.CodeBadRequest},
		{[]api.Mutation{{Op: "replace", Fact: "R(1,2)"}}, api.CodeBadRequest},
		{[]api.Mutation{{Op: api.MutationInsert, Fact: "R(("}}, api.CodeBadTuple},
		{[]api.Mutation{{Op: api.MutationInsert, Fact: "R(1,2)"}}, api.CodeBadTuple}, // already present
		{[]api.Mutation{{Op: api.MutationDelete, Fact: "R(9,9)"}}, api.CodeBadTuple}, // absent
		{[]api.Mutation{{Op: api.MutationInsert, Fact: "R(1,2,3)"}}, api.CodeBadTuple},
		// Atomicity: the valid first mutation must not survive the bad second.
		{[]api.Mutation{
			{Op: api.MutationInsert, Fact: "R(7,8)"},
			{Op: api.MutationDelete, Fact: "R(9,9)"},
		}, api.CodeBadTuple},
	}
	for i, c := range cases {
		eb = api.ErrorBody{}
		status := patchDB(t, ts.URL, "toy", c.muts, &eb)
		if status != 400 || eb.Error == nil || eb.Error.Code != c.code {
			t.Errorf("case %d: status %d body %+v, want 400 %s", i, status, eb.Error, c.code)
		}
	}

	// Malformed body (unknown field): the strict v1 decoder rejects it.
	eb = api.ErrorBody{}
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/db/toy",
		bytes.NewReader([]byte(`{"ops":[{"op":"insert","fact":"R(1,9)"}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || eb.Error == nil || eb.Error.Code != api.CodeBadRequest {
		t.Fatalf("unknown field: status %d body %+v, want 400 bad_request", resp.StatusCode, eb.Error)
	}

	var after api.DBInfo
	doJSON(t, http.MethodGet, ts.URL+"/v1/db/toy", nil, &after)
	if after.Version != before.Version || after.Tuples != before.Tuples {
		t.Fatalf("rejected batches changed the registration: %+v -> %+v", before, after)
	}
}

// TestV1PutDBReturnsVersion pins the upload contract the mutation surface
// rests on: PUT answers the full DBInfo including the version that cached
// IRs and watch reconnects (from_version) key on.
func TestV1PutDBReturnsVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info api.DBInfo
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/toy",
		putDBRequest{Facts: []string{"R(1,2)", "R(2,3)", "R(3,3)"}}, &info); status != http.StatusOK {
		t.Fatalf("PUT toy: status %d", status)
	}
	if info.Name != "toy" || info.Tuples != 3 || info.Version == 0 {
		t.Fatalf("PUT body = %+v, want name=toy, 3 tuples, nonzero version", info)
	}
	// A PATCH moves the version strictly past the PUT's.
	var resp api.MutateResponse
	if status := patchDB(t, ts.URL, "toy",
		[]api.Mutation{{Op: api.MutationInsert, Fact: "R(5,6)"}}, &resp); status != http.StatusOK {
		t.Fatalf("PATCH: status %d", status)
	}
	if resp.Version <= info.Version {
		t.Fatalf("PATCH version %d not past PUT version %d", resp.Version, info.Version)
	}
}

// TestV1WatchStreamsMutations is the HTTP end of the watch contract: a
// watch task streamed over NDJSON emits its snapshot line, then one change
// line per answer-changing PATCH (carrying the PATCH's own version), and —
// once MaxEvents is reached — a final totals line, after which the
// connection closes.
func TestV1WatchStreamsMutations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)

	sc, closeBody := streamLines(t, ts.URL+"/v1/tasks?stream=ndjson", api.Task{
		Kind: api.KindWatch, Query: "qchain :- R(x,y), R(y,z)", DB: "toy", MaxEvents: 2,
	})
	defer closeBody()

	read := func() *api.Result {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var r api.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		return &r
	}

	snap := read()
	if !snap.Partial || snap.Rho != 2 || snap.Version == 0 {
		t.Fatalf("snapshot = %+v, want Partial ρ=2 with a version", snap)
	}

	var resp api.MutateResponse
	if status := patchDB(t, ts.URL, "toy", []api.Mutation{
		{Op: api.MutationInsert, Fact: "R(5,6)"},
		{Op: api.MutationInsert, Fact: "R(6,7)"},
	}, &resp); status != http.StatusOK {
		t.Fatalf("PATCH: status %d", status)
	}
	change := read()
	if !change.Partial || change.Rho != 3 || change.Version != resp.Version {
		t.Fatalf("change line = %+v, want Partial ρ=3 at version %d", change, resp.Version)
	}

	final := read()
	if final.Partial || final.Total != 2 || final.Rho != 3 {
		t.Fatalf("final line = %+v, want non-partial totals with 2 events at ρ=3", final)
	}
	if sc.Scan() {
		t.Fatalf("stream kept going after the totals line: %q", sc.Text())
	}
}

// TestDisableLegacyUnmountsRoutes: the pre-v1 routes are gone from the
// route table (404), and the v1 surface serves as before.
func TestDisableLegacyUnmountsRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)

	type body = map[string]any
	legacy := []struct {
		method, path string
		body         any
	}{
		{http.MethodPut, "/db/x", body{"facts": []string{"R(1,2)"}}},
		{http.MethodGet, "/db/toy", nil},
		{http.MethodDelete, "/db/toy", nil},
		{http.MethodGet, "/db", nil},
		{http.MethodPost, "/classify", body{"query": "q :- R(x,y)"}},
		{http.MethodPost, "/solve", body{"query": "q :- R(x,y)", "db": "toy"}},
		{http.MethodPost, "/batch", body{"instances": []body{{"query": "q :- R(x,y)", "db": "toy"}}}},
		{http.MethodPost, "/enumerate", body{"query": "q :- R(x,y)", "db": "toy"}},
		{http.MethodPost, "/responsibility", body{"query": "q :- R(x,y)", "db": "toy", "tuple": "R(1,2)"}},
	}
	for _, c := range legacy {
		if status := doJSON(t, c.method, ts.URL+c.path, c.body, nil); status != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.path, status)
		}
	}

	// The v1 surface — including the mutation path — is untouched.
	if got := solveRho(t, ts.URL, "toy"); got != 2 {
		t.Fatalf("v1 solve: ρ = %d, want 2", got)
	}
	var resp api.MutateResponse
	if status := patchDB(t, ts.URL, "toy",
		[]api.Mutation{{Op: api.MutationInsert, Fact: "R(5,6)"}}, &resp); status != http.StatusOK || resp.Applied != 1 {
		t.Fatalf("v1 PATCH: status %d resp %+v", status, resp)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
}
