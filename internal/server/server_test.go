package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/api"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/resilience"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// doJSON performs one JSON request and decodes the response into out (when
// non-nil), returning the HTTP status.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// chainFacts renders a ChainDB-shaped fact list: a path of n constants
// plus random chords.
func chainFacts(rng *rand.Rand, n, chords int) []string {
	var facts []string
	for i := 0; i+1 < n; i++ {
		facts = append(facts, fmt.Sprintf("R(c%d,c%d)", i, i+1))
	}
	for i := 0; i < chords; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			facts = append(facts, fmt.Sprintf("R(c%d,c%d)", u, v))
		}
	}
	return facts
}

// doTask POSTs one task to /v1/tasks. A non-2xx error body decodes into
// the Result's Error field, which has the same JSON key.
func doTask(t *testing.T, ts string, task api.Task) (*api.Result, int) {
	t.Helper()
	var res api.Result
	status := doJSON(t, http.MethodPost, ts+"/v1/tasks", task, &res)
	return &res, status
}

// TestServerConcurrentSolvesShareIR is the serving-layer acceptance test:
// many concurrent solve requests against registered databases complete
// correctly, and the engine's stats show the witness IR was built exactly
// once per distinct (query class, database version) — everything else was
// a cross-request cache hit.
func TestServerConcurrentSolvesShareIR(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Engine:      engine.Config{Workers: 4, Portfolio: true},
		MaxInFlight: 512, // admission must not interfere with this test
	})

	rng := rand.New(rand.NewSource(42))
	for _, name := range []string{"day1", "day2"} {
		status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/"+name,
			putDBRequest{Facts: chainFacts(rng, 12, 6)}, nil)
		if status != http.StatusOK {
			t.Fatalf("PUT /v1/db/%s: status %d", name, status)
		}
	}

	// Reference answers, computed directly against equivalent databases.
	want := map[string]int{}
	for _, name := range []string{"day1", "day2"} {
		q := cq.MustParse("qchain :- R(x,y), R(y,z)")
		res, _, err := resilience.Solve(q, s.sess.DB(name).Clone())
		if err != nil {
			t.Fatalf("reference solve %s: %v", name, err)
		}
		want[name] = res.Rho
	}

	const perDB = 64 // ≥ 64 concurrent requests per the acceptance bar
	var wg sync.WaitGroup
	errs := make(chan error, 2*perDB)
	for _, name := range []string{"day1", "day2"} {
		for i := 0; i < perDB; i++ {
			wg.Add(1)
			go func(name string, i int) {
				defer wg.Done()
				// Alternate alpha-renamed variants: same isomorphism
				// class, so they must share one IR per database.
				query := "qchain :- R(x,y), R(y,z)"
				if i%2 == 1 {
					query = "qchain :- R(a,b), R(b,c)"
				}
				res, status := doTask(t, ts.URL, api.Task{Kind: api.KindSolve, Query: query, DB: name})
				if status != http.StatusOK {
					errs <- fmt.Errorf("solve %s[%d]: status %d", name, i, status)
					return
				}
				if res.Rho != want[name] {
					errs <- fmt.Errorf("solve %s[%d]: ρ = %d, want %d", name, i, res.Rho, want[name])
				}
			}(name, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Engine().Stats()
	if st.IRBuilds != 2 {
		t.Errorf("Stats.IRBuilds = %d, want 2: one per distinct (query class, db version)", st.IRBuilds)
	}
	if st.IRCacheMisses != 2 {
		t.Errorf("Stats.IRCacheMisses = %d, want 2", st.IRCacheMisses)
	}
	if wantHits := int64(2*perDB - 2); st.IRCacheHits != wantHits {
		t.Errorf("Stats.IRCacheHits = %d, want %d", st.IRCacheHits, wantHits)
	}
	if st.Solved != 2*perDB {
		t.Errorf("Stats.Solved = %d, want %d", st.Solved, 2*perDB)
	}

	var m metricsResponse
	if status := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	if m.IRCacheHits != st.IRCacheHits || m.IRBuilds != st.IRBuilds {
		t.Errorf("/metrics disagrees with engine stats: %+v vs %+v", m, st)
	}
	if m.Requests != 2*perDB {
		t.Errorf("/metrics requests = %d, want %d", m.Requests, 2*perDB)
	}
}

func TestServerRegistryLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Malformed facts are rejected.
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/bad",
		putDBRequest{Facts: []string{"nope"}}, nil); status != http.StatusBadRequest {
		t.Fatalf("PUT malformed: status %d, want 400", status)
	}
	// Arity mismatch inside one upload is rejected.
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/bad",
		putDBRequest{Facts: []string{"R(1,2)", "R(1)"}}, nil); status != http.StatusBadRequest {
		t.Fatalf("PUT arity mismatch: status %d, want 400", status)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db/ghost", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET unknown db: status %d, want 404", status)
	}

	var put api.DBInfo
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/toy",
		putDBRequest{Facts: []string{"R(1,2)", "R(2,3)", "R(3,3)", "R(1,2)"}}, &put); status != http.StatusOK {
		t.Fatalf("PUT: status %d", status)
	}
	if put.Tuples != 3 || put.Relations["R"] != 3 || put.Constants != 3 {
		t.Fatalf("PUT info = %+v, want 3 distinct tuples over 3 constants", put)
	}

	var got api.DBInfo
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db/toy", nil, &got); status != http.StatusOK ||
		got.Name != put.Name || got.Tuples != put.Tuples || got.Version != put.Version {
		t.Fatalf("GET info = %+v (status %d), want %+v", got, status, put)
	}

	var list struct {
		Databases []api.DBInfo `json:"databases"`
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db", nil, &list); status != http.StatusOK || len(list.Databases) != 1 {
		t.Fatalf("GET /v1/db = %+v (status %d), want exactly the toy db", list, status)
	}

	// Solver endpoints: bad query and unknown db.
	if _, status := doTask(t, ts.URL, api.Task{Kind: api.KindSolve, Query: "not a query", DB: "toy"}); status != http.StatusBadRequest {
		t.Fatalf("solve bad query: status %d, want 400", status)
	}
	if _, status := doTask(t, ts.URL, api.Task{Kind: api.KindSolve, Query: "q :- R(x,y)", DB: "ghost"}); status != http.StatusNotFound {
		t.Fatalf("solve unknown db: status %d, want 404", status)
	}

	// The README example: ρ(qchain, {R(1,2), R(2,3), R(3,3)}) = 2.
	solved, status := doTask(t, ts.URL, api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"})
	if status != http.StatusOK {
		t.Fatalf("solve: status %d", status)
	}
	if solved.Rho != 2 || solved.Verdict != "NP-complete" {
		t.Fatalf("solve = %+v, want ρ=2 NP-complete", solved)
	}
	if len(solved.Contingency) != 2 {
		t.Fatalf("contingency = %v, want 2 tuples", solved.Contingency)
	}

	// A fully exogenous query is unbreakable, reported as an answer.
	unb, status := doTask(t, ts.URL, api.Task{Kind: api.KindSolve, Query: "q :- R(x,y)^x", DB: "toy"})
	if status != http.StatusOK {
		t.Fatalf("solve exogenous: status %d", status)
	}
	if !unb.Unbreakable {
		t.Fatalf("solve exogenous = %+v, want unbreakable", unb)
	}

	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/db/toy", nil, nil); status != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", status)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db/toy", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET after DELETE: status %d, want 404", status)
	}
}

func TestServerBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)
	var resp api.BatchResponse
	status := doJSON(t, http.MethodPost, ts.URL+"/v1/batch", api.BatchRequest{Tasks: []api.Task{
		{ID: "chain", Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"},
		{ID: "edge", Kind: api.KindSolve, Query: "q :- R(x,y)", DB: "toy"},
		{Kind: api.KindSolve, Query: "q :- R(x,x)", DB: "toy"},
	}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch results = %d, want 3", len(resp.Results))
	}
	if resp.Results[0].ID != "chain" || resp.Results[0].Rho != 2 {
		t.Fatalf("batch[0] = %+v, want chain ρ=2", resp.Results[0])
	}
	if resp.Results[1].Rho != 3 { // delete every edge
		t.Fatalf("batch[1] = %+v, want ρ=3", resp.Results[1])
	}
	if resp.Results[2].Index != 2 || resp.Results[2].Rho != 1 { // only R(3,3) is a loop
		t.Fatalf("batch[2] = %+v, want ρ=1 at index 2", resp.Results[2])
	}
}

func TestServerEnumerateAndResponsibility(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putToy(t, ts.URL)
	const chain = "qchain :- R(x,y), R(y,z)"

	en, status := doTask(t, ts.URL, api.Task{Kind: api.KindEnumerate, Query: chain, DB: "toy", MaxSets: 10})
	if status != http.StatusOK {
		t.Fatalf("enumerate: status %d", status)
	}
	if en.Rho != 2 || len(en.Sets) == 0 {
		t.Fatalf("enumerate = %+v, want ρ=2 with at least one optimal set", en)
	}
	for _, set := range en.Sets {
		if len(set) != 2 {
			t.Fatalf("enumerate returned a non-minimum set %v", set)
		}
	}

	rp, status := doTask(t, ts.URL, api.Task{Kind: api.KindResponsibility, Query: chain, DB: "toy", Tuple: "R(3,3)"})
	if status != http.StatusOK {
		t.Fatalf("responsibility: status %d", status)
	}
	if rp.NotCounterfactual {
		t.Fatalf("responsibility = %+v: R(3,3) participates in witnesses", rp)
	}
	if want := 1.0 / float64(1+rp.K); rp.Responsibility != want {
		t.Fatalf("responsibility score = %v, want 1/(1+k) = %v", rp.Responsibility, want)
	}

	// Probing a tuple that is not in the database is a client error.
	if _, status := doTask(t, ts.URL, api.Task{Kind: api.KindResponsibility, Query: chain, DB: "toy", Tuple: "R(9,9)"}); status != http.StatusBadRequest {
		t.Fatalf("responsibility unknown tuple: status %d, want 400", status)
	}
}

// TestServerAdmissionControl: with every slot taken, each admitted route
// sheds with 429, a Retry-After header and the typed overload body.
func TestServerAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	putToy(t, ts.URL)

	// Occupy the single slot; the next solver request must be shed.
	s.sem <- struct{}{}
	task := api.Task{Kind: api.KindSolve, Query: "q :- R(x,y)", DB: "toy"}
	shed := []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/tasks", task},
		{http.MethodPost, "/v1/batch", api.BatchRequest{Tasks: []api.Task{task}}},
		{http.MethodPatch, "/v1/db/toy", api.MutateRequest{Mutations: []api.Mutation{{Op: api.MutationInsert, Fact: "R(5,6)"}}}},
	}
	for _, c := range shed {
		buf, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb api.ErrorBody
		decErr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s %s: status %d, want 429", c.method, c.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: 429 without Retry-After", c.method, c.path)
		}
		if decErr != nil || eb.Error == nil || eb.Error.Code != api.CodeOverload {
			t.Fatalf("%s %s: 429 body = %+v (%v), want code overload", c.method, c.path, eb.Error, decErr)
		}
	}
	// Registry and health endpoints are not subject to admission.
	if status := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Fatalf("healthz under load: status %d", status)
	}
	<-s.sem

	if _, status := doTask(t, ts.URL, task); status != http.StatusOK {
		t.Fatalf("solve after release: status %d", status)
	}
	if st := s.Engine().Stats(); st.Solved != 1 {
		t.Fatalf("Solved = %d, want 1", st.Solved)
	}
}

func TestServerRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A large chain database: witness enumeration plus NP-hard search
	// cannot finish inside 1ms.
	rng := rand.New(rand.NewSource(9))
	if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/big",
		putDBRequest{Facts: chainFacts(rng, 20000, 20000)}, nil); status != http.StatusOK {
		t.Fatalf("PUT: status %d", status)
	}
	res, status := doTask(t, ts.URL, api.Task{Kind: api.KindSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "big", TimeoutMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (deadline exceeded)", status)
	}
	if res.Error == nil || res.Error.Code != api.CodeTimeout {
		t.Fatalf("504 body = %+v, want code timeout", res.Error)
	}
}

// TestServerUploadCap: an upload past MaxBodyBytes is refused whole with
// bad_request, and nothing is registered under its name.
func TestServerUploadCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	facts := make([]string, 100)
	for i := range facts {
		facts[i] = fmt.Sprintf("R(%d,%d)", i, i+1)
	}
	var eb api.ErrorBody
	status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/big", putDBRequest{Facts: facts}, &eb)
	if status != http.StatusBadRequest || eb.Error == nil || eb.Error.Code != api.CodeBadRequest ||
		!strings.Contains(eb.Error.Message, "request body too large") {
		t.Fatalf("PUT past the cap: status %d body %+v, want 400 bad_request (request body too large)", status, eb.Error)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/v1/db/big", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET after a refused upload: status %d, want 404", status)
	}
}

// TestServerReuploadEvictsIRs: replacing or deleting a registered
// database must retire its cached IRs — otherwise dead entries pin their
// witness families and eventually lock up the cache cap.
func TestServerReuploadEvictsIRs(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.Config{IRCacheSize: 4}})
	solve := func(wantRho int) {
		t.Helper()
		if got := solveRho(t, ts.URL, "toy"); got != wantRho {
			t.Fatalf("ρ = %d, want %d", got, wantRho)
		}
	}

	// Re-upload the database more times than the cache holds entries; if
	// dead IRs were never evicted, the cache would fill with them and the
	// final round could not answer from a live entry.
	for i := 0; i < 8; i++ {
		facts := []string{"R(1,2)", "R(2,3)", "R(3,3)"}
		if i%2 == 1 {
			facts = append(facts, "R(3,4)") // different contents, ρ stays 2
		}
		if status := doJSON(t, http.MethodPut, ts.URL+"/v1/db/toy", putDBRequest{Facts: facts}, nil); status != http.StatusOK {
			t.Fatalf("PUT round %d: status %d", i, status)
		}
		solve(2)
		solve(2) // second solve of the round must hit the fresh entry
	}
	st := s.Engine().Stats()
	if st.IRBuilds != 8 {
		t.Errorf("IRBuilds = %d, want 8 (one per upload round)", st.IRBuilds)
	}
	if st.IRCacheHits != 8 {
		t.Errorf("IRCacheHits = %d, want 8 (second solve of each round)", st.IRCacheHits)
	}

	// Deleting the database retires its IRs the same way.
	if status := doJSON(t, http.MethodDelete, ts.URL+"/v1/db/toy", nil, nil); status != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", status)
	}
}

func TestServerHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	s.SetDraining(true)
	if status := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("healthz draining: status %d, want 503", status)
	}
	var m metricsResponse
	if status := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); status != http.StatusOK || !m.Draining {
		t.Fatalf("metrics while draining = %+v (status %d)", m, status)
	}
}
