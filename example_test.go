package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro"
	"repro/api"
	"repro/client"
)

// ExampleResilience is the README quickstart, compiled: parse a query,
// load a tiny database, and compute its resilience with the dispatcher.
func ExampleResilience() {
	q := repro.MustParse("qchain :- R(x,y), R(y,z)")
	d := repro.NewDatabase()
	d.AddNames("R", "1", "2")
	d.AddNames("R", "2", "3")
	d.AddNames("R", "3", "3")

	res, cl, err := repro.Resilience(q, d)
	if err != nil {
		panic(err)
	}
	fmt.Println("rho:", res.Rho)
	fmt.Println("verdict:", cl.Verdict)
	// Output:
	// rho: 2
	// verdict: NP-complete
}

// ExampleNewSession is the README v1 task-API snippet, compiled: one
// typed Task envelope dispatched through a Session in-process, and the
// same envelope round-tripped over HTTP through the client SDK — the two
// paths answer identically because the server delegates to the same
// Session type.
func ExampleNewSession() {
	sess := repro.NewSession(repro.SessionConfig{})
	if _, err := sess.RegisterFacts("toy", []string{"R(1,2)", "R(2,3)", "R(3,3)"}); err != nil {
		panic(err)
	}
	task := repro.Task{Kind: repro.TaskSolve, Query: "qchain :- R(x,y), R(y,z)", DB: "toy"}
	res, err := sess.Do(context.Background(), task)
	if err != nil {
		panic(err)
	}
	fmt.Println("in-process rho:", res.Rho)

	// The same Task over the wire, through the SDK.
	srv := repro.NewServer(repro.ServerConfig{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)
	if _, err := c.PutDB(context.Background(), "toy", []string{"R(1,2)", "R(2,3)", "R(3,3)"}); err != nil {
		panic(err)
	}
	remote, err := c.Do(context.Background(), api.Task{Kind: api.KindSolve, Query: task.Query, DB: "toy"})
	if err != nil {
		panic(err)
	}
	fmt.Println("remote rho:", remote.Rho)
	// Output:
	// in-process rho: 2
	// remote rho: 2
}

// ExampleNewEngine is the README engine snippet, compiled: shard a batch
// of (query, database) instances across the worker pool with the solver
// portfolio enabled, then read the index-aligned results.
func ExampleNewEngine() {
	q := repro.MustParse("qchain :- R(x,y), R(y,z)")
	chain := func(names ...string) *repro.Database {
		d := repro.NewDatabase()
		for i := 0; i+1 < len(names); i++ {
			d.AddNames("R", names[i], names[i+1])
		}
		return d
	}

	eng := repro.NewEngine(repro.EngineConfig{Workers: 4, Portfolio: true})
	results := eng.SolveBatch(context.Background(), []repro.Instance{
		{ID: "day-1", Query: q, DB: chain("a", "b", "c", "d")},
		{ID: "day-2", Query: q, DB: chain("a", "b", "c")},
	})
	for _, r := range results {
		fmt.Println(r.ID, "rho:", r.Res.Rho)
	}
	// Output:
	// day-1 rho: 1
	// day-2 rho: 1
}

// ExampleNewServer is a full serving-layer round trip, compiled: start
// the HTTP layer on a test listener, register a database once via
// PUT /v1/db/{name}, then solve a query against it by name — the same
// transcript the README shows with curl.
func ExampleNewServer() {
	srv := repro.NewServer(repro.ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// PUT /v1/db/toy — upload and freeze the database.
	facts, _ := json.Marshal(map[string]any{
		"facts": []string{"R(1,2)", "R(2,3)", "R(3,3)"},
	})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/db/toy", bytes.NewReader(facts))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	resp.Body.Close()

	// POST /v1/tasks — many of these can now run against the registered db.
	body, _ := json.Marshal(map[string]any{
		"kind":  "solve",
		"query": "qchain :- R(x,y), R(y,z)",
		"db":    "toy",
	})
	resp, err = http.DefaultClient.Post(ts.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var solved struct {
		Rho     int    `json:"rho"`
		Verdict string `json:"verdict"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		panic(err)
	}
	fmt.Println("rho:", solved.Rho)
	fmt.Println("verdict:", solved.Verdict)
	// Output:
	// rho: 2
	// verdict: NP-complete
}
