package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// The benchmark's inputs come from this file alone. The daemon only ever
// sees the facts and tasks generated here, and nothing in the program under
// test (internal/datagen included) shapes them, so no change to the
// program can change the inputs of a given seed.
//
// Every generated database is a union of clusters: small blocks of facts
// over constants that no other cluster uses. All queries below are
// connected, so every witness lies inside one cluster and ρ of a database
// is the sum of its clusters' minima. Those minima are found here by brute
// force over the cluster's own witnesses, with the benchmark's own join
// evaluator (oracle.go), before anything is timed.

// fact is one ground atom: a binary R fact or a unary A, B or C fact.
type fact struct {
	rel  string
	a, b string // b is empty for unary facts
}

func (f fact) String() string {
	if f.b == "" {
		return f.rel + "(" + f.a + ")"
	}
	return f.rel + "(" + f.a + "," + f.b + ")"
}

// parseFact reads the "R(a,b)" notation of the wire.
func parseFact(s string) (fact, error) {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return fact{}, fmt.Errorf("malformed fact %q", s)
	}
	args := strings.Split(s[open+1:len(s)-1], ",")
	switch len(args) {
	case 1:
		return fact{rel: s[:open], a: args[0]}, nil
	case 2:
		return fact{rel: s[:open], a: args[0], b: args[1]}, nil
	}
	return fact{}, fmt.Errorf("fact %q: want arity 1 or 2", s)
}

func factStrings(fs []fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// query is one of the paper's queries as the benchmark's own evaluator
// sees it: atoms over numbered variables, plus the verdict the paper gives.
type query struct {
	name, text string
	verdict    string // "NP-complete" or "PTIME"
	atoms      []atom
	nvars      int
}

type atom struct {
	rel  string
	vars []int
}

// mustQuery parses "name :- R(x,y), A(x)".
func mustQuery(text, verdict string) *query {
	head, body, ok := strings.Cut(text, ":-")
	if !ok {
		panic("query without :- " + text)
	}
	q := &query{name: strings.TrimSpace(head), text: text, verdict: verdict}
	ids := map[string]int{}
	for _, part := range strings.Split(body, "),") {
		part = strings.TrimSuffix(strings.TrimSpace(part), ")")
		rel, args, _ := strings.Cut(part, "(")
		a := atom{rel: strings.TrimSpace(rel)}
		for _, v := range strings.Split(args, ",") {
			v = strings.TrimSpace(v)
			id, seen := ids[v]
			if !seen {
				id = len(ids)
				ids[v] = id
			}
			a.vars = append(a.vars, id)
		}
		q.atoms = append(q.atoms, a)
	}
	q.nvars = len(ids)
	return q
}

// The seven queries the benchmark serves, with the verdicts the paper
// proves: chains (Props. 10 and 38), the three-confluence (Prop. 39) and
// the guarded permutation (Prop. 34) are NP-complete; the confluence
// (Prop. 12), the unary-guarded permutation (Prop. 33) and qA3permR
// (Prop. 13) are PTIME.
var (
	qChain   = mustQuery("qchain :- R(x,y), R(y,z)", "NP-complete")
	q3Chain  = mustQuery("q3chain :- R(x,y), R(y,z), R(z,w)", "NP-complete")
	qAC3conf = mustQuery("qAC3conf :- A(x), R(x,y), R(z,y), R(z,w), C(w)", "NP-complete")
	qABperm  = mustQuery("qABperm :- A(x), R(x,y), R(y,x), B(y)", "NP-complete")
	qACconf  = mustQuery("qACconf :- A(x), R(x,y), R(z,y), C(z)", "PTIME")
	qAperm   = mustQuery("qAperm :- A(x), R(x,y), R(y,x)", "PTIME")
	qA3permR = mustQuery("qA3permR :- A(x), R(x,y), R(y,z), R(z,y)", "PTIME")

	allQueries = []*query{qChain, q3Chain, qAC3conf, qABperm, qACconf, qAperm, qA3permR}
)

// shapeKind selects the relations a cluster carries.
type shapeKind int

const (
	shapeChain shapeKind = iota // R only
	shapeConf                   // A, R, C
	shapePerm                   // A, B, R with many 2-cycles
)

// cluster is one block of facts over constants of its own, with skewed
// per-fact deletion costs for the weighted operations.
type cluster struct {
	facts   []fact
	weights []int64 // index-aligned with facts
}

// minima are the reference answers of one query over one cluster.
type minima struct {
	masks []uint32 // witnesses as bit sets over the cluster's facts
	rho   int      // minimum contingency size
	wrho  int64    // minimum total deletion cost under the cluster's weights
	best  []fact   // one minimum-size contingency set
}

// genFacts draws a random cluster of the given kind over the constants
// prefix+"v0" … prefix+"v3": five distinct R edges (no self-loops: a loop
// is a one-tuple witness, and such tiny components would share
// fingerprints across uploads), on permutation clusters every other edge
// with its reverse, and each unary relation on two of the four constants.
// Sizes are fixed so that databases of different seeds cost alike.
func genFacts(rng *rand.Rand, kind shapeKind, prefix string) []fact {
	const nc, edges = 4, 5
	name := func(i int) string { return fmt.Sprintf("%sv%d", prefix, i) }
	seen := map[fact]bool{}
	var fs []fact
	add := func(f fact) {
		if !seen[f] {
			seen[f] = true
			fs = append(fs, f)
		}
	}
	for e := 0; e < edges; {
		i, j := rng.Intn(nc), 1+rng.Intn(nc-1)
		j = (i + j) % nc
		f := fact{rel: "R", a: name(i), b: name(j)}
		if seen[f] {
			continue
		}
		add(f)
		if kind == shapePerm && e%2 == 0 {
			add(fact{rel: "R", a: name(j), b: name(i)})
		}
		e++
	}
	unary := map[shapeKind][]string{shapeConf: {"A", "C"}, shapePerm: {"A", "B"}}[kind]
	for _, rel := range unary {
		for _, i := range rng.Perm(nc)[:2] {
			add(fact{rel: rel, a: name(i)})
		}
	}
	return fs
}

// skewedWeight draws a deletion cost: mostly 1, sometimes much larger.
func skewedWeight(rng *rand.Rand) int64 {
	return []int64{1, 1, 1, 1, 2, 3, 5, 9}[rng.Intn(8)]
}

// genCluster draws clusters until one has at least one witness of q.
func genCluster(rng *rand.Rand, kind shapeKind, prefix string, q *query) cluster {
	for {
		fs := genFacts(rng, kind, prefix)
		if len(witnessMasks(q, fs)) == 0 {
			continue
		}
		c := cluster{facts: fs, weights: make([]int64, len(fs))}
		for i := range c.weights {
			c.weights[i] = skewedWeight(rng)
		}
		return c
	}
}

// genClusters draws clusters until they hold at least target facts, so
// that every seed gives a database of the same size.
func genClusters(rng *rand.Rand, kind shapeKind, prefix string, q *query, target int) []cluster {
	var cs []cluster
	for n := 0; n < target; {
		c := genCluster(rng, kind, fmt.Sprintf("%sc%d", prefix, len(cs)), q)
		cs = append(cs, c)
		n += len(c.facts)
	}
	return cs
}

// minimaOf computes q's reference answers over one cluster.
func minimaOf(q *query, c cluster) minima {
	m := minima{masks: witnessMasks(q, c.facts)}
	m.rho, m.wrho, m.best = bruteMinima(m.masks, c.facts, c.weights)
	return m
}

// bruteMinima returns the minimum hitting-set size of the witness masks,
// the minimum total weight, and one minimum-size hitting set, by trying
// every subset of the cluster's facts.
func bruteMinima(masks []uint32, fs []fact, w []int64) (int, int64, []fact) {
	n := len(fs)
	bestSize, bestSet := n+1, uint32(0)
	bestCost := int64(-1)
	for s := uint32(0); s < 1<<n; s++ {
		if !hitsAll(masks, s) {
			continue
		}
		if k := bits.OnesCount32(s); k < bestSize {
			bestSize, bestSet = k, s
		}
		cost := int64(0)
		for i := 0; i < n; i++ {
			if s&(1<<i) != 0 {
				cost += w[i]
			}
		}
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
		}
	}
	var best []fact
	for i := 0; i < n; i++ {
		if bestSet&(1<<i) != 0 {
			best = append(best, fs[i])
		}
	}
	return bestSize, bestCost, best
}

func hitsAll(masks []uint32, s uint32) bool {
	for _, m := range masks {
		if m&s == 0 {
			return false
		}
	}
	return true
}

// clusterResponsibility is the in-cluster part of the responsibility of
// fact t (index ti): the fewest deletions Γ ∌ t that hit every witness
// without t while some witness with t survives. -1 when no such Γ exists.
func clusterResponsibility(masks []uint32, n, ti int) int {
	tb := uint32(1) << ti
	best := -1
	for s := uint32(0); s < 1<<n; s++ {
		if s&tb != 0 || (best >= 0 && bits.OnesCount32(s) >= best) {
			continue
		}
		ok, survives := true, false
		for _, m := range masks {
			switch {
			case m&tb == 0 && m&s == 0:
				ok = false
			case m&tb != 0 && m&s == 0:
				survives = true
			}
		}
		if ok && survives {
			best = bits.OnesCount32(s)
		}
	}
	return best
}

// rename copies facts with every constant prefixed, so a cluster shape can
// be reused under constants no earlier database has seen.
func rename(fs []fact, prefix string) []fact {
	out := make([]fact, len(fs))
	for i, f := range fs {
		out[i] = fact{rel: f.rel, a: prefix + f.a}
		if f.b != "" {
			out[i].b = prefix + f.b
		}
	}
	return out
}
