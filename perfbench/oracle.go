package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/api"
)

// The answer checks. They evaluate queries with the benchmark's own join
// evaluator (factIndex; no internal/eval) and compare against references
// computed by brute force per cluster (gen.go), which share none of the
// kernel, decomposition, portfolio, caches or HTTP of the served path.

// factIndex is an indexed fact set for the benchmark's own join evaluator.
type factIndex struct {
	has   map[fact]bool
	byRel map[string][]fact
	pos   map[string]*[2]map[string][]fact // relation → position → constant → facts
}

func newFactIndex(fs []fact) *factIndex {
	ix := &factIndex{has: map[fact]bool{}, byRel: map[string][]fact{}, pos: map[string]*[2]map[string][]fact{}}
	for _, f := range fs {
		if ix.has[f] {
			continue
		}
		ix.has[f] = true
		ix.byRel[f.rel] = append(ix.byRel[f.rel], f)
		p := ix.pos[f.rel]
		if p == nil {
			p = &[2]map[string][]fact{{}, {}}
			ix.pos[f.rel] = p
		}
		p[0][f.a] = append(p[0][f.a], f)
		if f.b != "" {
			p[1][f.b] = append(p[1][f.b], f)
		}
	}
	return ix
}

// eachWitness calls fn with the facts of every valuation of q into the
// indexed facts minus gone (a fact used by two atoms appears twice), until
// fn returns false.
func (ix *factIndex) eachWitness(q *query, gone map[fact]bool, fn func([]fact) bool) {
	bind := make([]string, q.nvars)
	used := make([]fact, len(q.atoms))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(q.atoms) {
			return fn(used)
		}
		a := q.atoms[i]
		cands := ix.byRel[a.rel]
		for p, v := range a.vars {
			if bind[v] != "" && ix.pos[a.rel] != nil {
				cands = ix.pos[a.rel][p][bind[v]]
				break
			}
		}
		for _, f := range cands {
			args := [2]string{f.a, f.b}
			if gone[f] || (f.b == "") != (len(a.vars) == 1) {
				continue
			}
			var newly []int
			ok := true
			for p, v := range a.vars {
				if bind[v] == "" {
					bind[v] = args[p]
					newly = append(newly, v)
				} else if bind[v] != args[p] {
					ok = false
					break
				}
			}
			if ok {
				used[i] = f
				if !rec(i + 1) {
					return false
				}
			}
			for _, v := range newly {
				bind[v] = ""
			}
		}
		return true
	}
	rec(0)
}

// holds reports whether q is true on the indexed facts minus gone.
func (ix *factIndex) holds(q *query, gone map[fact]bool) bool {
	found := false
	ix.eachWitness(q, gone, func([]fact) bool {
		found = true
		return false
	})
	return found
}

// witnessMasks returns q's distinct witnesses over fs as bit sets of fact
// positions.
func witnessMasks(q *query, fs []fact) []uint32 {
	at := make(map[fact]int, len(fs))
	for i, f := range fs {
		at[f] = i
	}
	seen := map[uint32]bool{}
	var out []uint32
	newFactIndex(fs).eachWitness(q, nil, func(w []fact) bool {
		m := uint32(0)
		for _, f := range w {
			m |= 1 << at[f]
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
		return true
	})
	return out
}

// gammaSet resolves a returned contingency set: every element must be a
// fact of the database, named once.
func gammaSet(ix *factIndex, gamma []string) (map[fact]bool, error) {
	out := make(map[fact]bool, len(gamma))
	for _, s := range gamma {
		f, err := parseFact(s)
		if err != nil {
			return nil, err
		}
		if !ix.has[f] {
			return nil, fmt.Errorf("contingency tuple %s is not in the database", s)
		}
		if out[f] {
			return nil, fmt.Errorf("contingency tuple %s listed twice", s)
		}
		out[f] = true
	}
	return out, nil
}

// checkFalsifies checks that gamma lies in D and that q is false on D − Γ.
func checkFalsifies(q *query, ix *factIndex, gamma []string) (map[fact]bool, error) {
	g, err := gammaSet(ix, gamma)
	if err != nil {
		return nil, err
	}
	if ix.holds(q, g) {
		return nil, fmt.Errorf("%s still holds after deleting the %d-tuple contingency set", q.name, len(g))
	}
	return g, nil
}

// checkSolve checks a solve answer against the reference ρ (or, when
// weights is non-nil, the reference minimum cost) and checks its
// contingency set.
func checkSolve(q *query, ix *factIndex, res *api.Result, wantRho int, weights map[fact]int64, wantCost int64) error {
	if res.Unbreakable {
		return fmt.Errorf("%s: answered unbreakable", q.name)
	}
	g, err := checkFalsifies(q, ix, res.Contingency)
	if err != nil {
		return fmt.Errorf("%s: %v", q.name, err)
	}
	if weights == nil {
		if res.Rho != wantRho || len(g) != wantRho {
			return fmt.Errorf("%s: rho %d with a %d-tuple contingency set, reference rho %d", q.name, res.Rho, len(g), wantRho)
		}
		return nil
	}
	total := int64(0)
	for f := range g {
		total += weightOf(weights, f)
	}
	if res.Cost != wantCost || total != wantCost {
		return fmt.Errorf("%s: cost %d with a contingency set of weight %d, reference cost %d", q.name, res.Cost, total, wantCost)
	}
	return nil
}

func weightOf(weights map[fact]int64, f fact) int64 {
	if w, ok := weights[f]; ok {
		return w
	}
	return 1
}

// checkEnumerate checks that an enumeration returned between 1 and
// maxSets distinct minimum contingency sets, each of reference size.
func checkEnumerate(q *query, ix *factIndex, rho, total int, sets [][]string, wantRho, maxSets int) error {
	if rho != wantRho || total != len(sets) || len(sets) == 0 || len(sets) > maxSets {
		return fmt.Errorf("%s: enumerate rho %d, %d sets (total %d), reference rho %d, max_sets %d", q.name, rho, len(sets), total, wantRho, maxSets)
	}
	seen := map[string]bool{}
	for _, set := range sets {
		g, err := checkFalsifies(q, ix, set)
		if err != nil {
			return fmt.Errorf("%s: enumerated set: %v", q.name, err)
		}
		if len(g) != wantRho {
			return fmt.Errorf("%s: enumerated a %d-tuple set, reference rho %d", q.name, len(g), wantRho)
		}
		sorted := append([]string(nil), set...)
		sort.Strings(sorted)
		key := strings.Join(sorted, "\x00")
		if seen[key] {
			return fmt.Errorf("%s: set %v enumerated twice", q.name, set)
		}
		seen[key] = true
	}
	return nil
}

// checkCounterfactual checks a responsibility answer for tuple t: k equals
// the reference, Γ lies in D without t and has k tuples, q holds on D − Γ
// and fails on D − Γ − {t}.
func checkCounterfactual(q *query, ix *factIndex, tuple string, k int64, gamma []string, wantK int) error {
	t, err := parseFact(tuple)
	if err != nil {
		return err
	}
	if k != int64(wantK) {
		return fmt.Errorf("%s: responsibility k=%d for %s, reference %d", q.name, k, tuple, wantK)
	}
	g, err := gammaSet(ix, gamma)
	if err != nil {
		return fmt.Errorf("%s: responsibility of %s: %v", q.name, tuple, err)
	}
	if g[t] || int64(len(g)) != k {
		return fmt.Errorf("%s: responsibility of %s: contingency set of %d tuples (contains t: %v), k=%d", q.name, tuple, len(g), g[t], k)
	}
	if !ix.holds(q, g) {
		return fmt.Errorf("%s: responsibility of %s: q is already false on D − Γ", q.name, tuple)
	}
	g[t] = true
	if ix.holds(q, g) {
		return fmt.Errorf("%s: responsibility of %s: q still holds on D − Γ − {t}", q.name, tuple)
	}
	return nil
}

// rankEntry is one entry of a reference ranking.
type rankEntry struct {
	tuple string
	k     int
}

// checkTopK checks a ranking against the reference one: the same tuples
// with the same k in the same order (ranked from 1, by k and then by tuple
// text, as many as the reference holds), and every contingency set
// counterfactual.
func checkTopK(q *query, ix *factIndex, ranked []api.RankedTuple, want []rankEntry) error {
	if len(ranked) != len(want) {
		return fmt.Errorf("%s: top-k returned %d entries, the reference ranking %d", q.name, len(ranked), len(want))
	}
	for i, e := range ranked {
		if e.Rank != i+1 {
			return fmt.Errorf("%s: top-k entry %d has rank %d", q.name, i, e.Rank)
		}
		if e.Tuple != want[i].tuple || e.K != int64(want[i].k) {
			return fmt.Errorf("%s: top-k rank %d is %s (k=%d), the reference ranks %s (k=%d) there", q.name, e.Rank, e.Tuple, e.K, want[i].tuple, want[i].k)
		}
		if err := checkCounterfactual(q, ix, e.Tuple, e.K, e.Contingency, want[i].k); err != nil {
			return fmt.Errorf("top-k rank %d: %v", e.Rank, err)
		}
	}
	return nil
}

// checkDecide checks that decide holds exactly when k >= ρ.
func checkDecide(q *query, res *api.Result, k, wantRho int) error {
	if res.Holds != (k >= wantRho) {
		return fmt.Errorf("%s: decide k=%d answered %v, reference rho %d", q.name, k, res.Holds, wantRho)
	}
	return nil
}

// checkVerify checks a verify_contingency verdict.
func checkVerify(q *query, res *api.Result, wantValid bool) error {
	if res.Valid != wantValid {
		return fmt.Errorf("%s: verify_contingency answered valid=%v (%s), want %v", q.name, res.Valid, res.Reason, wantValid)
	}
	return nil
}

// checkClassify checks a verdict against the paper.
func checkClassify(q *query, res *api.Result) error {
	if res.Verdict != q.verdict {
		return fmt.Errorf("%s: classified %q, the paper proves %q", q.name, res.Verdict, q.verdict)
	}
	return nil
}

// checkWatchLine checks that a watch line carries the version the PATCH
// produced and the ρ the model fixes by construction.
func checkWatchLine(line *api.Result, wantVersion uint64, wantRho int) error {
	if line.Version != wantVersion || line.Rho != wantRho || line.Unbreakable {
		return fmt.Errorf("watch line version %d rho %d (unbreakable %v), want version %d rho %d",
			line.Version, line.Rho, line.Unbreakable, wantVersion, wantRho)
	}
	return nil
}

// checkRecovered compares a recovered registration with the model: same
// version, same number of facts, and every model fact present (allPresent,
// established by a verify_contingency over the model's full fact set).
func checkRecovered(info api.DBInfo, allPresent bool, wantVersion uint64, wantFacts int) error {
	if info.Version != wantVersion || info.Tuples != wantFacts || !allPresent {
		return fmt.Errorf("recovered %s at version %d with %d facts (all model facts present: %v), model has version %d with %d facts",
			info.Name, info.Version, info.Tuples, allPresent, wantVersion, wantFacts)
	}
	return nil
}
