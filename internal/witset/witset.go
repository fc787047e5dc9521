package witset

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cow"
	"repro/internal/cq"
	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/eval"
)

// Instance is the witness hypergraph of one (query, database) pair:
// vertices are the distinct endogenous tuples occurring in any witness
// (interned to dense int32 ids), edges are the per-witness tuple sets.
type Instance struct {
	query *cq.Query
	// tuples is the universe, indexed by id, and idOf inverts it. Ids are
	// stable across versions, so ApplyDelta shares both with the instances
	// it derives and extends them only by the tuples a batch interns:
	// idOf is a copy-on-write map for that (a build's plain map, wrapped).
	tuples []db.Tuple
	idOf   cow.Map[db.Tuple, int32]
	// rows holds one sorted id set per kept witness: in enumeration order
	// for a built instance. A delta-maintained instance leaves it nil until
	// Rows assembles it (under rowsOnce) from its components; nrows counts
	// the rows either way.
	rows     [][]int32
	rowsOnce sync.Once
	nrows    int
	// unbreakable records that some witness had no endogenous tuples, so no
	// deletion set can falsify the query (infinite resilience). Enumeration
	// stops at the first such witness, so rows is then partial.
	unbreakable bool
	// weights holds per-tuple deletion costs, indexed by tuple id. nil means
	// every tuple costs 1 (the cardinality case); non-nil weights are all
	// >= 1, which every weighted bound and budget computation relies on,
	// and WithWeights caps their total at MaxTotalWeight.
	weights []int64
	// base is the unweighted instance a weighted view was derived from
	// (WithWeights): the view's component split re-costs base's. nil
	// otherwise.
	base *Instance

	minOnce sync.Once
	min     *Family // superset-eliminated family
	rawOnce sync.Once
	raw     *Family // family without elimination (ablation)

	// The kernel is cached under a mutex rather than a sync.Once so that a
	// cancelled kernelization does not poison the cache: only successful
	// results are stored, and the next caller simply retries.
	kernMu sync.Mutex
	kern   *Kernel // kernelized normalized family (solve pipeline)
	// split holds the components of the un-kernelized normalized family:
	// set once, by the first Components call or by ApplyDelta carrying the
	// base instance's split across a delta. splitMu serializes the first
	// computation.
	splitMu sync.Mutex
	split   atomic.Pointer[componentSplit]
}

// wrapIDs takes over a build's tuple-to-id map as the instance's
// copy-on-write id map.
func wrapIDs(m map[db.Tuple]int32) cow.Map[db.Tuple, int32] {
	return cow.From(m, db.Tuple.Hash, nil)
}

// Build enumerates the witnesses of q over d and interns their endogenous
// tuple sets, skipping witnesses rejected by keep (nil keeps all). It polls
// ctx during enumeration and returns ctx.Err() once cancelled. Build is
// BuildWith with default options; see there for the enumeration contract.
func Build(ctx context.Context, q *cq.Query, d *db.Database, keep func(eval.Witness) bool) (*Instance, error) {
	inst, _, err := BuildWith(ctx, q, d, BuildOptions{Keep: keep})
	return inst, err
}

// Query returns the query the instance was built for.
func (in *Instance) Query() *cq.Query { return in.query }

// Unbreakable reports that some witness consists purely of exogenous
// tuples: the query cannot be falsified by endogenous deletions.
func (in *Instance) Unbreakable() bool { return in.unbreakable }

// NumWitnesses returns the number of kept witnesses (edges of the
// hypergraph, before deduplication).
func (in *Instance) NumWitnesses() int { return in.nrows }

// NumTuples returns the size of the interned tuple universe.
func (in *Instance) NumTuples() int { return len(in.tuples) }

// Tuple returns the tuple with the given id.
func (in *Instance) Tuple(id int32) db.Tuple { return in.tuples[id] }

// Tuples returns the interned universe, indexed by id. Callers must treat
// the slice as read-only: it is shared by every consumer of the instance.
func (in *Instance) Tuples() []db.Tuple { return in.tuples }

// ID returns the id of t and whether t occurs in any witness.
func (in *Instance) ID(t db.Tuple) (int32, bool) {
	return in.idOf.Get(t)
}

// Rows returns the per-witness id sets, each sorted: in enumeration order
// for a built instance, component by component (in Components order) for
// one ApplyDelta maintained, which assembles them on first use. Read-only,
// like Tuples.
func (in *Instance) Rows() [][]int32 {
	in.rowsOnce.Do(func() {
		sp := in.split.Load()
		if in.rows != nil || sp == nil || in.nrows == 0 {
			return
		}
		rows := make([][]int32, 0, in.nrows)
		for _, c := range sp.comps {
			rows = append(rows, c.rows...)
		}
		in.rows = rows
	})
	return in.rows
}

// Weights returns the per-tuple deletion costs, indexed by tuple id, or nil
// when every tuple costs 1 (the cardinality case). Read-only, like Tuples.
func (in *Instance) Weights() []int64 { return in.weights }

// Weight returns the deletion cost of the tuple with the given id; 1 on an
// unweighted instance.
func (in *Instance) Weight(id int32) int64 {
	if in.weights == nil {
		return 1
	}
	return in.weights[id]
}

// MaxTotalWeight bounds the sum of a weighted instance's deletion costs.
// The solvers add costs as plain int64 (a set's cost, a bound plus a
// cost); with every cost sum at most 2^62, none of them can wrap.
const MaxTotalWeight = 1 << 62

// WithWeights returns a derived instance over the same witness hypergraph
// with per-tuple deletion costs attached: the tuple universe and rows are
// shared (witness enumeration is never repaid), and so is the component
// split, which costs play no part in — the view's components are the base
// instance's with the costs attached, and their fingerprints reuse the
// base components' rendering. The families and the kernel are private to
// the view, because kernelization's domination rule is weight-sensitive.
// weights is indexed by tuple id, must cover the whole universe, every
// cost must be >= 1, and the costs must total at most MaxTotalWeight. The
// base instance is not modified; cached unweighted IRs stay valid for
// concurrent requests.
func (in *Instance) WithWeights(weights []int64) (*Instance, error) {
	if len(weights) != len(in.tuples) {
		return nil, fmt.Errorf("witset: %d weights for a universe of %d tuples", len(weights), len(in.tuples))
	}
	var total int64
	for _, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("witset: tuple weight %d is below 1", w)
		}
		// total <= MaxTotalWeight here, so the subtraction cannot wrap.
		if w > MaxTotalWeight-total {
			return nil, fmt.Errorf("witset: tuple weights total more than 2^62")
		}
		total += w
	}
	// A view of a view re-costs the same unweighted split; a weighted
	// instance of no view (a delta's result) has none to offer.
	base := in.base
	if in.weights == nil {
		base = in
	}
	return &Instance{
		query:       in.query,
		tuples:      in.tuples,
		idOf:        in.idOf,
		rows:        in.Rows(),
		nrows:       in.nrows,
		unbreakable: in.unbreakable,
		weights:     weights,
		base:        base,
	}, nil
}

// TupleSet projects a set of ids back to tuples, sorted.
func (in *Instance) TupleSet(ids []int32) []db.Tuple {
	out := make([]db.Tuple, len(ids))
	for i, id := range ids {
		out[i] = in.tuples[id]
	}
	db.SortTuples(out)
	return out
}

// Family returns the instance's hitting-set family: rows normalized
// (deduplicated and superset-eliminated — hitting a subset always hits its
// supersets, so elimination never changes the optimum) with bitset rows and
// per-element occurrence lists. keepSupersets skips that normalization and
// returns the raw family, which the ablation harness uses to measure the
// preprocessing's contribution. Both variants are computed at most once per
// instance and may be requested from multiple goroutines.
func (in *Instance) Family(keepSupersets bool) *Family {
	if keepSupersets {
		in.rawOnce.Do(func() {
			in.raw = NewFamily(in.Rows(), len(in.tuples), true)
			in.raw.W = in.weights
		})
		return in.raw
	}
	in.minOnce.Do(func() {
		in.min = NewFamily(in.Rows(), len(in.tuples), false)
		in.min.W = in.weights
	})
	return in.min
}

// Kernel returns the kernelization of the instance's normalized family
// (unit-row forcing + dominated-tuple elimination to fixpoint), computed at
// most once and shared by concurrent solvers. The kernel preserves ρ and
// one optimum but not the full set of optima; the enumerator uses
// Components instead.
func (in *Instance) Kernel() *Kernel {
	k, _ := in.KernelCtx(context.Background())
	return k
}

// KernelCtx is Kernel with cancellation: the underlying kernelization
// polls ctx, and a cancelled run returns ctx's error without caching
// anything, so a later call with a live context computes the kernel
// normally. Concurrent callers serialize on the computation; the first
// success is shared by all.
func (in *Instance) KernelCtx(ctx context.Context) (*Kernel, error) {
	in.kernMu.Lock()
	defer in.kernMu.Unlock()
	if in.kern != nil {
		return in.kern, nil
	}
	k, err := KernelizeCtx(ctx, in.Family(false))
	if err != nil {
		return nil, err
	}
	in.kern = k
	return k, nil
}

// Components returns the connected components of the instance's raw
// (un-kernelized) family, computed at most once, carried over from the
// base instance by ApplyDelta, or re-costed from the base instance's by a
// weighted view. This is the decomposition the all-optima
// enumerator, responsibility, and the engine's solve pipeline use: it
// preserves the full set of minimum hitting sets, which kernelization's
// domination rule does not.
//
// The split runs on the raw rows — linear to build, where the globally
// normalized family pays a quadratic superset scan over every witness row
// — and each component is then normalized over its own small local
// universe. Superset rows can only relate rows of one raw component (a
// superset contains its subset's elements), so the union of the
// per-component normalized rows equals the globally normalized family;
// the partition itself can only be coarser (a dropped superset row may be
// the sole bridge between two finer groups), which every consumer
// tolerates: components only need to be element-disjoint for their minima
// and optima to combine.
func (in *Instance) Components() []*Component {
	if sp := in.split.Load(); sp != nil {
		return sp.comps
	}
	in.splitMu.Lock()
	defer in.splitMu.Unlock()
	if sp := in.split.Load(); sp != nil {
		return sp.comps
	}
	var comps []*Component
	if in.base != nil {
		comps = withCosts(in.base.Components(), in.weights)
	} else {
		// Decompose(in.Family(true)) without the raw family's bitsets and
		// occurrence lists, which the split never reads: the rows are
		// sorted sets already, and the family would only order them by size.
		rows := slices.Clone(in.Rows())
		slices.SortStableFunc(rows, func(a, b []int32) int { return len(a) - len(b) })
		comps = decompose(rows, len(in.tuples), in.weights)
	}
	in.split.Store(&componentSplit{comps: comps})
	return comps
}

// Family is a normalized set family over a dense element universe, stored
// both as sorted id rows (for iteration) and as bitsets (for word-parallel
// subset / disjointness tests). Rows are ordered by increasing size, so the
// first unhit row is always a smallest one.
type Family struct {
	// N is the universe size; Rows[i] and Bits[i] describe the same set.
	N    int
	Rows [][]int32
	Bits []Bits
	// Occ[e] lists the indexes of the rows containing element e.
	Occ [][]int32
	// W holds per-element deletion costs (all >= 1), indexed like the
	// universe, or nil when every element costs 1. Row elimination is
	// weight-oblivious — only chosen elements cost anything — so W rides
	// along unchanged through every re-normalization over the same
	// universe; Kernelize's domination rule and Decompose consult it.
	W []int64
}

// Cost returns the deletion cost of element e: W[e], or 1 on a unit family.
func (f *Family) Cost(e int32) int64 {
	if f.W == nil {
		return 1
	}
	return f.W[e]
}

// NewFamily normalizes raw rows over a universe of n elements: each row is
// sorted and deduplicated, the family is ordered by row size, and — unless
// keepSupersets — duplicate rows and supersets are dropped. The input rows
// are not modified.
func NewFamily(raw [][]int32, n int, keepSupersets bool) *Family {
	f, _ := newFamilyPolled(raw, n, keepSupersets, nil)
	return f
}

// newFamilyPolled is NewFamily with an optional cancellation poll: the
// quadratic superset-elimination scan checks poll and aborts with the
// context's error, which is what makes KernelizeCtx's per-round
// re-normalization promptly cancellable. A nil poll never cancels.
func newFamilyPolled(raw [][]int32, n int, keepSupersets bool, poll *ctxpoll.Poller) (*Family, error) {
	rows := make([][]int32, len(raw))
	for i, s := range raw {
		// Build and the kernelization rounds hand over rows that are
		// already strictly increasing; those are shared as-is (rows are
		// read-only everywhere downstream) instead of paying the defensive
		// copy + sort + dedup per row.
		if isSortedSet(s) {
			rows[i] = s
			continue
		}
		cp := append([]int32(nil), s...)
		sortIDs(cp)
		rows[i] = dedupSorted(cp)
	}
	slices.SortStableFunc(rows, func(a, b []int32) int { return len(a) - len(b) })

	f := &Family{N: n}
	for _, s := range rows {
		if poll.Cancelled() {
			return nil, poll.Err()
		}
		b := NewBits(n)
		for _, e := range s {
			b.Set(e)
		}
		redundant := false
		if !keepSupersets {
			for _, kb := range f.Bits {
				if poll.Cancelled() {
					return nil, poll.Err()
				}
				// Rows arrive in increasing size, so any containment is
				// kept ⊆ candidate; equality also lands here (dedup).
				if SubsetOf(kb, b) {
					redundant = true
					break
				}
			}
		}
		if !redundant {
			f.Rows = append(f.Rows, s)
			f.Bits = append(f.Bits, b)
		}
	}
	f.Occ = make([][]int32, n)
	for i, s := range f.Rows {
		for _, e := range s {
			f.Occ[e] = append(f.Occ[e], int32(i))
		}
	}
	return f, nil
}

func sortIDs(s []int32) {
	slices.Sort(s)
}

// isSortedSet reports whether s is strictly increasing, i.e. already
// sorted and duplicate-free.
func isSortedSet(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

func dedupSorted(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
