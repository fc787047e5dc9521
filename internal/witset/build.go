package witset

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/cq"
	"repro/internal/ctxpoll"
	"repro/internal/db"
	"repro/internal/eval"
)

// BuildOptions configures BuildWith.
type BuildOptions struct {
	// Keep filters witnesses (nil keeps all). A non-nil filter forces the
	// sequential build: the callback is caller-supplied and not assumed
	// safe to run from several goroutines.
	Keep func(eval.Witness) bool
	// Workers bounds the sharded enumeration worker pool. <= 0 means
	// min(4, GOMAXPROCS); 1 disables sharding.
	Workers int
}

// BuildInfo reports how a build ran.
type BuildInfo struct {
	// Shards is the number of enumeration shards used (1 = sequential).
	Shards int
}

// BuildWith is Build with options: it enumerates the witnesses of q over d
// under a cost-based join plan and interns their endogenous tuple sets,
// sharding the enumeration across Workers goroutines when profitable. The
// resulting instance — tuple ids, row contents, row order, unbreakable
// flag — is byte-identical regardless of the worker count; see
// mergeShards for why. It polls ctx during enumeration and returns
// ctx.Err() once cancelled.
//
// BuildWith is the single place the database is read; it freezes d's
// relation indexes up front so the instance can later be shared with code
// that still holds d, and so every shard sees the same index state.
func BuildWith(ctx context.Context, q *cq.Query, d *db.Database, opts BuildOptions) (*Instance, BuildInfo, error) {
	d.Freeze()
	plan := eval.NewPlan(q, d)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	if n := plan.NumFirstCandidates(); workers > n {
		workers = n
	}
	if opts.Keep != nil || workers <= 1 {
		inst, err := buildSequential(ctx, q, plan, opts.Keep)
		return inst, BuildInfo{Shards: 1}, err
	}
	inst, err := buildParallel(ctx, q, plan, workers)
	return inst, BuildInfo{Shards: workers}, err
}

// tupMemo caches the last (tuple, id) interned for one atom position. In a
// backtracking join the tuple matched by an outer atom is constant across
// the whole subtree below it, so this one-entry memo absorbs almost every
// universe lookup for the outer atoms.
type tupMemo struct {
	t  db.Tuple
	id int32
	ok bool
}

// builder accumulates one witness universe and its rows. In shard mode the
// rows are kept in tuple-comparison order (what mergeShards needs to
// replay the global interning); otherwise ids are sorted numerically, the
// Instance row invariant.
type builder struct {
	endo   []bool // per atom: relation is endogenous
	tuples []db.Tuple
	idOf   map[db.Tuple]int32
	rows   [][]int32
	// unbreakable records a witness with no endogenous tuples; enumeration
	// stops there (add returns false), leaving rows partial.
	unbreakable bool

	memo []tupMemo
	// slab is the current arena block; rows are capacity-clamped subslices
	// of it, so a build does one slice allocation per block instead of one
	// per witness.
	slab []int32
	// st/sid/shave are the per-witness scratch: the distinct endogenous
	// tuples (at most one per atom), their ids, and whether the id is
	// already known.
	st    []db.Tuple
	sid   []int32
	shave []bool

	poll      *ctxpoll.Poller
	keep      func(eval.Witness) bool
	shardMode bool
}

func newBuilder(q *cq.Query, keep func(eval.Witness) bool, poll *ctxpoll.Poller, shardMode bool) *builder {
	m := len(q.Atoms)
	endo := make([]bool, m)
	for i := range q.Atoms {
		endo[i] = !q.IsExogenous(q.Atoms[i].Rel)
	}
	return &builder{
		endo:      endo,
		idOf:      map[db.Tuple]int32{},
		memo:      make([]tupMemo, m),
		st:        make([]db.Tuple, m),
		sid:       make([]int32, m),
		shave:     make([]bool, m),
		poll:      poll,
		keep:      keep,
		shardMode: shardMode,
	}
}

// add interns one witness. tup is the per-atom matched tuple slice from the
// join plan. The id-assignment order is the contract ApplyDelta and the
// shard merge rely on: within a row, new tuples receive ids in
// tuple-comparison order; rows append in enumeration order.
func (b *builder) add(w eval.Witness, tup []db.Tuple) bool {
	if b.poll.Cancelled() {
		return false
	}
	if b.keep != nil && !b.keep(w) {
		return true
	}
	// Collect the distinct endogenous tuples into the fixed scratch. A
	// witness has at most one tuple per atom, so a linear scan beats the
	// per-witness map the old build allocated.
	nd := 0
	needIntern := false
	for i, t := range tup {
		if !b.endo[i] {
			continue
		}
		dup := false
		for j := 0; j < nd; j++ {
			if b.st[j] == t {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		var id int32
		have := false
		if m := &b.memo[i]; m.ok && m.t == t {
			id, have = m.id, true
		} else if g, ok := b.idOf[t]; ok {
			id, have = g, true
			b.memo[i] = tupMemo{t: t, id: g, ok: true}
		}
		b.st[nd], b.sid[nd], b.shave[nd] = t, id, have
		if !have {
			needIntern = true
		}
		nd++
	}
	if nd == 0 {
		b.unbreakable = true
		return false
	}
	if needIntern || b.shardMode {
		b.sortScratchByTuple(nd)
		for j := 0; j < nd; j++ {
			if !b.shave[j] {
				id := int32(len(b.tuples))
				b.idOf[b.st[j]] = id
				b.tuples = append(b.tuples, b.st[j])
				b.sid[j] = id
			}
		}
	}
	row := b.arenaRow(nd)
	copy(row, b.sid[:nd])
	if !b.shardMode {
		// Instance rows are numerically sorted id sets. (When nothing was
		// interned the scratch is still in atom order — sorting the ids
		// directly lands in the same place.)
		insertionSortIDs(row)
	}
	b.rows = append(b.rows, row)
	return true
}

// sortScratchByTuple insertion-sorts the first n scratch entries by
// db.CompareTuples, keeping st/sid/shave aligned. n is at most the atom
// count, so insertion sort wins over anything allocating.
func (b *builder) sortScratchByTuple(n int) {
	for i := 1; i < n; i++ {
		t, id, have := b.st[i], b.sid[i], b.shave[i]
		j := i - 1
		for j >= 0 && db.CompareTuples(b.st[j], t) > 0 {
			b.st[j+1], b.sid[j+1], b.shave[j+1] = b.st[j], b.sid[j], b.shave[j]
			j--
		}
		b.st[j+1], b.sid[j+1], b.shave[j+1] = t, id, have
	}
}

const slabMin = 1024

// arenaRow carves an n-id row out of the current slab, growing the arena
// geometrically when the block is exhausted. Earlier rows keep referencing
// their old blocks; capacity-clamping stops any append through a row from
// bleeding into its neighbour.
func (b *builder) arenaRow(n int) []int32 {
	if len(b.slab)+n > cap(b.slab) {
		sz := 2 * cap(b.slab)
		if sz < slabMin {
			sz = slabMin
		}
		for sz < n {
			sz *= 2
		}
		b.slab = make([]int32, 0, sz)
	}
	off := len(b.slab)
	b.slab = b.slab[:off+n]
	return b.slab[off : off+n : off+n]
}

func insertionSortIDs(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func buildSequential(ctx context.Context, q *cq.Query, plan *eval.Plan, keep func(eval.Witness) bool) (*Instance, error) {
	b := newBuilder(q, keep, ctxpoll.New(ctx), false)
	plan.ForEach(b.add)
	if err := b.poll.Err(); err != nil {
		return nil, err
	}
	return &Instance{query: q, tuples: b.tuples, idOf: wrapIDs(b.idOf), rows: b.rows, nrows: len(b.rows), unbreakable: b.unbreakable}, nil
}

// buildParallel partitions the first join step's candidate tuples into
// contiguous ranges, one per worker; each worker enumerates its range with
// private scratch into a shard-local universe, and mergeShards splices the
// shards back together. Shards after one that found an unbreakable witness
// do throwaway work (the merge truncates there), which is acceptable
// because unbreakable instances terminate enumeration almost immediately
// in the sequential case too.
func buildParallel(ctx context.Context, q *cq.Query, plan *eval.Plan, workers int) (*Instance, error) {
	n := plan.NumFirstCandidates()
	shards := make([]*builder, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		b := newBuilder(q, nil, ctxpoll.New(ctx), true)
		shards[i] = b
		lo, hi := i*n/workers, (i+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan.ForEachRange(lo, hi, b.add)
		}()
	}
	wg.Wait()
	for _, sb := range shards {
		if err := sb.poll.Err(); err != nil {
			return nil, err
		}
	}
	return mergeShards(q, shards), nil
}

// mergeShards replays the sequential build from the shard outputs.
//
// Why the result is byte-identical to buildSequential: the shard ranges
// partition the first step's candidate list in order, so concatenating the
// shards' witness streams in shard order is exactly the sequential
// enumeration order. The sequential build assigns ids by first occurrence,
// visiting each row's distinct tuples in tuple-comparison order; shard
// rows are stored in precisely that element order (shardMode), so walking
// shard rows in order and interning unseen tuples as they appear assigns
// every tuple the same id the sequential build would. Rows then get the
// numeric id sort the Instance invariant requires. A shard that stopped at
// an unbreakable witness holds the rows that preceded it; the merge stops
// after that shard, matching the sequential early exit.
func mergeShards(q *cq.Query, shards []*builder) *Instance {
	totalRows, totalIDs, localTuples := 0, 0, 0
	for _, sb := range shards {
		totalRows += len(sb.rows)
		localTuples += len(sb.tuples)
		for _, r := range sb.rows {
			totalIDs += len(r)
		}
		if sb.unbreakable {
			break
		}
	}
	// localTuples double-counts tuples seen by several shards, but as a map
	// size hint an overestimate just avoids rehashing.
	inst := &Instance{query: q}
	idOf := make(map[db.Tuple]int32, localTuples)
	inst.rows = make([][]int32, 0, totalRows)
	slab := make([]int32, 0, totalIDs)
	for _, sb := range shards {
		// remap is the shard-local id -> global id table (-1 = not yet
		// resolved); local ids are dense, so a flat slice beats a map.
		remap := make([]int32, len(sb.tuples))
		for i := range remap {
			remap[i] = -1
		}
		for _, row := range sb.rows {
			off := len(slab)
			slab = slab[:off+len(row)]
			out := slab[off : off+len(row) : off+len(row)]
			for j, lid := range row {
				gid := remap[lid]
				if gid < 0 {
					t := sb.tuples[lid]
					g, ok := idOf[t]
					if !ok {
						g = int32(len(inst.tuples))
						idOf[t] = g
						inst.tuples = append(inst.tuples, t)
					}
					remap[lid] = g
					gid = g
				}
				out[j] = gid
			}
			insertionSortIDs(out)
			inst.rows = append(inst.rows, out)
		}
		if sb.unbreakable {
			inst.unbreakable = true
			break
		}
	}
	inst.idOf = wrapIDs(idOf)
	inst.nrows = len(inst.rows)
	return inst
}
