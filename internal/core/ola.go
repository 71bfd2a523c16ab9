package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// injectOLAChunk fires once per progressive chunk, inside the engine's
// chunk-containment scope: a fired panic or error costs one chunk, not
// the estimate accumulated so far.
var injectOLAChunk = fault.NewPoint("core.ola.chunk", "OLA per-chunk processing")

// OLAConfig tunes the online-aggregation engine.
type OLAConfig struct {
	// ChunkRows is the number of rows processed between checkpoints.
	ChunkRows int
	// MaxFraction caps the fraction of the table read (1 = run to
	// completion if never stopped).
	MaxFraction float64
	// StopWhenSpecMet stops at the first checkpoint whose CIs satisfy
	// the spec. NOTE: stopping on an interim CI is the "peeking" problem
	// — the stopped-at interval no longer has its nominal coverage. The
	// engine does it when asked (it is what OLA users do) and downgrades
	// the guarantee accordingly.
	StopWhenSpecMet bool
	// MaxBuildRows caps the size of joined dimension tables: join queries
	// are supported by fully materializing every non-fact table into a
	// hash table (the simplified ripple-join scheme, statistically a
	// cluster sample keyed by fact row) as long as each fits this bound.
	MaxBuildRows int
	// Seed drives the row permutation.
	Seed int64
	// Workers is the morsel-parallel worker count for chunk processing;
	// 0 defers to a context override or runtime.GOMAXPROCS. Estimates are
	// bit-identical for every worker count: the permuted order is cut into
	// fixed shards and shard results merge in shard order.
	Workers int
}

// olaShardRows is the fixed shard size within a chunk. Shard boundaries
// depend only on the chunk bounds, never on the worker count, so float
// accumulation order — shard-local sums folded in shard order — is the
// same no matter how many workers ran.
const olaShardRows = 1024

// DefaultOLAConfig processes 4096-row chunks up to the full table and
// joins dimensions up to one million rows.
func DefaultOLAConfig() OLAConfig {
	return OLAConfig{ChunkRows: 4096, MaxFraction: 1, StopWhenSpecMet: true,
		MaxBuildRows: 1 << 20, Seed: 3}
}

// Progress is one OLA checkpoint delivered to the observer callback.
type Progress struct {
	// RowsRead is the number of permuted rows consumed so far.
	RowsRead int
	// Fraction is RowsRead / table size.
	Fraction float64
	// Result is the current annotated estimate.
	Result *Result
}

// OLAEngine implements online aggregation: rows stream in random order
// and estimates with shrinking confidence intervals are emitted at every
// checkpoint. It supports single-table aggregation queries whose select
// items are bare group columns or bare linear aggregates; anything else
// falls back to exact execution.
type OLAEngine struct {
	Catalog *storage.Catalog
	Config  OLAConfig
}

// NewOLAEngine builds an OLA engine.
func NewOLAEngine(cat *storage.Catalog, cfg OLAConfig) *OLAEngine {
	if cfg.ChunkRows <= 0 {
		cfg.ChunkRows = 4096
	}
	if cfg.MaxFraction <= 0 || cfg.MaxFraction > 1 {
		cfg.MaxFraction = 1
	}
	return &OLAEngine{Catalog: cat, Config: cfg}
}

// Name implements Engine.
func (e *OLAEngine) Name() Technique { return TechniqueOLA }

// ExecuteContext implements Engine by running ExecuteProgressiveContext
// without an observer. At the deadline the engine does not error: it
// stops reading and returns its best progressive estimate so far with an
// honest a-posteriori CI — the error/latency trade-off made explicit
// (graceful degradation).
func (e *OLAEngine) ExecuteContext(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return e.ExecuteProgressiveContext(ctx, stmt, spec, nil)
}

// olaAgg is a per-group, per-slot accumulator over the rows read so far.
// For SUM/COUNT estimation it treats the contribution z_i (the aggregate
// argument for rows in the group, 0 otherwise) as a simple random sample
// without replacement of size k from N rows:
//
//	Ŝ = N·z̄,  Var(Ŝ) = N²·(1-k/N)·s_z²/k.
type olaAgg struct {
	sum   float64 // Σ z over group rows
	sumsq float64 // Σ z² over group rows
	n     float64 // rows in group
}

type olaGroup struct {
	key  string
	vals []storage.Value
	aggs []olaAgg
}

// ExecuteProgressiveContext runs the query with checkpoints; observe (if
// non-nil) is called at each checkpoint and may return false to stop. The
// context is checked between chunks after the first chunk completes:
// cancellation or a deadline ends the progressive loop and the best
// estimate so far is returned (never an error), keeping its a-posteriori
// guarantee — a deadline is a data-independent stopping rule, so unlike
// spec-triggered early stopping it does not void the CI's coverage.
func (e *OLAEngine) ExecuteProgressiveContext(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec,
	observe func(Progress) bool) (_ *Result, err error) {
	defer contain(&err)
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine ola")
	defer esp.End()
	if !spec.Valid() {
		spec = DefaultErrorSpec
	}
	ok, reason := e.supported(stmt)
	if !ok {
		res, err := (&ExactEngine{Catalog: e.Catalog, Workers: e.Config.Workers}).ExecuteContext(ctx, stmt, spec)
		if err != nil {
			return nil, err
		}
		res.Diagnostics.FellBackToExact = true
		res.Diagnostics.Messages = append(res.Diagnostics.Messages, "ola: fell back to exact: "+reason)
		return res, nil
	}
	setupSp, _ := trace.StartSpan(ctx, "setup")
	t, err := e.Catalog.Table(stmt.From.Name)
	if err != nil {
		setupSp.End()
		return nil, err
	}
	// Stream over a snapshot so the permutation and the reads agree on
	// the row count even while writers keep appending.
	t = t.Snapshot()
	n := t.NumRows()

	// Joined dimensions are fully built into hash tables; the fact table
	// is the sampling unit (simplified ripple join). The combined schema
	// is the fact schema followed by each dimension's schema.
	combined := t.Schema().Clone()
	joins := make([]*olaJoin, 0, len(stmt.Joins))
	for _, jc := range stmt.Joins {
		j, err := e.buildOLAJoin(jc, combined)
		if err != nil {
			return nil, err
		}
		joins = append(joins, j)
		combined = append(combined, j.dimSchema...)
	}

	// Bind expressions against the combined schema.
	var where expr.Expr
	if stmt.Where != nil {
		where = expr.Clone(stmt.Where)
		if err := expr.Bind(where, combined); err != nil {
			return nil, err
		}
	}
	groupExprs := make([]expr.Expr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		groupExprs[i] = expr.Clone(g)
		if err := expr.Bind(groupExprs[i], combined); err != nil {
			return nil, err
		}
	}
	aggs := stmt.Aggregates()
	argExprs := make([]expr.Expr, len(aggs))
	for i, a := range aggs {
		if a.Arg != nil {
			argExprs[i] = expr.Clone(a.Arg)
			if err := expr.Bind(argExprs[i], combined); err != nil {
				return nil, err
			}
		}
	}

	// Random permutation of row indices.
	rng := rand.New(rand.NewSource(e.Config.Seed))
	perm := rng.Perm(n)
	limit := int(math.Ceil(e.Config.MaxFraction * float64(n)))
	if limit > n {
		limit = n
	}

	q := &olaQuery{t: t, joins: joins, where: where, groupExprs: groupExprs,
		aggs: aggs, argExprs: argExprs, perm: perm}
	workers := exec.ResolveWorkers(ctx, e.Config.Workers)
	setupSp.SetAttrInt("rows", int64(n))
	setupSp.SetAttrInt("workers", int64(workers))
	setupSp.End()

	// Chunk/checkpoint spans accumulate across loop iterations; a span per
	// chunk would bloat the tree at default chunk sizes.
	chunkSp, _ := trace.StartOp(ctx, "chunks")
	ckptSp, _ := trace.StartOp(ctx, "checkpoints")
	var checkpoints int64

	groups := make(map[string]*olaGroup)
	read := 0
	stoppedEarly := false

	var final *Result
	deadlineStopped := false
	var chunkErr error
	for read < limit {
		// Always complete at least one chunk so a too-tight deadline still
		// yields an estimate; after that, the deadline wins between chunks.
		if read > 0 && ctx.Err() != nil {
			deadlineStopped = true
			break
		}
		chunkEnd := read + e.Config.ChunkRows
		if chunkEnd > limit {
			chunkEnd = limit
		}
		var t0 time.Time
		if chunkSp != nil {
			t0 = time.Now()
		}
		cerr := func() (cerr error) {
			defer func() {
				if r := recover(); r != nil {
					cerr = fault.AsError(r)
				}
			}()
			if err := injectOLAChunk.Inject(); err != nil {
				return err
			}
			return processOLAChunk(q, groups, read, chunkEnd, workers)
		}()
		if cerr != nil {
			if read == 0 {
				return nil, cerr
			}
			// A mid-stream chunk fault costs only that chunk: groups are
			// folded only after every shard of a chunk succeeds, so the
			// accumulated prefix is an intact SRS and its a-posteriori CI
			// still describes the estimate we return.
			chunkErr = cerr
			break
		}
		if chunkSp != nil {
			chunkSp.AddTime(time.Since(t0))
			chunkSp.AddRows(int64(chunkEnd - read))
			t0 = time.Now()
		}
		read = chunkEnd
		final = e.checkpoint(stmt, aggs, groups, read, n, spec)
		if ckptSp != nil {
			ckptSp.AddTime(time.Since(t0))
			checkpoints++
		}
		p := Progress{RowsRead: read, Fraction: float64(read) / float64(n), Result: final}
		if observe != nil && !observe(p) {
			stoppedEarly = true
			break
		}
		if e.Config.StopWhenSpecMet && final.Diagnostics.SpecSatisfied && read < limit {
			stoppedEarly = true
			break
		}
	}
	if final == nil {
		final = e.checkpoint(stmt, aggs, groups, maxInt(read, 1), n, spec)
	}
	ckptSp.SetAttrInt("checkpoints", checkpoints)
	esp.SetAttrInt("rows_read", int64(read))
	esp.SetAttrFloat("fraction", float64(read)/math.Max(float64(n), 1))
	final.Diagnostics.Latency = time.Since(start)
	final.Diagnostics.SampleFraction = float64(read) / math.Max(float64(n), 1)
	final.Diagnostics.Workers = workers
	stampLineage(&final.Diagnostics, e.Catalog, stmt.From.Name)
	final.Diagnostics.Counters.RowsScanned = int64(read)
	final.Diagnostics.Counters.RowsEmitted = int64(read)
	final.Diagnostics.Counters.Passes = 1
	if stoppedEarly {
		final.Guarantee = GuaranteeNone
		final.Diagnostics.Messages = append(final.Diagnostics.Messages,
			"ola: stopped on an interim CI; the stopped-at interval does not retain its nominal coverage (peeking)")
	}
	if deadlineStopped {
		final.Diagnostics.Partial = true
		final.Diagnostics.Messages = append(final.Diagnostics.Messages, fmt.Sprintf(
			"ola: deadline/cancellation after %d of %d rows; returning best progressive estimate", read, n))
	}
	if chunkErr != nil {
		final.Diagnostics.Partial = true
		final.Diagnostics.Degraded = true
		final.Diagnostics.Messages = append(final.Diagnostics.Messages, fmt.Sprintf(
			"ola: chunk fault after %d of %d rows (%v); returning best progressive estimate", read, n, chunkErr))
	}
	return final, nil
}

// olaQuery bundles the read-only pieces every shard worker shares: the
// snapshot, prebuilt dimension hash tables, bound expressions (expression
// evaluation is pure), and the row permutation.
type olaQuery struct {
	t          *storage.Table
	joins      []*olaJoin
	where      expr.Expr
	groupExprs []expr.Expr
	aggs       []*sqlparse.AggExpr
	argExprs   []expr.Expr
	perm       []int
}

// olaRowTotals holds per-fact-row totals: the fact row is the sampling
// unit, so for SUM/COUNT variance the contributions of all its joined
// rows must be summed before entering the accumulators.
type olaRowTotals struct {
	total []float64 // per slot: summed SUM/COUNT contribution
	seen  []bool    // per slot: contributed at all
}

// olaShardState accumulates one shard of the permuted order into private
// group accumulators, later folded into the global state in shard order.
type olaShardState struct {
	q          *olaQuery
	groups     map[string]*olaGroup
	keyBuf     []storage.Value
	factTotals map[string]*olaRowTotals
}

func newOLAShardState(q *olaQuery) *olaShardState {
	return &olaShardState{q: q,
		groups:     make(map[string]*olaGroup),
		keyBuf:     make([]storage.Value, len(q.groupExprs)),
		factTotals: make(map[string]*olaRowTotals)}
}

// processPermRows consumes permuted positions [lo, hi).
func (sh *olaShardState) processPermRows(lo, hi int) error {
	q := sh.q
	for i := lo; i < hi; i++ {
		ri := q.perm[i]
		if len(q.joins) == 0 {
			if err := sh.processCombined(tableRowAdapter{t: q.t, idx: ri}); err != nil {
				return err
			}
			sh.flushFactRow()
			continue
		}
		// Expand the fact row through the dimension hash tables.
		rows := [][]storage.Value{q.t.Row(ri)}
		for _, j := range q.joins {
			var next [][]storage.Value
			for _, r := range rows {
				matches, err := j.probe(r)
				if err != nil {
					return err
				}
				next = append(next, matches...)
			}
			rows = next
			if len(rows) == 0 {
				break
			}
		}
		for _, r := range rows {
			if err := sh.processCombined(expr.ValuesRow(r)); err != nil {
				return err
			}
		}
		sh.flushFactRow()
	}
	return nil
}

func (sh *olaShardState) processCombined(row expr.Row) error {
	q := sh.q
	if q.where != nil {
		keep, err := expr.EvalBool(q.where, row)
		if err != nil || !keep {
			return err
		}
	}
	for k2, ge := range q.groupExprs {
		v, err := ge.Eval(row)
		if err != nil {
			return err
		}
		sh.keyBuf[k2] = v
	}
	key := sampleKey(sh.keyBuf)
	g, ok := sh.groups[key]
	if !ok {
		g = &olaGroup{key: key, vals: append([]storage.Value(nil), sh.keyBuf...),
			aggs: make([]olaAgg, len(q.aggs))}
		sh.groups[key] = g
	}
	rt, ok := sh.factTotals[key]
	if !ok {
		rt = &olaRowTotals{total: make([]float64, len(q.aggs)), seen: make([]bool, len(q.aggs))}
		sh.factTotals[key] = rt
	}
	for ai, a := range q.aggs {
		var z float64
		switch a.Func {
		case sqlparse.AggCount:
			z = 1
			if !a.Star && q.argExprs[ai] != nil {
				v, err := q.argExprs[ai].Eval(row)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
				}
			}
			rt.total[ai] += z
			rt.seen[ai] = true
		case sqlparse.AggSum:
			v, err := q.argExprs[ai].Eval(row)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue
			}
			rt.total[ai] += v.AsFloat()
			rt.seen[ai] = true
		default: // AVG: the joined row is the value unit
			v, err := q.argExprs[ai].Eval(row)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue
			}
			z = v.AsFloat()
			g.aggs[ai].sum += z
			g.aggs[ai].sumsq += z * z
			g.aggs[ai].n++
		}
	}
	return nil
}

func (sh *olaShardState) flushFactRow() {
	for key, rt := range sh.factTotals {
		g := sh.groups[key]
		for ai := range sh.q.aggs {
			if !rt.seen[ai] {
				continue
			}
			z := rt.total[ai]
			g.aggs[ai].sum += z
			g.aggs[ai].sumsq += z * z
			g.aggs[ai].n++
		}
		delete(sh.factTotals, key)
	}
}

// processOLAChunk consumes permuted positions [lo, hi), cut into fixed
// olaShardRows shards. Each shard accumulates into a fresh olaShardState
// and folds into groups in shard order; a single worker runs the shards
// sequentially through the same code, so estimates are bit-identical for
// every worker count. The chunk is bounded work: cancellation is observed
// between chunks by the caller, preserving OLA's graceful degradation.
func processOLAChunk(q *olaQuery, groups map[string]*olaGroup, lo, hi, workers int) error {
	nShards := (hi - lo + olaShardRows - 1) / olaShardRows
	if workers > nShards {
		workers = nShards
	}
	shards := make([]*olaShardState, nShards)
	runShard := func(s int) error {
		sh := newOLAShardState(q)
		slo := lo + s*olaShardRows
		shi := slo + olaShardRows
		if shi > hi {
			shi = hi
		}
		if err := sh.processPermRows(slo, shi); err != nil {
			return err
		}
		shards[s] = sh
		return nil
	}
	if workers <= 1 {
		for s := 0; s < nShards; s++ {
			if err := runShard(s); err != nil {
				return err
			}
		}
	} else {
		var (
			next     int64
			wg       sync.WaitGroup
			once     sync.Once
			firstErr error
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Contain shard panics to this worker: the chunk fails with
				// a typed error instead of the panic killing the process.
				defer func() {
					if r := recover(); r != nil {
						once.Do(func() { firstErr = fault.AsError(r) })
					}
				}()
				for {
					s := int(atomic.AddInt64(&next, 1)) - 1
					if s >= nShards {
						return
					}
					if err := runShard(s); err != nil {
						once.Do(func() { firstErr = err })
						return
					}
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	// Ordered reduction: shard-local sums fold in shard order.
	for _, sh := range shards {
		for key, g := range sh.groups {
			dst, ok := groups[key]
			if !ok {
				groups[key] = g
				continue
			}
			for ai := range dst.aggs {
				dst.aggs[ai].sum += g.aggs[ai].sum
				dst.aggs[ai].sumsq += g.aggs[ai].sumsq
				dst.aggs[ai].n += g.aggs[ai].n
			}
		}
	}
	return nil
}

// checkpoint materializes the current estimates into an annotated Result.
func (e *OLAEngine) checkpoint(stmt *sqlparse.SelectStmt, aggs []*sqlparse.AggExpr,
	groups map[string]*olaGroup, k, n int, spec ErrorSpec) *Result {

	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	conf := confidencePerEstimate(spec, len(aggs), len(groups))
	out := &Result{Technique: TechniqueOLA, Guarantee: GuaranteeAPosteriori, Spec: spec}
	for j, it := range stmt.Items {
		out.Columns = append(out.Columns, it.Name(j))
	}
	fpc := 1 - float64(k)/math.Max(float64(n), 1)
	if fpc < 0 {
		fpc = 0
	}
	specOK := len(groups) > 0
	for _, key := range keys {
		g := groups[key]
		row := make([]storage.Value, len(stmt.Items))
		items := make([]ItemResult, len(stmt.Items))
		for j, it := range stmt.Items {
			name := it.Name(j)
			switch node := it.Expr.(type) {
			case *sqlparse.AggExpr:
				a := g.aggs[node.Slot]
				est, variance := olaEstimate(node.Func, a, k, n, fpc)
				val := storage.Float64(est)
				if node.Func == sqlparse.AggCount {
					val = storage.Int64(int64(est + 0.5))
				}
				row[j] = val
				iv := stats.CLTInterval(est, variance, math.Max(a.n, 2), conf)
				rel := iv.RelHalfWidth(est)
				items[j] = ItemResult{Name: name, Value: val, IsAggregate: true,
					HasCI: true, CI: iv, RelHalfWidth: rel,
					Variance: variance, SampleN: math.Max(a.n, 2)}
				if rel > spec.RelError {
					specOK = false
				}
			case *expr.ColRef:
				// Bare group column: position matches GroupBy order.
				idx := groupColumnIndex(stmt, node.Name)
				var v storage.Value
				if idx >= 0 && idx < len(g.vals) {
					v = g.vals[idx]
				}
				row[j] = v
				items[j] = ItemResult{Name: name, Value: v}
			default:
				row[j] = storage.Value{}
				items[j] = ItemResult{Name: name}
			}
		}
		out.Rows = append(out.Rows, row)
		out.Items = append(out.Items, items)
	}
	out.Diagnostics.SpecSatisfied = specOK
	return out
}

// olaEstimate scales group accumulators to population estimates under
// simple random sampling of k of n rows.
func olaEstimate(fn sqlparse.AggFunc, a olaAgg, k, n int, fpc float64) (est, variance float64) {
	kk := float64(k)
	nn := float64(n)
	switch fn {
	case sqlparse.AggAvg:
		if a.n == 0 {
			return 0, 0
		}
		mean := a.sum / a.n
		if a.n < 2 {
			return mean, mean * mean
		}
		s2 := (a.sumsq - a.sum*a.sum/a.n) / (a.n - 1)
		return mean, s2 / a.n * fpc
	default: // SUM and COUNT share the z-scaling form
		zbar := a.sum / kk
		est = nn * zbar
		// s_z² over all k rows (zeros included for out-of-group rows).
		sz2 := (a.sumsq - kk*zbar*zbar) / math.Max(kk-1, 1)
		variance = nn * nn * fpc * sz2 / kk
		return est, variance
	}
}

func groupColumnIndex(stmt *sqlparse.SelectStmt, col string) int {
	for i, g := range stmt.GroupBy {
		if c, ok := g.(*expr.ColRef); ok && c.Name == col {
			return i
		}
	}
	return -1
}

// olaJoin is one fully-built dimension of an OLA join: the fact table
// streams, each fact row probes the dimension hash table.
type olaJoin struct {
	dimSchema storage.Schema
	leftKeys  []expr.Expr // bound to the combined schema left of this dim
	ht        map[string][][]storage.Value
	residual  expr.Expr // bound to the combined schema including this dim
}

// buildOLAJoin materializes a dimension hash table for one join clause.
func (e *OLAEngine) buildOLAJoin(jc sqlparse.JoinClause, leftSchema storage.Schema) (*olaJoin, error) {
	dim, err := e.Catalog.Table(jc.Table.Name)
	if err != nil {
		return nil, err
	}
	// Build from a snapshot so the hash table is consistent under
	// concurrent appends to the dimension.
	dim = dim.Snapshot()
	if dim.NumRows() > e.Config.MaxBuildRows {
		return nil, fmt.Errorf("core: OLA join table %s has %d rows, above MaxBuildRows %d",
			jc.Table.Name, dim.NumRows(), e.Config.MaxBuildRows)
	}
	dimSchema := dim.Schema()
	j := &olaJoin{dimSchema: dimSchema.Clone(), ht: make(map[string][][]storage.Value)}

	var rightKeys []expr.Expr
	var rest []expr.Expr
	for _, c := range splitAndExpr(expr.Clone(jc.On)) {
		if eq, ok := c.(*expr.Binary); ok && eq.Op == expr.OpEq {
			lc, rc := expr.Columns(eq.L), expr.Columns(eq.R)
			switch {
			case coveredBySchema(lc, leftSchema) && coveredBySchema(rc, dimSchema):
				if err := expr.Bind(eq.L, leftSchema); err != nil {
					return nil, err
				}
				if err := expr.Bind(eq.R, dimSchema); err != nil {
					return nil, err
				}
				j.leftKeys = append(j.leftKeys, eq.L)
				rightKeys = append(rightKeys, eq.R)
				continue
			case coveredBySchema(rc, leftSchema) && coveredBySchema(lc, dimSchema):
				if err := expr.Bind(eq.R, leftSchema); err != nil {
					return nil, err
				}
				if err := expr.Bind(eq.L, dimSchema); err != nil {
					return nil, err
				}
				j.leftKeys = append(j.leftKeys, eq.R)
				rightKeys = append(rightKeys, eq.L)
				continue
			}
		}
		rest = append(rest, c)
	}
	if len(j.leftKeys) == 0 {
		return nil, fmt.Errorf("core: OLA join with %s needs an equi-key", jc.Table.Name)
	}
	if len(rest) > 0 {
		combined := append(leftSchema.Clone(), dimSchema...)
		j.residual = combineAndExpr(rest)
		if err := expr.Bind(j.residual, combined); err != nil {
			return nil, err
		}
	}

	keyVals := make([]storage.Value, len(rightKeys))
	for i := 0; i < dim.NumRows(); i++ {
		row := dim.Row(i)
		r := expr.ValuesRow(row)
		null := false
		for k, ke := range rightKeys {
			v, err := ke.Eval(r)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				null = true
				break
			}
			keyVals[k] = v
		}
		if null {
			continue
		}
		key := sampleKey(keyVals)
		j.ht[key] = append(j.ht[key], row)
	}
	return j, nil
}

// probe expands one partial combined row through this dimension.
func (j *olaJoin) probe(left []storage.Value) ([][]storage.Value, error) {
	r := expr.ValuesRow(left)
	keyVals := make([]storage.Value, len(j.leftKeys))
	for k, ke := range j.leftKeys {
		v, err := ke.Eval(r)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			return nil, nil
		}
		keyVals[k] = v
	}
	matches := j.ht[sampleKey(keyVals)]
	if len(matches) == 0 {
		return nil, nil
	}
	out := make([][]storage.Value, 0, len(matches))
	for _, m := range matches {
		combined := make([]storage.Value, 0, len(left)+len(m))
		combined = append(combined, left...)
		combined = append(combined, m...)
		if j.residual != nil {
			ok, err := expr.EvalBool(j.residual, expr.ValuesRow(combined))
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out = append(out, combined)
	}
	return out, nil
}

func splitAndExpr(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(splitAndExpr(b.L), splitAndExpr(b.R)...)
	}
	return []expr.Expr{e}
}

func combineAndExpr(list []expr.Expr) expr.Expr {
	out := list[0]
	for _, e := range list[1:] {
		out = &expr.Binary{Op: expr.OpAnd, L: out, R: e}
	}
	return out
}

func coveredBySchema(cols []string, schema storage.Schema) bool {
	for _, c := range cols {
		if schema.ColumnIndex(c) < 0 {
			return false
		}
	}
	return true
}

// supported checks the OLA engine's query class.
func (e *OLAEngine) supported(stmt *sqlparse.SelectStmt) (bool, string) {
	for _, jc := range stmt.Joins {
		dim, err := e.Catalog.Table(jc.Table.Name)
		if err != nil {
			return false, err.Error()
		}
		if dim.NumRows() > e.Config.MaxBuildRows {
			return false, fmt.Sprintf("join table %s too large to build (%d rows)",
				jc.Table.Name, dim.NumRows())
		}
	}
	if ok, reason := supportedForSampling(stmt); !ok {
		return false, reason
	}
	for _, a := range stmt.Aggregates() {
		if !a.Func.Linear() {
			return false, fmt.Sprintf("aggregate %s is not incrementally estimable by OLA", a)
		}
	}
	if stmt.Having != nil || len(stmt.OrderBy) > 0 || stmt.Limit >= 0 {
		return false, "HAVING/ORDER BY/LIMIT not supported by OLA"
	}
	for _, it := range stmt.Items {
		switch n := it.Expr.(type) {
		case *sqlparse.AggExpr:
		case *expr.ColRef:
			if groupColumnIndex(stmt, n.Name) < 0 {
				return false, fmt.Sprintf("select item %s is not a group column", n.Name)
			}
		default:
			return false, "OLA supports only bare aggregates and group columns as select items"
		}
	}
	return true, ""
}

// tableRowAdapter adapts a storage table row to expr.Row.
type tableRowAdapter struct {
	t   *storage.Table
	idx int
}

// ColumnValue implements expr.Row.
func (r tableRowAdapter) ColumnValue(i int) storage.Value { return r.t.Column(i).Value(r.idx) }

// sampleKey is groupKeyOf for core (avoids an exec dependency cycle).
func sampleKey(vals []storage.Value) string {
	if len(vals) == 0 {
		return ""
	}
	key := vals[0].GroupKey()
	for _, v := range vals[1:] {
		key += "\x1f" + v.GroupKey()
	}
	return key
}
