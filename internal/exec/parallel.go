package exec

// Morsel-driven parallel execution.
//
// RunParallelContext splits an eligible plan — a hash aggregate over a
// (filtered, sampled) base-table scan — into fixed, block-aligned row
// ranges ("morsels"), processes each morsel on one of a pool of workers
// with a fused scan+filter+sample+partial-aggregate pipeline, and merges
// the per-morsel partial aggregation states in ascending morsel order.
//
// Determinism: morsel boundaries depend only on the table (row count and
// block size), never on the worker count, and the reduction folds
// partials in morsel-index order, so every floating-point operation
// happens in the same sequence regardless of how many workers ran.
// Results and confidence intervals are therefore bit-identical for any
// worker count. See DESIGN.md for the full argument.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// minMorselRows is the minimum morsel size; the actual morsel is the
// smallest multiple of the table's block size that reaches it, keeping
// morsel boundaries block-aligned and independent of the worker count.
const minMorselRows = 8192

// injectMorsel fires once per claimed morsel inside the worker's
// containment scope, so an injected panic exercises the same recovery
// path a genuine kernel bug would.
var injectMorsel = fault.NewPoint("exec.morsel", "morsel worker, per claimed morsel")

// workersCtxKey carries a per-request worker-count override in a context.
type workersCtxKey struct{}

// ContextWithWorkers returns ctx carrying a per-query worker-count
// override, consulted first by ResolveWorkers. The server uses it to cap
// per-query parallelism under admission control without widening engine
// signatures.
func ContextWithWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, workersCtxKey{}, n)
}

// WorkersFromContext returns the worker override carried by ctx, or 0.
func WorkersFromContext(ctx context.Context) int {
	n, _ := ctx.Value(workersCtxKey{}).(int)
	if n < 0 {
		return 0
	}
	return n
}

// ResolveWorkers resolves the effective worker count: a context override
// wins, then a positive hint (plan hint or engine configuration), then
// runtime.GOMAXPROCS. The result is always at least 1.
func ResolveWorkers(ctx context.Context, hint int) int {
	if n := WorkersFromContext(ctx); n > 0 {
		return n
	}
	if hint > 0 {
		return hint
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// RunParallelContext executes a logical plan under ctx, running eligible
// aggregate-over-scan subtrees on the morsel-parallel path with the given
// worker count (≤ 0 resolves via ResolveWorkers). Plans with no eligible
// subtree run on the serial operators; results are identical either way
// up to float summation order.
func RunParallelContext(ctx context.Context, root plan.Node, workers int) (*Result, error) {
	if workers <= 0 {
		workers = ResolveWorkers(ctx, 0)
	}
	var counters Counters
	op, err := buildParallelOperator(ctx, root, &counters, workers)
	if err != nil {
		return nil, err
	}
	return drainOperator(ctx, op, root.Schema(), &counters)
}

// buildParallelOperator mirrors BuildOperatorContext but replaces each
// eligible Aggregate subtree with the fused morsel-parallel operator.
// Ineligible shapes (joins below the aggregate, the stateful distinct
// sampler) fall back to the serial operators. Span creation happens per
// case (not in a shared wrapper) because the default case delegates to
// BuildOperatorContext, which opens its own span for the node.
func buildParallelOperator(ctx context.Context, n plan.Node, counters *Counters, workers int) (Operator, error) {
	switch t := n.(type) {
	case *plan.Aggregate:
		if scan, residual, ok := morselEligible(t); ok {
			sp, _ := trace.StartOp(ctx, t.Explain()+" [morsel]")
			op, err := newMorselAggOp(ctx, t, scan, residual, counters, workers)
			if err != nil {
				return nil, err
			}
			op.sp = sp
			sp.SetAttr("scan", scan.Explain())
			return wrapOp(op, sp), nil
		}
		sp, cctx := trace.StartOp(ctx, t.Explain())
		child, err := buildParallelOperator(cctx, t.Child, counters, workers)
		if err != nil {
			return nil, err
		}
		return wrapOp(&hashAggOp{node: t, child: child}, sp), nil
	case *plan.Filter:
		sp, cctx := trace.StartOp(ctx, t.Explain())
		child, err := buildParallelOperator(cctx, t.Child, counters, workers)
		if err != nil {
			return nil, err
		}
		return wrapOp(&filterOp{child: child, pred: t.Pred}, sp), nil
	case *plan.Project:
		sp, cctx := trace.StartOp(ctx, t.Explain())
		child, err := buildParallelOperator(cctx, t.Child, counters, workers)
		if err != nil {
			return nil, err
		}
		return wrapOp(&projectOp{child: child, node: t, schema: t.Schema()}, sp), nil
	case *plan.Sort:
		sp, cctx := trace.StartOp(ctx, t.Explain())
		child, err := buildParallelOperator(cctx, t.Child, counters, workers)
		if err != nil {
			return nil, err
		}
		return wrapOp(&sortOp{node: t, child: child}, sp), nil
	case *plan.Limit:
		sp, cctx := trace.StartOp(ctx, t.Explain())
		child, err := buildParallelOperator(cctx, t.Child, counters, workers)
		if err != nil {
			return nil, err
		}
		return wrapOp(&limitOp{child: child, n: t.N}, sp), nil
	}
	return BuildOperatorContext(ctx, n, counters)
}

// morselEligible reports whether the aggregate sits on a Filter*→Scan
// chain it can fuse, returning the scan and the residual predicates in
// application order (innermost first). The distinct sampler is excluded:
// it counts rows per stratum, so its decisions depend on scan order and
// must be made serially.
func morselEligible(a *plan.Aggregate) (*plan.Scan, []expr.Expr, bool) {
	var residual []expr.Expr
	n := a.Child
	for {
		switch c := n.(type) {
		case *plan.Filter:
			residual = append(residual, c.Pred)
			n = c.Child
		case *plan.Scan:
			if c.Sample != nil && c.Sample.Kind == sample.KindDistinct {
				return nil, nil, false
			}
			for i, j := 0, len(residual)-1; i < j; i, j = i+1, j-1 {
				residual[i], residual[j] = residual[j], residual[i]
			}
			return c, residual, true
		default:
			return nil, nil, false
		}
	}
}

// morselAggOp is the fused parallel operator: per morsel it scans,
// filters, samples, and partially aggregates without materializing
// intermediate batches, then merges partials deterministically.
type morselAggOp struct {
	ctx      context.Context
	node     *plan.Aggregate
	scan     *plan.Scan
	residual []expr.Expr
	counters *Counters
	workers  int

	outIdx    []int // table column index per scan output column
	weightIdx int   // hidden weight column in table, or -1
	keyIdx    []int // sampler key columns in table

	kern morselKernels // compiled against the snapshot in Next
	done bool

	sp      *trace.Span // operator span, nil when tracing is off
	scanned int64       // total rows examined across workers
}

// inputRows implements inputRowsReporter.
func (op *morselAggOp) inputRows() int64 { return op.scanned }

// Aggregate-slot fast-path modes; slotGeneral falls back to accumulate.
const (
	slotGeneral = iota
	slotCountStar
	slotCountCol
	slotSumAvg
	slotPercentile
)

// morselKernels holds the best-effort compiled form of the fused
// pipeline's expressions. Nil kernels (and slotGeneral slots) fall back to
// the tree-walking evaluator per expression; the compiled and interpreted
// forms are bit-identical, so mixing them is safe.
type morselKernels struct {
	filter   boolKernel   // scan filter, bound to the table schema
	residual []boolKernel // per residual predicate, bound to scan output
	groupCol []int        // table column per ColRef group expr, else -1
	slotMode []int
	slotArg  []numKernel
	needRow  bool // some fallback still needs the mappedRow adapter
}

// compileKernels compiles what it can of the pipeline against a concrete
// table snapshot.
func (op *morselAggOp) compileKernels(t *storage.Table) morselKernels {
	k := morselKernels{
		residual: make([]boolKernel, len(op.residual)),
		groupCol: make([]int, len(op.node.GroupBy)),
		slotMode: make([]int, len(op.node.Aggs)),
		slotArg:  make([]numKernel, len(op.node.Aggs)),
	}
	if op.scan.Filter != nil {
		k.filter = compileBool(op.scan.Filter, t, nil)
	}
	m := colMap(op.outIdx)
	for i, pred := range op.residual {
		k.residual[i] = compileBool(pred, t, m)
		if k.residual[i] == nil {
			k.needRow = true
		}
	}
	for i, ge := range op.node.GroupBy {
		k.groupCol[i] = -1
		if c, ok := ge.(*expr.ColRef); ok {
			k.groupCol[i] = op.outIdx[c.Index]
		} else {
			k.needRow = true
		}
	}
	for j, spec := range op.node.Aggs {
		k.slotMode[j] = slotGeneral
		switch spec.Func {
		case sqlparse.AggCount:
			if spec.Star {
				k.slotMode[j] = slotCountStar
			} else if !spec.Distinct && spec.Arg != nil {
				if arg := compileNum(spec.Arg, t, m); arg != nil {
					k.slotMode[j] = slotCountCol
					k.slotArg[j] = arg
				}
			}
		case sqlparse.AggSum, sqlparse.AggAvg:
			if arg := compileNum(spec.Arg, t, m); arg != nil {
				k.slotMode[j] = slotSumAvg
				k.slotArg[j] = arg
			}
		case sqlparse.AggPercentile:
			if arg := compileNum(spec.Arg, t, m); arg != nil {
				k.slotMode[j] = slotPercentile
				k.slotArg[j] = arg
			}
		}
		if k.slotMode[j] == slotGeneral {
			k.needRow = true
		}
	}
	return k
}

func newMorselAggOp(ctx context.Context, a *plan.Aggregate, s *plan.Scan, residual []expr.Expr, counters *Counters, workers int) (*morselAggOp, error) {
	op := &morselAggOp{
		ctx: ctx, node: a, scan: s, residual: residual,
		counters: counters, workers: workers,
		weightIdx: s.WeightColumnIndex(),
	}
	tschema := s.Table.Schema()
	for _, def := range s.Schema() {
		idx := tschema.ColumnIndex(def.Name)
		if idx < 0 {
			return nil, fmt.Errorf("exec: scan %s: lost column %s", s.TableName, def.Name)
		}
		op.outIdx = append(op.outIdx, idx)
	}
	if s.Sample != nil {
		for _, col := range s.Sample.KeyColumns {
			idx := tschema.ColumnIndex(col)
			if idx < 0 {
				return nil, fmt.Errorf("exec: sampler key column %q not in table %s", col, s.TableName)
			}
			op.keyIdx = append(op.keyIdx, idx)
		}
	}
	return op, nil
}

// Schema implements Operator.
func (op *morselAggOp) Schema() storage.Schema { return op.node.Schema() }

// Open implements Operator.
func (op *morselAggOp) Open() error { return nil }

// Close implements Operator.
func (op *morselAggOp) Close() error { return nil }

// mappedRow adapts direct table access to the scan's output schema:
// column i of the scan output is column out[i] of the table. Residual
// predicates and aggregate expressions are bound to the scan output.
type mappedRow struct {
	t   *storage.Table
	idx int
	out []int
}

// ColumnValue implements expr.Row.
func (r mappedRow) ColumnValue(i int) storage.Value { return r.t.Column(r.out[i]).Value(r.idx) }

// Next implements Operator. The single call performs the whole parallel
// scan-aggregate and returns the merged output batch.
func (op *morselAggOp) Next() (*Batch, error) {
	if op.done {
		return nil, nil
	}
	op.done = true
	groups, err := op.computeGroups()
	if err != nil {
		return nil, err
	}
	out := finalizeGroups(op.node, groups)
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

// computeGroups runs the parallel scan-aggregate and returns the merged
// partial group states without finalizing them — the seam the sharded
// scatter executor uses to ship mergeable partials instead of finished
// batches.
func (op *morselAggOp) computeGroups() (map[string]*groupState, error) {
	// Scan a snapshot: concurrent appends to the live table neither tear
	// the read prefix nor move the row count mid-scan, and every worker
	// sees the same version.
	table := op.scan.Table.Snapshot()
	nRows := table.NumRows()
	op.counters.Passes++
	op.kern = op.compileKernels(table)

	blockSize := table.BlockSize()
	morselRows := blockSize
	for morselRows < minMorselRows {
		morselRows += blockSize
	}
	nMorsels := (nRows + morselRows - 1) / morselRows

	workers := op.workers
	if workers > nMorsels {
		workers = nMorsels
	}
	if workers < 1 {
		workers = 1
	}

	wks := make([]*morselWorker, workers)
	for w := range wks {
		wk, err := op.newWorker(table)
		if err != nil {
			return nil, err
		}
		wks[w] = wk
	}

	// Trace setup happens before the workers launch and only observes the
	// already-decided morsel geometry: worker spans are pre-created here in
	// index order so the profile is deterministic, and nothing below feeds
	// back into sizing, claiming, or merge order.
	var workerSpans []*trace.Span
	if op.sp != nil {
		op.sp.SetAttrInt("workers", int64(workers))
		op.sp.SetAttrInt("morsels", int64(nMorsels))
		op.sp.SetAttrInt("morsel_rows", int64(morselRows))
		if op.scan.Sample != nil {
			op.sp.SetAttr("sample", op.scan.Sample.String())
		}
		workerSpans = make([]*trace.Span, workers)
		for w := range workerSpans {
			workerSpans[w] = op.sp.NewChild(fmt.Sprintf("worker %d", w))
		}
	}

	partials := make([]map[string]*groupState, nMorsels)
	if nMorsels > 0 {
		runCtx, cancel := context.WithCancel(op.ctx)
		defer cancel()
		var (
			next     int64
			wg       sync.WaitGroup
			once     sync.Once
			firstErr error
		)
		fail := func(err error) {
			// First failure wins and cancels the siblings.
			once.Do(func() { firstErr = err; cancel() })
		}
		for w, wk := range wks {
			var wsp *trace.Span
			if workerSpans != nil {
				wsp = workerSpans[w]
			}
			wg.Add(1)
			go func(wk *morselWorker, wsp *trace.Span) {
				defer wg.Done()
				// Contain worker panics: convert to a typed error that fails
				// only this query and cancels the sibling workers, instead
				// of killing the process.
				defer func() {
					if r := recover(); r != nil {
						fail(fault.AsError(r))
					}
				}()
				var (
					busy      time.Duration
					morsels   int64
					wallStart time.Time
				)
				if wsp != nil {
					wallStart = time.Now()
				}
				for {
					m := int(atomic.AddInt64(&next, 1)) - 1
					if m >= nMorsels {
						break
					}
					if err := injectMorsel.Inject(); err != nil {
						fail(err)
						break
					}
					lo := m * morselRows
					hi := lo + morselRows
					if hi > nRows {
						hi = nRows
					}
					var part map[string]*groupState
					var err error
					if wsp != nil {
						t0 := time.Now()
						part, err = wk.processMorsel(runCtx, lo, hi)
						busy += time.Since(t0)
						morsels++
					} else {
						part, err = wk.processMorsel(runCtx, lo, hi)
					}
					if err != nil {
						fail(err)
						break
					}
					partials[m] = part
				}
				if wsp != nil {
					// Stall = wall time minus morsel-processing time: claim
					// contention plus tail idling after the last morsel.
					wsp.AddTime(busy)
					wsp.SetAttrInt("morsels", morsels)
					stall := time.Since(wallStart) - busy
					if stall < 0 {
						stall = 0
					}
					wsp.SetAttr("stall", stall.Round(time.Microsecond).String())
					wsp.SetRowsIn(wk.counters.RowsScanned)
					wsp.AddRows(wk.counters.RowsEmitted)
				}
			}(wk, wsp)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	for _, wk := range wks {
		op.counters.Add(wk.counters)
		op.scanned += wk.counters.RowsScanned
	}

	var mergeStart time.Time
	if op.sp != nil {
		mergeStart = time.Now()
	}
	// Ordered reduction: fold partials in ascending morsel order. Each
	// morsel contributes to a group exactly once, so per group the float
	// operation sequence is fixed by morsel index alone — map iteration
	// order within a partial only interleaves independent groups.
	groups := make(map[string]*groupState)
	for _, part := range partials {
		for key, gs := range part {
			if dst, ok := groups[key]; ok {
				mergeGroupState(dst, gs)
			} else {
				groups[key] = gs
			}
		}
	}
	if op.sp != nil {
		ms := op.sp.NewChild("merge")
		ms.AddTime(time.Since(mergeStart))
		ms.SetAttrInt("partials", int64(nMorsels))
		ms.SetAttrInt("groups", int64(len(groups)))
	}
	return groups, nil
}

// morselWorker holds one worker's private sampler and counters. Samplers
// are deterministic functions of (seed, row/block index, key), so every
// worker's instance makes identical decisions; each worker gets its own
// only to keep the hot loop free of sharing.
type morselWorker struct {
	op        *morselAggOp
	table     *storage.Table
	sampler   sample.RowSampler
	blockSamp *sample.Block
	keyBuf    []storage.Value
	groupBuf  []storage.Value
	counters  Counters
}

func (op *morselAggOp) newWorker(table *storage.Table) (*morselWorker, error) {
	wk := &morselWorker{op: op, table: table,
		groupBuf: make([]storage.Value, len(op.node.GroupBy))}
	if s := op.scan.Sample; s != nil {
		rs, err := sample.New(*s, table.BlockSize())
		if err != nil {
			return nil, err
		}
		switch st := rs.(type) {
		case *sample.Block:
			wk.blockSamp = st
		case *sample.BiLevel:
			wk.blockSamp = st.BlockSampler()
			wk.sampler = biLevelRowStage{st}
		default:
			wk.sampler = rs
		}
		wk.keyBuf = make([]storage.Value, len(op.keyIdx))
	}
	return wk, nil
}

// processMorsel runs the fused pipeline over rows [lo, hi) — morsels are
// block-aligned, so each block belongs to exactly one morsel and the
// block counters stay exact — and returns the partial aggregation state.
func (wk *morselWorker) processMorsel(ctx context.Context, lo, hi int) (map[string]*groupState, error) {
	op := wk.op
	kern := &op.kern
	groups := make(map[string]*groupState)
	blockSize := wk.table.BlockSize()
	var weightCol storage.Column
	if op.weightIdx >= 0 {
		weightCol = wk.table.Column(op.weightIdx)
	}
	// Global aggregates have a single group; hoist it out of the row loop.
	var global *groupState
	if len(op.node.GroupBy) == 0 {
		global = newGroupState("", nil, len(op.node.Aggs))
		groups[""] = global
	}
	for row := lo; row < hi; {
		// One cancellation checkpoint per block.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		block := row / blockSize
		blockEnd := (block + 1) * blockSize
		if blockEnd > hi {
			blockEnd = hi
		}
		blockWeight := 1.0
		if wk.blockSamp != nil {
			d := wk.blockSamp.DecideBlock(block)
			if !d.Keep {
				wk.counters.BlocksSkipped++
				row = blockEnd
				continue
			}
			wk.counters.BlocksScanned++
			blockWeight = d.Weight
		}
		for ; row < blockEnd; row++ {
			wk.counters.RowsScanned++
			if kern.filter != nil {
				if !kern.filter(row) {
					continue
				}
			} else if op.scan.Filter != nil {
				ok, err := expr.EvalBool(op.scan.Filter, tableRow{t: wk.table, idx: row})
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			w := blockWeight
			if wk.sampler != nil {
				key := ""
				if len(op.keyIdx) > 0 {
					for i, idx := range op.keyIdx {
						wk.keyBuf[i] = wk.table.Column(idx).Value(row)
					}
					key = sample.KeyOf(wk.keyBuf)
				}
				d := wk.sampler.Decide(row, key)
				if !d.Keep {
					continue
				}
				w *= d.Weight
			}
			if weightCol != nil {
				wv := weightCol.Value(row)
				if !wv.IsNull() {
					w *= wv.AsFloat()
				}
			}
			wk.counters.RowsEmitted++
			var mr mappedRow
			if kern.needRow {
				mr = mappedRow{t: wk.table, idx: row, out: op.outIdx}
			}
			keep := true
			for i, pred := range op.residual {
				if k := kern.residual[i]; k != nil {
					if !k(row) {
						keep = false
						break
					}
					continue
				}
				ok, err := expr.EvalBool(pred, mr)
				if err != nil {
					return nil, err
				}
				if !ok {
					keep = false
					break
				}
			}
			if !keep {
				continue
			}
			gs := global
			if gs == nil {
				for k, ge := range op.node.GroupBy {
					if ci := kern.groupCol[k]; ci >= 0 {
						wk.groupBuf[k] = wk.table.Column(ci).Value(row)
						continue
					}
					v, err := ge.Eval(mr)
					if err != nil {
						return nil, err
					}
					wk.groupBuf[k] = v
				}
				key := groupKeyOf(wk.groupBuf)
				var ok bool
				if gs, ok = groups[key]; !ok {
					gs = newGroupState(key, wk.groupBuf, len(op.node.Aggs))
					groups[key] = gs
				}
			}
			gs.n++
			for j := range op.node.Aggs {
				st := gs.aggs[j]
				if w != 1 {
					st.weighted = true
				}
				switch kern.slotMode[j] {
				case slotCountStar:
					st.ht.Add(1, w)
					st.nonNull++
				case slotCountCol:
					if _, null := kern.slotArg[j](row); !null {
						st.ht.Add(1, w)
						st.nonNull++
					}
				case slotSumAvg:
					if v, null := kern.slotArg[j](row); !null {
						st.ht.Add(v, w)
						st.nonNull++
					}
				case slotPercentile:
					if v, null := kern.slotArg[j](row); !null {
						st.pctVals = append(st.pctVals, v)
						st.pctWeights = append(st.pctWeights, w)
						st.nonNull++
					}
				default:
					if err := accumulate(st, op.node.Aggs[j], mr, w); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return groups, nil
}

// newGroupState builds an empty group state; groupVal is copied.
func newGroupState(key string, groupVal []storage.Value, slots int) *groupState {
	gs := &groupState{key: key}
	if len(groupVal) > 0 {
		gs.groupVal = append([]storage.Value(nil), groupVal...)
	}
	gs.aggs = make([]*aggState, slots)
	for j := range gs.aggs {
		gs.aggs[j] = &aggState{}
	}
	return gs
}

// mergeGroupState folds src into dst; callers fold in morsel order.
func mergeGroupState(dst, src *groupState) {
	dst.n += src.n
	for j := range dst.aggs {
		mergeAggState(dst.aggs[j], src.aggs[j])
	}
}

// mergeAggState folds one aggregate's partial state into another. Every
// component is a plain sum, union, extremum, or ordered concatenation, so
// folding partials in morsel order reproduces the serial accumulation
// sequence of the same morsel decomposition exactly.
func mergeAggState(dst, src *aggState) {
	dst.ht.Merge(src.ht)
	dst.weighted = dst.weighted || src.weighted
	dst.nonNull += src.nonNull
	if !src.min.IsNull() && (dst.min.IsNull() || src.min.Compare(dst.min) < 0) {
		dst.min = src.min
	}
	if !src.max.IsNull() && (dst.max.IsNull() || src.max.Compare(dst.max) > 0) {
		dst.max = src.max
	}
	if len(src.distinct) > 0 {
		if dst.distinct == nil {
			dst.distinct = make(map[string]struct{}, len(src.distinct))
		}
		for k := range src.distinct {
			dst.distinct[k] = struct{}{}
		}
	}
	dst.pctVals = append(dst.pctVals, src.pctVals...)
	dst.pctWeights = append(dst.pctWeights, src.pctWeights...)
}
