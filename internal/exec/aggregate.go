package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
)

// aggOp is the one aggregate operator: it groups rows and computes
// (possibly weighted) aggregates. When any input row carries a weight != 1
// the outputs are Horvitz–Thompson estimates, and per-group variance
// estimates are published in the batch's Details for downstream
// confidence-interval construction. Its group states come from exactly
// one source: the serial child operators (child), the fused morsel
// pipeline (morsel), or an already-merged partial (part).
type aggOp struct {
	node   *plan.Aggregate
	child  Op
	morsel *morselAgg
	part   *AggPartial

	done bool
}

type aggState struct {
	ht       stats.HTEstimator
	min, max storage.Value
	distinct map[string]struct{}
	weighted bool
	nonNull  float64
	// Percentile state: the (weighted) observed values.
	pctVals    []float64
	pctWeights []float64
}

type groupState struct {
	key      string
	groupVal []storage.Value
	aggs     []*aggState
	n        float64
}

// inputRows implements inputRowsReporter: the fused morsel pipeline scans
// its own table, so its rows-in are not visible from a child span.
func (op *aggOp) inputRows() (int64, bool) {
	if op.morsel == nil {
		return 0, false
	}
	return op.morsel.scanned, true
}

// Schema implements Operator.
func (op *aggOp) Schema() storage.Schema { return op.node.Schema() }

// Open implements Operator.
func (op *aggOp) Open() error {
	if op.child == nil {
		return nil
	}
	return op.child.Open()
}

// Close implements Operator.
func (op *aggOp) Close() error {
	if op.child == nil {
		return nil
	}
	return op.child.Close()
}

// groups returns the accumulated, not yet finalized group states.
func (op *aggOp) groups() (map[string]*groupState, error) {
	switch {
	case op.morsel != nil:
		return op.morsel.computeGroups()
	case op.part != nil:
		return op.part.groups, nil
	}
	return drainIntoGroups(op.node, op.child)
}

// Next implements Operator. The single call computes every group and
// returns the finalized output batch.
func (op *aggOp) Next() (*Batch, error) {
	if op.done {
		return nil, nil
	}
	op.done = true
	groups, err := op.groups()
	if err != nil {
		return nil, err
	}
	out := finalizeGroups(op.node, groups)
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

// drainIntoGroups drains child, accumulating every row into group
// states: the serial source of aggOp.
func drainIntoGroups(node *plan.Aggregate, child Op) (map[string]*groupState, error) {
	groups := make(map[string]*groupState)
	keyBuf := make([]storage.Value, len(node.GroupBy))
	for {
		in, err := child.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return groups, nil
		}
		for i, row := range in.Rows {
			r := expr.ValuesRow(row)
			for k, ge := range node.GroupBy {
				v, err := ge.Eval(r)
				if err != nil {
					return nil, err
				}
				keyBuf[k] = v
			}
			key := groupKeyOf(keyBuf)
			gs, ok := groups[key]
			if !ok {
				gs = newGroupState(key, keyBuf, len(node.Aggs))
				groups[key] = gs
			}
			w := in.Weight(i)
			gs.n++
			for j, spec := range node.Aggs {
				if err := accumulate(gs.aggs[j], spec, r, w); err != nil {
					return nil, err
				}
			}
		}
	}
}

// finalizeGroups renders accumulated group states to an output batch with
// per-group statistical details, ordered by canonical group key.
func finalizeGroups(node *plan.Aggregate, groups map[string]*groupState) *Batch {
	// SQL semantics: a global aggregate over empty input yields one row.
	if len(groups) == 0 && len(node.GroupBy) == 0 {
		gs := &groupState{key: ""}
		gs.aggs = make([]*aggState, len(node.Aggs))
		for j := range gs.aggs {
			gs.aggs[j] = &aggState{}
		}
		groups[""] = gs
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out := &Batch{}
	for _, k := range keys {
		gs := groups[k]
		row := make([]storage.Value, 0, len(gs.groupVal)+len(gs.aggs))
		row = append(row, gs.groupVal...)
		detail := &GroupDetail{Key: gs.key, GroupN: gs.n, Aggs: make([]AggDetail, len(gs.aggs))}
		for j, spec := range node.Aggs {
			v, d := finalize(gs.aggs[j], spec)
			row = append(row, v)
			detail.Aggs[j] = d
		}
		out.Rows = append(out.Rows, row)
		out.Details = append(out.Details, detail)
	}
	return out
}

func accumulate(st *aggState, spec plan.AggSpec, r expr.Row, w float64) error {
	if w != 1 {
		st.weighted = true
	}
	var v storage.Value
	if spec.Arg != nil {
		var err error
		v, err = spec.Arg.Eval(r)
		if err != nil {
			return err
		}
	}
	switch spec.Func {
	case sqlparse.AggCount:
		if spec.Star {
			st.ht.Add(1, w)
			st.nonNull++
			return nil
		}
		if v.IsNull() {
			return nil
		}
		if spec.Distinct {
			if st.distinct == nil {
				st.distinct = make(map[string]struct{})
			}
			st.distinct[v.GroupKey()] = struct{}{}
			return nil
		}
		st.ht.Add(1, w)
		st.nonNull++
	case sqlparse.AggSum, sqlparse.AggAvg:
		if v.IsNull() {
			return nil
		}
		if !v.Typ.Numeric() {
			return fmt.Errorf("exec: %s over non-numeric value", spec.Func)
		}
		st.ht.Add(v.AsFloat(), w)
		st.nonNull++
	case sqlparse.AggPercentile:
		if v.IsNull() {
			return nil
		}
		if !v.Typ.Numeric() {
			return fmt.Errorf("exec: PERCENTILE over non-numeric value")
		}
		st.pctVals = append(st.pctVals, v.AsFloat())
		st.pctWeights = append(st.pctWeights, w)
		st.nonNull++
	case sqlparse.AggMin:
		if v.IsNull() {
			return nil
		}
		st.nonNull++
		if st.min.IsNull() || v.Compare(st.min) < 0 {
			st.min = v
		}
	case sqlparse.AggMax:
		if v.IsNull() {
			return nil
		}
		st.nonNull++
		if st.max.IsNull() || v.Compare(st.max) > 0 {
			st.max = v
		}
	default:
		return fmt.Errorf("exec: unsupported aggregate %s", spec.Func)
	}
	return nil
}

func finalize(st *aggState, spec plan.AggSpec) (storage.Value, AggDetail) {
	switch spec.Func {
	case sqlparse.AggCount:
		if spec.Distinct {
			est := float64(len(st.distinct))
			return storage.Int64(int64(len(st.distinct))), AggDetail{
				Estimate: est, N: st.nonNull, Weighted: st.weighted, Supported: !st.weighted}
		}
		est := st.ht.Sum()
		return storage.Int64(int64(est + 0.5)), AggDetail{
			Estimate: est, Variance: st.ht.SumVariance(), N: st.ht.N(),
			Weighted: st.weighted, Supported: true}
	case sqlparse.AggSum:
		if st.nonNull == 0 {
			return storage.NullValue(storage.TypeFloat64), AggDetail{Supported: true}
		}
		return storage.Float64(st.ht.Sum()), AggDetail{
			Estimate: st.ht.Sum(), Variance: st.ht.SumVariance(), N: st.ht.N(),
			Weighted: st.weighted, Supported: true}
	case sqlparse.AggAvg:
		if st.nonNull == 0 {
			return storage.NullValue(storage.TypeFloat64), AggDetail{Supported: true}
		}
		return storage.Float64(st.ht.Mean()), AggDetail{
			Estimate: st.ht.Mean(), Variance: st.ht.MeanVariance(), N: st.ht.N(),
			Weighted: st.weighted, Supported: true}
	case sqlparse.AggMin:
		if st.min.IsNull() {
			return storage.NullValue(spec.OutType()), AggDetail{Supported: !st.weighted}
		}
		return st.min, AggDetail{Estimate: st.min.AsFloat(), N: st.nonNull,
			Weighted: st.weighted, Supported: !st.weighted}
	case sqlparse.AggMax:
		if st.max.IsNull() {
			return storage.NullValue(spec.OutType()), AggDetail{Supported: !st.weighted}
		}
		return st.max, AggDetail{Estimate: st.max.AsFloat(), N: st.nonNull,
			Weighted: st.weighted, Supported: !st.weighted}
	case sqlparse.AggPercentile:
		if len(st.pctVals) == 0 {
			return storage.NullValue(storage.TypeFloat64), AggDetail{Supported: true}
		}
		est, lo, hi := weightedQuantileWithDKW(st.pctVals, st.pctWeights, spec.Param, 0.95)
		return storage.Float64(est), AggDetail{
			Estimate: est, N: float64(len(st.pctVals)),
			Weighted: st.weighted, Supported: true,
			HasInterval: true, Lo: lo, Hi: hi}
	}
	return storage.Value{}, AggDetail{}
}

// weightedQuantileWithDKW computes the weighted q-quantile of the sample
// and a distribution-precision interval from the Dvoretzky–Kiefer–
// Wolfowitz inequality: with n observations, the empirical CDF deviates
// from the truth by more than ε with probability at most 2·e^(−2nε²), so
// the true q-quantile lies between the sample quantiles at q±ε.
func weightedQuantileWithDKW(vals, weights []float64, q, confidence float64) (est, lo, hi float64) {
	type vw struct{ v, w float64 }
	pairs := make([]vw, len(vals))
	var totalW float64
	for i := range vals {
		pairs[i] = vw{vals[i], weights[i]}
		totalW += weights[i]
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	quantile := func(p float64) float64 {
		if p <= 0 {
			return pairs[0].v
		}
		if p >= 1 {
			return pairs[len(pairs)-1].v
		}
		target := p * totalW
		var acc float64
		for _, pr := range pairs {
			acc += pr.w
			if acc >= target {
				return pr.v
			}
		}
		return pairs[len(pairs)-1].v
	}
	est = quantile(q)
	// DKW ε for the requested confidence; effective n is the observation
	// count (weights shift mass, observations carry the information).
	n := float64(len(pairs))
	eps := math.Sqrt(math.Log(2/(1-confidence)) / (2 * n))
	lo = quantile(q - eps)
	hi = quantile(q + eps)
	return est, lo, hi
}
