package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Exact answers must match the serial executor's within this relative
// tolerance: the morsel path sums in another order than the serial one.
const (
	relTol = 1e-6
	absTol = 1e-9
)

// answer is the part of a POST /query response body the benchmark reads.
type answer struct {
	Rows        [][]any  `json:"rows"`
	Items       [][]item `json:"items"`
	Technique   string   `json:"technique"`
	Guarantee   string   `json:"guarantee"`
	RelError    float64  `json:"rel_error"`
	LatencyMS   float64  `json:"latency_ms"`
	RowsScanned int64    `json:"rows_scanned"`
}

type item struct {
	HasCI        bool    `json:"has_ci"`
	CILo         float64 `json:"ci_lo"`
	CIHi         float64 `json:"ci_hi"`
	RelHalfWidth float64 `json:"rel_half_width"`
}

// reference is a query's true answer: aggregate values keyed by the
// group-key columns.
type reference struct {
	isAgg []bool
	rows  map[string][]float64
}

// aggMask reports which select items of sql hold an aggregate.
func aggMask(sql string) ([]bool, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	mask := make([]bool, len(stmt.Items))
	for i, it := range stmt.Items {
		it.Expr.Walk(func(e expr.Expr) {
			if _, ok := e.(*sqlparse.AggExpr); ok {
				mask[i] = true
			}
		})
	}
	return mask, nil
}

// computeReferences answers every distinct exact query of the list with
// computeReference, on two workers: the serial executor is slow on the
// joins, and nothing else runs yet.
func computeReferences(cat *storage.Catalog, qs []query) (map[string]*reference, error) {
	refs := map[string]*reference{}
	var sqls []string
	for _, q := range qs {
		if _, ok := refs[q.sql]; !ok {
			refs[q.sql] = nil
			sqls = append(sqls, q.sql)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	next := make(chan string)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sql := range next {
				ref, err := computeReference(context.Background(), cat, sql)
				mu.Lock()
				refs[sql] = ref
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, sql := range sqls {
		next <- sql
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

// computeReference runs sql exactly through the serial executor.
func computeReference(ctx context.Context, cat *storage.Catalog, sql string) (*reference, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		return nil, err
	}
	plan.ClearSamplers(p)
	res, err := exec.RunContext(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", sql, err)
	}
	mask, err := aggMask(sql)
	if err != nil {
		return nil, err
	}
	ref := &reference{isAgg: mask, rows: make(map[string][]float64, len(res.Rows))}
	for _, row := range res.Rows {
		if len(row) != len(mask) {
			return nil, fmt.Errorf("reference %q: %d columns, %d select items", sql, len(row), len(mask))
		}
		var key string
		vals := make([]float64, len(row))
		for j, v := range row {
			if mask[j] {
				vals[j] = valueFloat(v)
			} else {
				key += valueKey(v) + "\x00"
			}
		}
		ref.rows[key] = vals
	}
	return ref, nil
}

func valueFloat(v storage.Value) float64 {
	if v.IsNull() {
		return math.NaN()
	}
	return v.AsFloat()
}

func valueKey(v storage.Value) string {
	switch {
	case v.IsNull():
		return "null"
	case v.Typ == storage.TypeString:
		return "s:" + v.S
	case v.Typ == storage.TypeBool:
		return "b:" + strconv.FormatBool(v.B)
	}
	return "n:" + strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
}

func jsonKey(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return "s:" + x
	case bool:
		return "b:" + strconv.FormatBool(x)
	case float64:
		return "n:" + strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprintf("?:%v", v)
}

func jsonFloat(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

func near(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+absTol
}

// rowKey splits an answer row into its group key and aggregate cells.
func (r *reference) rowKey(row []any) (string, error) {
	if len(row) != len(r.isAgg) {
		return "", fmt.Errorf("answer row has %d columns, want %d", len(row), len(r.isAgg))
	}
	var key string
	for j, v := range row {
		if !r.isAgg[j] {
			key += jsonKey(v) + "\x00"
		}
	}
	return key, nil
}

// matchExact reports why an exact answer differs from the reference, or
// nil when every group and value agrees.
func (r *reference) matchExact(a *answer) error {
	if len(a.Rows) != len(r.rows) {
		return fmt.Errorf("exact answer has %d rows, reference %d", len(a.Rows), len(r.rows))
	}
	for _, row := range a.Rows {
		key, err := r.rowKey(row)
		if err != nil {
			return err
		}
		want, ok := r.rows[key]
		if !ok {
			return fmt.Errorf("exact answer has group %q the reference lacks", key)
		}
		for j, v := range row {
			if !r.isAgg[j] {
				continue
			}
			got, ok := jsonFloat(v)
			if v == nil {
				got, ok = math.NaN(), true
			}
			if !ok || !near(got, want[j]) {
				return fmt.Errorf("group %q column %d: got %v, reference %v", key, j, v, want[j])
			}
		}
	}
	return nil
}

// covers counts the confidence intervals of the approximate answer and
// those that contain the reference value; known is false when the answer
// returns a group the reference lacks.
func (r *reference) covers(a *answer) (known bool, inside, total int) {
	for i, row := range a.Rows {
		key, err := r.rowKey(row)
		if err != nil {
			return false, 0, 0
		}
		want, ok := r.rows[key]
		if !ok {
			return false, 0, 0
		}
		for j := range row {
			if !r.isAgg[j] || i >= len(a.Items) || j >= len(a.Items[i]) || !a.Items[i][j].HasCI {
				continue
			}
			it := a.Items[i][j]
			total++
			if want[j] >= it.CILo-absTol && want[j] <= it.CIHi+absTol {
				inside++
			}
		}
	}
	return true, inside, total
}

// validCIs checks the shape of every interval: finite bounds and
// lo <= estimate <= hi.
func validCIs(a *answer) error {
	for i, row := range a.Items {
		for j, it := range row {
			if !it.HasCI {
				continue
			}
			if i >= len(a.Rows) || j >= len(a.Rows[i]) {
				return fmt.Errorf("CI at row %d column %d has no value", i, j)
			}
			est, ok := jsonFloat(a.Rows[i][j])
			if !ok || math.IsNaN(est) || math.IsInf(it.CILo, 0) || math.IsInf(it.CIHi, 0) ||
				math.IsNaN(it.CILo) || math.IsNaN(it.CIHi) {
				return fmt.Errorf("row %d column %d: non-finite CI [%v, %v] around %v", i, j, it.CILo, it.CIHi, a.Rows[i][j])
			}
			slack := absTol + relTol*math.Abs(est)
			if it.CILo > est+slack || est > it.CIHi+slack {
				return fmt.Errorf("row %d column %d: estimate %v outside its CI [%v, %v]", i, j, est, it.CILo, it.CIHi)
			}
		}
	}
	return nil
}

func aggCells(a *answer, r *reference) int {
	n := 0
	for _, agg := range r.isAgg {
		if agg {
			n++
		}
	}
	return n * len(a.Rows)
}

// verdict is the gate's judgement of one answer.
type verdict struct {
	err error // the answer is wrong
	// cis counts the answer's confidence intervals; covering those that
	// contain the reference value and meeting those whose relative
	// half-width is within the requested error.
	cis, covering, meeting int
}

// judge checks one answer against its reference. Exact answers,
// including approximate requests the server answered exactly, must match
// it; approximate ones need well-formed CIs over groups the data has.
func judge(a *answer, approx bool, ref *reference) verdict {
	if ref == nil {
		return verdict{err: fmt.Errorf("no reference answer")}
	}
	if !approx || a.Guarantee == "exact" {
		if err := ref.matchExact(a); err != nil {
			return verdict{err: err}
		}
		if !approx {
			return verdict{}
		}
		// An approximate request answered exactly: each value is the
		// truth, so it covers and meets any spec.
		n := aggCells(a, ref)
		return verdict{cis: n, covering: n, meeting: n}
	}
	if err := validCIs(a); err != nil {
		return verdict{err: err}
	}
	known, inside, total := ref.covers(a)
	if !known {
		return verdict{err: fmt.Errorf("approximate answer has groups absent from the data")}
	}
	v := verdict{cis: total, covering: inside}
	for _, row := range a.Items {
		for _, it := range row {
			if it.HasCI && it.RelHalfWidth <= a.RelError {
				v.meeting++
			}
		}
	}
	return v
}
