package exec

// Operator-level tracing. Each plan node gets a span named by its
// Explain() string; the operator is wrapped in traceOp, which accumulates
// busy time across Open/Next/Close and counts rows out. When tracing is
// disabled (no tracer on the context) the builders return the bare
// operator unchanged, so the untraced hot path is untouched.

import (
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// inputRowsReporter is implemented by operators that may know their true
// input cardinality (rows scanned), which is not visible from child
// batches: scanOp, and aggOp over the fused morsel pipeline. When it
// reports false, rows-in is inferred at snapshot time from child rows-out.
type inputRowsReporter interface {
	inputRows() (int64, bool)
}

// traceOp decorates an operator with span accounting. Reported time is
// inclusive: a parent's span includes time spent pulling from children,
// exactly like EXPLAIN ANALYZE in row-store databases.
type traceOp struct {
	inner Operator
	sp    *trace.Span
}

// wrapOp attaches op to sp, or returns op unchanged when tracing is off.
func wrapOp(op Operator, sp *trace.Span) Operator {
	if sp == nil {
		return op
	}
	return &traceOp{inner: op, sp: sp}
}

// Schema implements Operator.
func (op *traceOp) Schema() storage.Schema { return op.inner.Schema() }

// Open implements Operator.
func (op *traceOp) Open() error {
	t0 := time.Now()
	err := op.inner.Open()
	op.sp.AddTime(time.Since(t0))
	return err
}

// Next implements Operator.
func (op *traceOp) Next() (*Batch, error) {
	t0 := time.Now()
	b, err := op.inner.Next()
	op.sp.AddTime(time.Since(t0))
	if b != nil {
		op.sp.AddRows(int64(b.Len()))
	}
	return b, err
}

// Close implements Operator.
func (op *traceOp) Close() error {
	t0 := time.Now()
	err := op.inner.Close()
	op.sp.AddTime(time.Since(t0))
	if r, ok := op.inner.(inputRowsReporter); ok {
		if n, known := r.inputRows(); known {
			op.sp.SetRowsIn(n)
		}
	}
	return err
}
