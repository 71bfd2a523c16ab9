package exec

import (
	"context"
	"fmt"

	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/trace"
)

// BuildOperatorContext compiles a logical plan into a physical operator
// tree. All scans share the provided counters and check ctx between
// batches, so long scans observe cancellation and deadlines at BatchSize
// granularity. When the context carries a trace span, every operator is
// wrapped with span accounting under a child span named by the plan node.
func BuildOperatorContext(ctx context.Context, n plan.Node, counters *Counters) (Operator, error) {
	sp, cctx := trace.StartOp(ctx, n.Explain())
	op, err := buildSerialOp(cctx, n, counters)
	if err != nil {
		return nil, err
	}
	return wrapOp(op, sp), nil
}

// buildSerialOp is the span-free body of BuildOperatorContext; recursive
// child builds go back through BuildOperatorContext so each node gets its
// own span nested under the parent's.
func buildSerialOp(ctx context.Context, n plan.Node, counters *Counters) (Operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return newScanOp(ctx, t, counters)
	case *plan.Filter:
		child, err := BuildOperatorContext(ctx, t.Child, counters)
		if err != nil {
			return nil, err
		}
		return &filterOp{child: child, pred: t.Pred}, nil
	case *plan.Project:
		child, err := BuildOperatorContext(ctx, t.Child, counters)
		if err != nil {
			return nil, err
		}
		return &projectOp{child: child, node: t, schema: t.Schema()}, nil
	case *plan.Join:
		left, err := BuildOperatorContext(ctx, t.Left, counters)
		if err != nil {
			return nil, err
		}
		right, err := BuildOperatorContext(ctx, t.Right, counters)
		if err != nil {
			return nil, err
		}
		return &hashJoinOp{node: t, left: left, right: right, schema: t.Schema()}, nil
	case *plan.Aggregate:
		child, err := BuildOperatorContext(ctx, t.Child, counters)
		if err != nil {
			return nil, err
		}
		return &hashAggOp{node: t, child: child}, nil
	case *plan.Sort:
		child, err := BuildOperatorContext(ctx, t.Child, counters)
		if err != nil {
			return nil, err
		}
		return &sortOp{node: t, child: child}, nil
	case *plan.Limit:
		child, err := BuildOperatorContext(ctx, t.Child, counters)
		if err != nil {
			return nil, err
		}
		return &limitOp{child: child, n: t.N}, nil
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", n)
}

// RunContext executes a logical plan to completion under ctx,
// materializing the result on the serial operators. Scans check
// the context between batches, so a deadline or cancellation aborts the
// query mid-scan with ctx.Err() rather than running to completion.
func RunContext(ctx context.Context, root plan.Node) (*Result, error) {
	var counters Counters
	op, err := BuildOperatorContext(ctx, root, &counters)
	if err != nil {
		return nil, err
	}
	return drainOperator(ctx, op, root.Schema(), &counters)
}

// drainOperator opens op, drains it to a materialized Result under ctx,
// and closes it. Shared by the serial and morsel-parallel entry points.
func drainOperator(ctx context.Context, op Operator, schema storage.Schema, counters *Counters) (*Result, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	res := &Result{Schema: schema}
	for {
		if err := ctx.Err(); err != nil {
			_ = op.Close()
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		for i, row := range b.Rows {
			res.Rows = append(res.Rows, row)
			if b.Weights != nil {
				if res.Weights == nil {
					res.Weights = make([]float64, len(res.Rows)-1)
					for j := range res.Weights {
						res.Weights[j] = 1
					}
				}
				res.Weights = append(res.Weights, b.Weights[i])
			} else if res.Weights != nil {
				res.Weights = append(res.Weights, 1)
			}
			if b.Details != nil {
				if res.Details == nil {
					res.Details = make([]*GroupDetail, len(res.Rows)-1)
				}
				res.Details = append(res.Details, b.Details[i])
			} else if res.Details != nil {
				res.Details = append(res.Details, nil)
			}
		}
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	res.Counters = *counters
	return res, nil
}
