package exec

import (
	"context"
	"fmt"

	"repro/internal/plan"
	"repro/internal/trace"
)

// builder compiles a logical plan into a physical operator tree. There is
// one builder for every entry point; they differ only in where the
// Aggregate node's group states come from (see aggregate):
//
//   - RunContext: drained from the serial child operators (workers == 0);
//   - RunParallelContext and RunAggPartialContext: from the fused morsel
//     pipeline when the aggregate sits on a Filter*→Scan chain, else from
//     the serial drain (workers > 0);
//   - FinalizeAggPartial: from an already-merged partial (part != nil),
//     which stands in for the whole scan…aggregate subtree.
//
// All scans share the counters and check the build context between
// batches, so long scans observe cancellation and deadlines at BatchSize
// granularity. When the context carries a trace span, every operator is
// wrapped with span accounting under a child span named by the plan node.
type builder struct {
	counters *Counters
	workers  int
	part     *AggPartial
	// partial labels aggregate spans of RunAggPartialContext, which
	// computes group states without finalizing them.
	partial bool
}

// build compiles n and its subtree.
func (b *builder) build(ctx context.Context, n plan.Node) (Operator, error) {
	switch t := n.(type) {
	case *plan.Aggregate:
		op, sp, err := b.aggregate(ctx, t)
		if err != nil {
			return nil, err
		}
		return wrapOp(op, sp), nil
	case *plan.Scan, *plan.Join:
		if b.part != nil {
			return nil, fmt.Errorf("exec: plan node %T above the aggregate is not gatherable", n)
		}
	}
	sp, cctx := trace.StartOp(ctx, n.Explain())
	op, err := b.node(cctx, n)
	if err != nil {
		return nil, err
	}
	return wrapOp(op, sp), nil
}

// node compiles one non-aggregate plan node; its children build under
// ctx, so their spans nest under the node's.
func (b *builder) node(ctx context.Context, n plan.Node) (Operator, error) {
	var kids []Operator
	for _, c := range n.Children() {
		op, err := b.build(ctx, c)
		if err != nil {
			return nil, err
		}
		kids = append(kids, op)
	}
	switch t := n.(type) {
	case *plan.Scan:
		return newScanOp(ctx, t, b.counters)
	case *plan.Filter:
		return &filterOp{child: kids[0], pred: t.Pred}, nil
	case *plan.Project:
		return &projectOp{child: kids[0], node: t, schema: t.Schema()}, nil
	case *plan.Join:
		return &hashJoinOp{node: t, left: kids[0], right: kids[1], schema: t.Schema()}, nil
	case *plan.Sort:
		return &sortOp{node: t, child: kids[0]}, nil
	case *plan.Limit:
		return &limitOp{child: kids[0], n: t.N}, nil
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", n)
}

// aggregate builds the one aggregate operator for a, choosing its
// group-state source, and returns it with its (possibly nil) span.
func (b *builder) aggregate(ctx context.Context, a *plan.Aggregate) (*aggOp, *trace.Span, error) {
	if b.part != nil {
		sp, _ := trace.StartOp(ctx, a.Explain()+" [gather]")
		sp.SetAttrInt("groups", int64(len(b.part.groups)))
		return &aggOp{node: a, part: b.part}, sp, nil
	}
	if b.workers > 0 {
		if scan, residual, ok := morselEligible(a); ok {
			label := " [morsel]"
			if b.partial {
				label = " [morsel partial]"
			}
			sp, _ := trace.StartOp(ctx, a.Explain()+label)
			m, err := newMorselAgg(ctx, a, scan, residual, b.counters, b.workers)
			if err != nil {
				return nil, sp, err
			}
			m.sp = sp
			sp.SetAttr("scan", scan.Explain())
			return &aggOp{node: a, morsel: m}, sp, nil
		}
	}
	name := a.Explain()
	if b.partial {
		name += " [serial partial]"
	}
	sp, cctx := trace.StartOp(ctx, name)
	child, err := b.build(cctx, a.Child)
	if err != nil {
		return nil, sp, err
	}
	return &aggOp{node: a, child: child}, sp, nil
}

// RunContext executes a logical plan to completion under ctx,
// materializing the result on the serial operators — the Volcano
// reference the morsel path is tested against. Scans check the context
// between batches, so a deadline or cancellation aborts the query
// mid-scan with ctx.Err() rather than running to completion.
func RunContext(ctx context.Context, root plan.Node) (*Result, error) {
	var counters Counters
	return (&builder{counters: &counters}).run(ctx, root)
}

// run builds root, then opens, drains and closes it, materializing the
// Result under ctx.
func (b *builder) run(ctx context.Context, root plan.Node) (*Result, error) {
	op, err := b.build(ctx, root)
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	res := &Result{Schema: root.Schema()}
	for {
		if err := ctx.Err(); err != nil {
			_ = op.Close()
			return nil, err
		}
		bat, err := op.Next()
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if bat == nil {
			break
		}
		for i, row := range bat.Rows {
			res.Rows = append(res.Rows, row)
			if bat.Weights != nil {
				if res.Weights == nil {
					res.Weights = make([]float64, len(res.Rows)-1)
					for j := range res.Weights {
						res.Weights[j] = 1
					}
				}
				res.Weights = append(res.Weights, bat.Weights[i])
			} else if res.Weights != nil {
				res.Weights = append(res.Weights, 1)
			}
			if bat.Details != nil {
				if res.Details == nil {
					res.Details = make([]*GroupDetail, len(res.Rows)-1)
				}
				res.Details = append(res.Details, bat.Details[i])
			} else if res.Details != nil {
				res.Details = append(res.Details, nil)
			}
		}
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	res.Counters = *b.counters
	return res, nil
}
