package core

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// shardGroupFor returns the shard group the statement can scatter over,
// or nil to run unsharded. Only single-table aggregate queries scatter;
// everything else runs against the base table, which remains the ingest
// surface and always holds every row.
func shardGroupFor(m *shard.Map, stmt *sqlparse.SelectStmt) *shard.Group {
	if m == nil || len(stmt.Joins) > 0 || !stmt.HasAggregates() {
		return nil
	}
	return m.Get(stmt.From.Name)
}

// planRunner runs one statement's plan, scattered over the statement's
// shard group or locally on the morsel path. newPlanRunner is the one
// place that decision is made; run returns a planRun of the same shape on
// both paths, so each engine has one tail.
type planRunner struct {
	g    *shard.Group // nil: run locally
	stmt *sqlparse.SelectStmt
}

// newPlanRunner scatters when the statement's table is sharded and the
// plan has a shape the gather step can reassemble.
func newPlanRunner(m *shard.Map, stmt *sqlparse.SelectStmt, p plan.Node) planRunner {
	r := planRunner{stmt: stmt}
	if g := shardGroupFor(m, stmt); g != nil && exec.Gatherable(p) {
		r.g = g
	}
	return r
}

// local reports whether plans run locally rather than scattered.
func (r planRunner) local() bool { return r.g == nil }

// span opens a timed span for one stage of a local run; a scattered
// stage is traced by its scatter span instead.
func (r planRunner) span(ctx context.Context, name string) (*trace.Span, context.Context) {
	if !r.local() {
		return nil, ctx
	}
	return trace.StartSpan(ctx, name)
}

// run executes p once. Locally it runs on the morsel path and the sampled
// population is every sampled table's rows. Scattered, each shard applies
// the plan's sampler (if any) with an independently derived seed; opts
// tune the scatter and are ignored locally.
func (r planRunner) run(ctx context.Context, p plan.Node, workers int,
	opts ...func(*shard.ExecOptions)) (*planRun, error) {

	if r.local() {
		raw, err := exec.RunParallelContext(ctx, p, workers)
		if err != nil {
			return nil, err
		}
		return &planRun{raw: raw, sampledPop: sampledRows(p)}, nil
	}
	var smp *sample.Spec
	for _, s := range plan.Scans(p) {
		if s.Sample != nil {
			cp := *s.Sample
			smp = &cp
			break
		}
	}
	return runSharded(ctx, r.g, r.stmt, p, smp, workers, opts...)
}

// planRun is the outcome of one plan execution, before engine
// annotation. A local run leaves every shard field zero.
type planRun struct {
	raw *exec.Result
	// summary describes the scatter; nil for a local run.
	summary *ShardExecSummary
	// messages are engine notes about degradation and extrapolation.
	messages []string
	degraded bool
	// sampledPop is the population actually subject to sampling, the
	// denominator for SampleFraction: the sampled tables' rows locally,
	// the covered rows of a sampled scatter.
	sampledPop int64
	// moments holds per-shard slot moments (contract pilots only; nil
	// entries mark failed/pruned shards), and rows the matching per-shard
	// populations in shard order.
	moments [][]exec.SlotMoment
	rows    []int
}

// stamp records the run's shard outcome in the diagnostics.
func (run *planRun) stamp(d *Diagnostics) {
	d.Messages = append(d.Messages, run.messages...)
	d.Degraded = run.degraded
	d.Shards = run.summary
}

// runSharded scatters the statement over the group and finalizes the
// merged partial under the already-built base plan p, so the gather-side
// operator chain (HAVING/projection/sort/limit) is byte-for-byte the one
// an unsharded run would execute. smp, when non-nil, is the sampler spec
// each shard applies with an independently derived seed; nil runs exact.
//
// Lost shards degrade the result instead of failing it. When the group is
// hash-partitioned and sampling is in effect, the survivors are an
// unbiased window on the table, so totals are extrapolated by
// total/covered population with variances scaled by its square — the CI
// stays honest about the full-table estimate. Range-sharded losses are
// systematic gaps and exact runs carry no variance to widen, so neither
// extrapolates; the caller downgrades the guarantee instead.
func runSharded(ctx context.Context, g *shard.Group, stmt *sqlparse.SelectStmt, p plan.Node,
	smp *sample.Spec, workers int, opts ...func(*shard.ExecOptions)) (*planRun, error) {

	eo := shard.ExecOptions{
		Workers:       workers,
		Sample:        smp,
		AllowDegraded: true,
	}
	for _, o := range opts {
		o(&eo)
	}
	sres, err := g.Scatter(ctx, stmt, eo)
	if err != nil {
		return nil, err
	}

	sum := &ShardExecSummary{
		Table:    g.Name(),
		Count:    g.NumShards(),
		Key:      g.Key().String(),
		Degraded: sres.Failed,
		Pruned:   sres.Pruned,
	}
	for _, o := range sres.Outcomes {
		sum.RowsPerShard = append(sum.RowsPerShard, o.Rows)
	}
	sum.CoverageFraction = 1
	if sres.TotalRows > 0 {
		sum.CoverageFraction = float64(sres.CoveredRows) / float64(sres.TotalRows)
	}

	run := &planRun{summary: sum, degraded: sres.Degraded(),
		moments: sres.ShardMoments, rows: sum.RowsPerShard}
	if smp != nil {
		run.sampledPop = int64(sres.CoveredRows)
	}
	if sres.Degraded() {
		run.messages = append(run.messages, fmt.Sprintf(
			"shard: %d/%d shards unavailable %v; answered from survivors covering %.1f%% of rows",
			len(sres.Failed), g.NumShards(), sres.Failed, 100*sum.CoverageFraction))
		switch {
		case smp != nil && g.Key().Kind == shard.KeyHash &&
			sres.CoveredRows > 0 && sres.CoveredRows < sres.TotalRows:
			r := float64(sres.TotalRows) / float64(sres.CoveredRows)
			sres.Partial.ScaleForCoverage(r)
			sum.Extrapolated = true
			run.messages = append(run.messages, fmt.Sprintf(
				"shard: extrapolated totals ×%.4g — hash shards are an unbiased window, variance scaled ×%.4g",
				r, r*r))
		case smp == nil:
			run.messages = append(run.messages,
				"shard: no extrapolation — exact partials carry no variance to widen; totals cover surviving shards only")
		default:
			run.messages = append(run.messages,
				"shard: no extrapolation — lost range shards are a systematic gap; totals cover surviving shards only")
		}
	}

	raw, err := exec.FinalizeAggPartial(ctx, p, sres.Partial)
	if err != nil {
		return nil, err
	}
	run.raw = raw
	return run, nil
}
