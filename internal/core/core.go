// Package core implements the AQP framework that is this repository's
// reproduction target: the design space of approximate query processing
// surveyed by "Approximate Query Processing: No Silver Bullet" (SIGMOD
// 2017). It provides four interchangeable engines over the same SQL and
// storage substrate —
//
//   - Exact: reference execution;
//   - Online: Quickr-style query-time sampling (no precomputation, one
//     pass, a-posteriori error reporting);
//   - Offline: BlinkDB-style precomputed stratified samples over query
//     column sets with error–latency profiles (a-priori error guarantees
//     on predicted workloads, at the cost of maintenance);
//   - OLA: online aggregation with progressively tightening estimates —
//
// plus an Advisor that picks a technique per query and reports, per the
// paper's thesis, which of the desirable properties each choice gives up.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
)

// ErrorSpec is the user's accuracy contract: every aggregate estimate must
// simultaneously be within RelError of the truth with probability at least
// Confidence.
type ErrorSpec struct {
	RelError   float64
	Confidence float64
}

// Valid reports whether the spec is well-formed.
func (s ErrorSpec) Valid() bool {
	return s.RelError > 0 && s.RelError < 1 && s.Confidence > 0 && s.Confidence < 1
}

// DefaultErrorSpec is 5% relative error at 95% confidence.
var DefaultErrorSpec = ErrorSpec{RelError: 0.05, Confidence: 0.95}

// Guarantee classifies the statistical strength of a result, the axis the
// paper argues systems are least honest about.
type Guarantee uint8

// Guarantee levels.
const (
	// GuaranteeExact: the answer is exact.
	GuaranteeExact Guarantee = iota
	// GuaranteeAPriori: the error spec was certified before execution
	// (offline samples with a valid profile, fresh data, in-QCS query).
	GuaranteeAPriori
	// GuaranteeAPosteriori: confidence intervals were computed from the
	// realized sample; the spec was checked after the fact.
	GuaranteeAPosteriori
	// GuaranteeNone: the result is approximate with no defensible error
	// statement (e.g. stale offline samples, non-analyzable aggregates).
	GuaranteeNone
)

// String names the guarantee level.
func (g Guarantee) String() string {
	switch g {
	case GuaranteeExact:
		return "exact"
	case GuaranteeAPriori:
		return "a-priori"
	case GuaranteeAPosteriori:
		return "a-posteriori"
	default:
		return "none"
	}
}

// Technique identifies an AQP engine.
type Technique string

// Techniques.
const (
	TechniqueExact    Technique = "exact"
	TechniqueOnline   Technique = "online-sampling"
	TechniqueOffline  Technique = "offline-samples"
	TechniqueOLA      Technique = "online-aggregation"
	TechniqueSynopsis Technique = "synopsis"
)

// ItemResult is the statistical annotation of one select item in one
// output row.
type ItemResult struct {
	// Name is the output column name.
	Name string
	// Value is the point value (also present in the result row).
	Value storage.Value
	// IsAggregate reports whether the item involves aggregation.
	IsAggregate bool
	// HasCI reports whether a confidence interval could be derived.
	HasCI bool
	// CI is the confidence interval (when HasCI).
	CI stats.Interval
	// RelHalfWidth is the CI half-width relative to the estimate.
	RelHalfWidth float64
	// Variance and SampleN are the CLT moments behind the interval (the
	// estimator's variance and the sampled rows contributing to it),
	// stamped for sampled aggregates so a pilot run's result is enough to
	// size a contract stage two. Zero for exact or non-CLT items.
	Variance float64
	SampleN  float64
}

// Diagnostics records the physical and statistical facts of an execution.
type Diagnostics struct {
	Counters exec.Counters
	// SampleFraction is rows emitted / rows in sampled tables (1 for
	// exact runs).
	SampleFraction float64
	// Latency is wall-clock execution time.
	Latency time.Duration
	// FellBackToExact reports that the engine declined to approximate.
	FellBackToExact bool
	// SpecSatisfied reports whether every aggregate's CI met the spec
	// (meaningful for approximate runs).
	SpecSatisfied bool
	// Stale reports that an offline sample was out of date.
	Stale bool
	// Partial reports that execution was cut short by a deadline or
	// cancellation and the result is the best estimate accumulated so
	// far (online aggregation's graceful degradation).
	Partial bool
	// Degraded reports that this result is not what the caller asked for
	// but the best available substitute: a ladder fallback to a cheaper
	// technique, or a partial estimate kept after a mid-query fault. The
	// CI still describes exactly the estimate returned.
	Degraded bool
	// Workers is the resolved morsel-parallel worker count the execution
	// ran with (1 = serial).
	Workers int
	// Fingerprint is the stable hash of the query's shape (the
	// literal-normalized canonical SQL plus its query-column-set),
	// stamped by the facade so callers can correlate results, audits,
	// and logs to the workload template that produced them.
	Fingerprint string
	// Lineage records the provenance of the data the answer was computed
	// from, so accuracy audits can correlate coverage misses with data
	// drift after the fact.
	Lineage SampleLineage
	// Shards summarizes sharded scatter-gather execution; nil for
	// unsharded runs (and thus absent from serialized diagnostics, keeping
	// single-table output identical to before sharding existed).
	Shards *ShardExecSummary
	// Contract records a-priori error-contract execution (pilot sizing,
	// stage-two cost, met/missed/infeasible verdict); nil for ordinary
	// runs, keeping their serialized diagnostics unchanged.
	Contract *contract.Summary
	// Messages carries human-readable engine notes.
	Messages []string
}

// ShardExecSummary records how a scatter-gather execution went: the group
// shape, which shards failed or were pruned, and whether the survivors'
// estimates were extrapolated to the full population.
type ShardExecSummary struct {
	// Table is the sharded table; Count its shard count; Key the
	// partitioning declaration (e.g. "hash(ev_user)/4").
	Table string
	Count int
	Key   string
	// RowsPerShard is each shard's population, in shard order.
	RowsPerShard []int
	// Degraded lists shards that failed to contribute; Pruned lists shards
	// skipped because their key range provably held no matching rows.
	Degraded []int
	Pruned   []int
	// Extrapolated reports that surviving hash shards' totals were scaled
	// to the full population (with variances scaled accordingly).
	Extrapolated bool
	// CoverageFraction is covered rows / total rows (1 when healthy).
	CoverageFraction float64
}

// SampleLineage ties a result to the state of the base table its backing
// sample (or scan) was drawn from. For query-time techniques the build
// watermark equals the execution-time snapshot; for offline samples and
// synopses it is the watermark at construction, which is what makes
// post-hoc staleness attribution possible: an audit that re-executes the
// query exactly and misses can check how many rows arrived after
// BuildRows.
type SampleLineage struct {
	// Table is the primary FROM table.
	Table string
	// TableVersion / TableRows snapshot the base table at execution time.
	TableVersion uint64
	TableRows    int
	// SampleName identifies the stored sample or synopsis answered from
	// ("" for query-time sampling and exact runs).
	SampleName string
	// BuildVersion / BuildRows are the base table's version and row count
	// when the backing sample/synopsis was built (equal to TableVersion /
	// TableRows when the data was read at query time).
	BuildVersion uint64
	BuildRows    int
}

// stampLineage fills d.Lineage for a query-time read of the statement's
// base table: the build watermark is the execution-time snapshot.
func stampLineage(d *Diagnostics, cat *storage.Catalog, table string) {
	t, err := cat.Table(table)
	if err != nil {
		return
	}
	v, n := t.Version(), t.NumRows()
	d.Lineage = SampleLineage{
		Table: table, TableVersion: v, TableRows: n,
		BuildVersion: v, BuildRows: n,
	}
}

// Result is an annotated query result.
type Result struct {
	Columns []string
	Rows    [][]storage.Value
	// Items annotates each row's select items: Items[i][j] corresponds
	// to Rows[i][j].
	Items [][]ItemResult
	// Technique that produced the result.
	Technique Technique
	// Guarantee strength of the error statement.
	Guarantee Guarantee
	// Spec the result was produced under (zero for exact).
	Spec        ErrorSpec
	Diagnostics Diagnostics
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.Rows) }

// Float returns the row i, column j value as float64.
func (r *Result) Float(i, j int) float64 { return r.Rows[i][j].AsFloat() }

// ColumnIndex returns the index of a named output column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// MaxRelHalfWidth returns the largest relative CI half-width across all
// aggregate items (0 if none).
func (r *Result) MaxRelHalfWidth() float64 {
	var m float64
	for _, row := range r.Items {
		for _, it := range row {
			if it.IsAggregate && it.HasCI {
				m = math.Max(m, it.RelHalfWidth)
			}
		}
	}
	return m
}

// Engine executes parsed statements under an error spec.
type Engine interface {
	// Name returns the engine's technique tag.
	Name() Technique
	// ExecuteContext runs the statement under ctx. Engines that cannot
	// honor the request fall back gracefully (and say so in Diagnostics)
	// rather than fail, unless the query itself is invalid.
	ExecuteContext(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error)
}

// supportedForSampling reports whether every aggregate in the statement is
// sample-approximable: linear (SUM/COUNT/AVG without DISTINCT, via the
// CLT) or PERCENTILE (via the DKW distribution bound). Queries outside
// this class must run exactly: the generality limit of sampling-based AQP.
func supportedForSampling(stmt *sqlparse.SelectStmt) (bool, string) {
	for _, a := range stmt.Aggregates() {
		if !a.Func.SampleApproximable() {
			return false, fmt.Sprintf("aggregate %s is not sample-approximable", a)
		}
		if a.Distinct {
			return false, fmt.Sprintf("aggregate %s uses DISTINCT", a)
		}
	}
	if !stmt.HasAggregates() {
		return false, "query has no aggregates"
	}
	return true, ""
}

// confidencePerEstimate allocates the joint confidence across estimates
// via Boole's inequality: k aggregate slots times g groups.
func confidencePerEstimate(spec ErrorSpec, slots, groups int) float64 {
	k := slots * maxInt(groups, 1)
	return stats.AllocateConfidence(spec.Confidence, k)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// resolveWorkers picks the effective morsel-parallel worker count for a
// plan execution: a context override wins, then the plan's parallelism
// hint, then the engine configuration, then runtime.GOMAXPROCS.
func resolveWorkers(ctx context.Context, p plan.Node, cfgWorkers int) int {
	hint := plan.Parallelism(p)
	if hint <= 0 {
		hint = cfgWorkers
	}
	return exec.ResolveWorkers(ctx, hint)
}
