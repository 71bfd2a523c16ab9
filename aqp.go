// Package aqp is the public API of this repository: an embeddable
// approximate-query-processing framework reproducing the design space of
// "Approximate Query Processing: No Silver Bullet" (SIGMOD 2017).
//
// A DB wraps an in-memory columnar catalog and four interchangeable query
// engines — exact, online sampling (Quickr-style), offline precomputed
// samples (BlinkDB-style), and online aggregation — plus precomputed
// synopses (histograms, Count-Min, HyperLogLog) and an advisor that picks
// a technique per query and reports the statistical strength of each
// answer. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// the reproduced experiments.
//
// Quickstart:
//
//	db := aqp.New()
//	tbl, _ := db.CreateTable("t", aqp.Schema{
//		{Name: "x", Type: aqp.TypeFloat64},
//	})
//	tbl.AppendRow(aqp.Float64(3.14))
//	ctx := context.Background()
//	res, _ := db.Query(ctx, "SELECT COUNT(*), AVG(x) FROM t", aqp.QueryOptions{Mode: "exact"})
//	approx, _ := db.Query(ctx, "SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%", aqp.QueryOptions{})
package aqp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Re-exported substrate types, so downstream users rarely need internal
// packages.
type (
	// Type is a column type.
	Type = storage.Type
	// Value is a dynamically typed scalar.
	Value = storage.Value
	// Schema is an ordered list of column definitions.
	Schema = storage.Schema
	// ColumnDef describes one column.
	ColumnDef = storage.ColumnDef
	// Table is an append-only columnar table.
	Table = storage.Table
	// Catalog is a named collection of tables.
	Catalog = storage.Catalog
	// ErrorSpec is the (relative error, confidence) accuracy contract.
	ErrorSpec = core.ErrorSpec
	// Result is an annotated query result.
	Result = core.Result
	// ItemResult annotates one output value with its CI.
	ItemResult = core.ItemResult
	// Technique tags the engine that answered.
	Technique = core.Technique
	// Guarantee grades the statistical strength of an answer.
	Guarantee = core.Guarantee
	// Decision explains an advisor routing choice.
	Decision = core.Decision
	// Interval is a confidence interval.
	Interval = stats.Interval
	// Progress is an online-aggregation checkpoint.
	Progress = core.Progress
	// OnlineConfig tunes the query-time sampling engine.
	OnlineConfig = core.OnlineConfig
	// OfflineConfig tunes offline sample construction.
	OfflineConfig = core.OfflineConfig
	// OLAConfig tunes online aggregation.
	OLAConfig = core.OLAConfig
	// ContractConfig tunes two-stage a-priori error-contract execution.
	ContractConfig = core.ContractConfig
	// ContractSummary records a contract execution's pilot sizing, cost,
	// and verdict (Result.Diagnostics.Contract).
	ContractSummary = contract.Summary
	// ContractVerdict is the met/missed/infeasible outcome of a contract.
	ContractVerdict = contract.Verdict
	// Profile is a structured per-query execution profile (span tree).
	Profile = trace.Profile
	// ShardKey declares how a table is partitioned into shards.
	ShardKey = shard.Key
	// ShardGroup is a sharded view over a table.
	ShardGroup = shard.Group
	// ShardHealth is one shard's liveness summary.
	ShardHealth = shard.Health
	// RemoteShardOptions tunes the robustness envelope (deadlines, retry,
	// hedging, health probing) around remote-shard RPC calls.
	RemoteShardOptions = shard.RemoteOptions
)

// Shard key kinds.
const (
	// ShardHash spreads rows uniformly by key hash (lost shards can be
	// extrapolated over).
	ShardHash = shard.KeyHash
	// ShardRange holds contiguous key ranges per shard (range predicates
	// prune shards; lost shards are a systematic gap).
	ShardRange = shard.KeyRange
)

// ParseShardKind parses a shard-kind name: "hash" (or "") or "range".
func ParseShardKind(s string) (shard.KeyKind, error) { return shard.ParseKeyKind(s) }

// Contract verdicts and the refusal flag.
const (
	// ContractMet: stage two ran at the sized fraction and the realized
	// error is at or below the target.
	ContractMet = contract.VerdictMet
	// ContractMissed: the realized error exceeded the target, or the run
	// degraded mid-flight.
	ContractMissed = contract.VerdictMissed
	// ContractInfeasible: the target is provably unreachable within the
	// admission budget; the answer is best-effort a-posteriori.
	ContractInfeasible = contract.VerdictInfeasible
	// ContractInfeasibleFlag is the diagnostics message token attached to
	// refused contracts.
	ContractInfeasibleFlag = contract.InfeasibleFlag
)

// Column types.
const (
	TypeInt64   = storage.TypeInt64
	TypeFloat64 = storage.TypeFloat64
	TypeString  = storage.TypeString
	TypeBool    = storage.TypeBool
)

// Guarantee levels.
const (
	GuaranteeExact       = core.GuaranteeExact
	GuaranteeAPriori     = core.GuaranteeAPriori
	GuaranteeAPosteriori = core.GuaranteeAPosteriori
	GuaranteeNone        = core.GuaranteeNone
)

// Techniques.
const (
	TechniqueExact    = core.TechniqueExact
	TechniqueOnline   = core.TechniqueOnline
	TechniqueOffline  = core.TechniqueOffline
	TechniqueOLA      = core.TechniqueOLA
	TechniqueSynopsis = core.TechniqueSynopsis
)

// Value constructors.
var (
	// Int64 wraps an int64 value.
	Int64 = storage.Int64
	// Float64 wraps a float64 value.
	Float64 = storage.Float64
	// Str wraps a string value.
	Str = storage.Str
	// Bool wraps a bool value.
	Bool = storage.Bool
	// Null returns a typed NULL.
	Null = storage.NullValue
	// DefaultErrorSpec is 5% error at 95% confidence.
	DefaultErrorSpec = core.DefaultErrorSpec
)

// Typed error taxonomy re-exports: every error escaping an engine is
// classified against these sentinels (test with errors.Is), so callers
// can map failure classes without importing internal packages.
var (
	// ErrTimeout classifies deadline expiry.
	ErrTimeout = core.ErrTimeout
	// ErrOverloaded classifies admission-control shedding.
	ErrOverloaded = core.ErrOverloaded
	// ErrEngineUnavailable classifies an engine that cannot currently serve.
	ErrEngineUnavailable = core.ErrEngineUnavailable
	// ErrQueryPanic classifies a panic recovered while executing one query.
	ErrQueryPanic = core.ErrQueryPanic
)

// Option configures a DB.
type Option func(*DB)

// WithOnlineConfig overrides the online engine configuration.
func WithOnlineConfig(cfg OnlineConfig) Option {
	return func(db *DB) { db.onlineCfg = cfg }
}

// WithOfflineConfig overrides the offline engine configuration.
func WithOfflineConfig(cfg OfflineConfig) Option {
	return func(db *DB) { db.offlineCfg = cfg }
}

// WithOLAConfig overrides the online-aggregation configuration.
func WithOLAConfig(cfg OLAConfig) Option {
	return func(db *DB) { db.olaCfg = cfg }
}

// WithContractConfig overrides the two-stage contract configuration
// (pilot fraction, admission budget, variance confidence).
func WithContractConfig(cfg ContractConfig) Option {
	return func(db *DB) { db.contractCfg = cfg }
}

// WithParallelism sets the default morsel-parallel worker count for every
// engine. 0 (the default) defers to a per-query context override, a plan
// hint, or runtime.GOMAXPROCS; 1 forces serial execution. Results are
// bit-identical regardless of the worker count.
func WithParallelism(workers int) Option {
	return func(db *DB) { db.workers = workers }
}

// DB is the top-level handle: a catalog plus the engine suite.
type DB struct {
	catalog     *storage.Catalog
	onlineCfg   OnlineConfig
	offlineCfg  OfflineConfig
	olaCfg      OLAConfig
	contractCfg ContractConfig
	workers     int

	exact    *core.ExactEngine
	online   *core.OnlineEngine
	offline  *core.OfflineEngine
	ola      *core.OLAEngine
	synopsis *core.SynopsisEngine
	advisor  *core.Advisor
	shards   *shard.Map
}

// New creates an empty database.
func New(opts ...Option) *DB {
	return Open(storage.NewCatalog(), opts...)
}

// Open wraps an existing catalog (e.g. one produced by a workload
// generator).
func Open(cat *storage.Catalog, opts ...Option) *DB {
	db := &DB{
		catalog:     cat,
		onlineCfg:   core.DefaultOnlineConfig(),
		offlineCfg:  core.DefaultOfflineConfig(),
		olaCfg:      core.DefaultOLAConfig(),
		contractCfg: core.DefaultContractConfig(),
	}
	for _, o := range opts {
		o(db)
	}
	if db.workers > 0 {
		db.onlineCfg.Workers = db.workers
		db.offlineCfg.Workers = db.workers
		db.olaCfg.Workers = db.workers
	}
	db.shards = shard.NewMap()
	db.exact = core.NewExactEngine(cat)
	db.exact.Workers = db.workers
	db.exact.Shards = db.shards
	db.online = core.NewOnlineEngine(cat, db.onlineCfg)
	db.online.Shards = db.shards
	db.offline = core.NewOfflineEngine(cat, db.offlineCfg)
	db.ola = core.NewOLAEngine(cat, db.olaCfg)
	db.synopsis = core.NewSynopsisEngine(cat)
	db.advisor = core.NewAdvisor(db.exact, db.online, db.offline, db.ola, db.synopsis)
	return db
}

// Catalog returns the underlying catalog.
func (db *DB) Catalog() *storage.Catalog { return db.catalog }

// CreateTable creates and registers an empty table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	t := storage.NewTable(name, schema)
	if err := db.catalog.Add(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Table looks up a registered table.
func (db *DB) Table(name string) (*Table, error) { return db.catalog.Table(name) }

// ShardTable partitions a registered table into independent shards by the
// declared key. Single-table aggregate queries over it then execute
// scatter-gather: every shard computes its own partial estimate (with an
// independently seeded sample under approximate engines) and the partials
// compose into one stratified answer. The base table remains the ingest
// surface — new rows are routed to shards before every query. With
// key.Count == 1 execution is bit-identical to the unsharded engine.
func (db *DB) ShardTable(name string, key ShardKey) (*ShardGroup, error) {
	t, err := db.catalog.Table(name)
	if err != nil {
		return nil, err
	}
	g, err := shard.Partition(t, key, fault.BreakerConfig{})
	if err != nil {
		return nil, err
	}
	if err := db.shards.Add(g); err != nil {
		return nil, err
	}
	return g, nil
}

// AttachRemoteShards registers a sharded view whose shards live in other
// processes, one per address, reached over the shard wire protocol. The
// base table stays local as the planning surface and ground-truth row
// source; estimates scatter over the remote shard servers with the full
// robustness envelope (per-call deadlines, seeded retries, hedged
// requests, breakers, background health probes). Each address must be
// serving the matching partition at attach time — an unreachable shard
// fails the attach loudly rather than degrading silently later.
// Remote groups are static: Sync is a no-op, so the partition files on
// the servers must already agree with the declared key.
func (db *DB) AttachRemoteShards(name string, key ShardKey, addrs []string, opt RemoteShardOptions) (*ShardGroup, error) {
	t, err := db.catalog.Table(name)
	if err != nil {
		return nil, err
	}
	g, err := shard.AttachRemote(t, key, addrs, opt, fault.BreakerConfig{})
	if err != nil {
		return nil, err
	}
	if err := db.shards.Add(g); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// Shards returns the registry of sharded tables (nil-safe, possibly empty).
func (db *DB) Shards() *shard.Map { return db.shards }

// Close releases background resources: remote-shard health probers and
// open RPC connections. Safe on a DB with no remote shards.
func (db *DB) Close() { db.shards.Close() }

// QueryProfile collects a per-query execution profile. Obtain one with
// WithProfile, run any query under the returned context, then read the
// span tree via Profile or the pretty rendering via String.
type QueryProfile struct {
	tr *trace.Tracer
}

// WithProfile returns a context that records a span trace for queries run
// under it, plus the handle to read the profile afterwards. Tracing is
// observational only: results are bit-identical with and without it.
func WithProfile(ctx context.Context) (context.Context, *QueryProfile) {
	tr := trace.New("query")
	return trace.WithTracer(ctx, tr), &QueryProfile{tr: tr}
}

// Profile snapshots the recorded span tree (nil before any query ran
// anything; safe to call multiple times).
func (p *QueryProfile) Profile() *Profile { return p.tr.Profile() }

// String renders the profile as an indented tree.
func (p *QueryProfile) String() string { return p.tr.Profile().String() }

// QueryOptions selects how Query and QueryStmt answer a statement. The
// zero value routes through the advisor at DefaultErrorSpec.
type QueryOptions struct {
	// Mode picks the engine; "" means "auto".
	//
	//   - auto: the advisor picks offline samples when a certified fresh
	//     sample exists, synopses for their narrow class, online sampling
	//     otherwise, and exact when nothing else is defensible.
	//   - exact: exact execution; Spec is not used.
	//   - online: query-time sampling.
	//   - offline: precomputed offline samples.
	//   - ola: online aggregation to completion (or early stop per
	//     config). Past a deadline it returns its best progressive
	//     estimate with its a-posteriori interval instead of an error.
	//   - synopsis: precomputed synopses (histogram/HLL/CMS) alone, in
	//     O(synopsis) time; queries outside that class fail rather than
	//     fall back.
	//   - as-written: the statement's TABLESAMPLE clauses are honored
	//     verbatim, with intervals when sampling was involved — the
	//     manual-control path for users who place their own samplers.
	Mode string
	// Spec is the accuracy target; the zero value means DefaultErrorSpec.
	// In auto and as-written modes and under Contract, a `WITH ERROR e%
	// CONFIDENCE c%` clause in the SQL overrides it. The other modes use
	// Spec as given.
	Spec ErrorSpec
	// Contract runs the query under an a-priori error contract: a pilot
	// run sizes the stage-two sampling fraction that makes the realized CI
	// land at or below the target, stage two runs at that fraction, and
	// Diagnostics.Contract records the sizing and the met/missed/infeasible
	// verdict. Modes auto and online run it on the online engine
	// (Bernoulli two-stage), ola on one seeded permutation (Stein-style
	// prefix sampling) and offline on two transient uniform samples of the
	// base table; other modes are rejected. Targets provably unreachable
	// within the admission budget are refused honestly: the result is a
	// best-effort a-posteriori CI and the diagnostics carry
	// ContractInfeasibleFlag.
	Contract bool
	// Progress, in mode ola, is called at every online-aggregation
	// checkpoint; returning false stops the stream, as does a deadline.
	Progress func(Progress) bool
}

// Statement is a parsed SELECT, as Parse returns it. A statement is never
// modified after parsing, so one can be run any number of times, from any
// number of goroutines.
type Statement = sqlparse.SelectStmt

// Parse parses one SELECT statement, optionally prefixed by EXPLAIN or
// EXPLAIN ANALYZE and suffixed by WITH ERROR e% CONFIDENCE c%.
func Parse(sql string) (*Statement, error) { return sqlparse.Parse(sql) }

// Modes returns the names QueryOptions.Mode accepts.
func Modes() []string {
	return []string{"auto", "exact", "online", "offline", "ola", "synopsis", "as-written"}
}

// CheckMode reports whether mode is a QueryOptions.Mode name ("" counts
// as auto) and, when contract is set, one that runs error contracts:
// auto, online, ola or offline.
func CheckMode(mode string, contract bool) error {
	switch mode {
	case "", "auto", "online", "offline", "ola":
		return nil
	case "exact", "synopsis", "as-written":
		if !contract {
			return nil
		}
		return fmt.Errorf("mode %q does not support contract execution (want auto, online, ola, or offline)", mode)
	}
	return fmt.Errorf("unknown mode %q (want auto, exact, online, offline, ola, synopsis, or as-written)", mode)
}

// Query parses sql and runs it with QueryStmt.
func (db *DB) Query(ctx context.Context, sql string, opts QueryOptions) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.QueryStmt(ctx, stmt, opts)
}

// QueryStmt runs a parsed statement on the engine opts selects. Scans
// observe ctx's cancellation and deadline, returning ctx.Err() when it
// expires (OLA instead stops early; see QueryOptions.Mode).
//
// The EXPLAIN prefix is handled here for every mode: plain EXPLAIN returns
// the optimized plan as rows without executing; EXPLAIN ANALYZE executes
// under a tracer (reusing a caller-installed one) and returns the rendered
// profile, keeping the executed query's technique, guarantee, and
// diagnostics.
func (db *DB) QueryStmt(ctx context.Context, stmt *Statement, opts QueryOptions) (*Result, error) {
	if err := CheckMode(opts.Mode, opts.Contract); err != nil {
		return nil, err
	}
	if opts.Progress != nil && (opts.Mode != "ola" || opts.Contract) {
		return nil, fmt.Errorf("aqp: Progress needs mode ola without a contract")
	}
	if !stmt.Explain {
		res, err := db.execute(ctx, stmt, opts)
		if err != nil {
			return nil, err
		}
		// Every query flows through here, so this one stamp gives library
		// users (and everything downstream: audits, logs, the workload
		// registry) the query's shape identity.
		res.Diagnostics.Fingerprint = stmt.Fingerprint().Hash
		return res, nil
	}
	if !stmt.Analyze {
		p, err := plan.Build(stmt, db.catalog)
		if err != nil {
			return nil, err
		}
		return textResult("plan", plan.Explain(p)), nil
	}
	sp, runCtx := trace.StartSpan(ctx, "query")
	if sp == nil {
		// No caller-installed tracer: make one rooted at this query.
		tr := trace.New("query")
		runCtx = trace.WithTracer(ctx, tr)
		sp = tr.Root()
	}
	defer sp.End()
	res, err := db.execute(runCtx, stmt, opts)
	if err != nil {
		return nil, err
	}
	sp.End()
	res.Diagnostics.Fingerprint = stmt.Fingerprint().Hash
	out := textResult("explain analyze", sp.Snapshot().String())
	out.Technique = res.Technique
	out.Guarantee = res.Guarantee
	out.Spec = res.Spec
	out.Diagnostics = res.Diagnostics
	return out, nil
}

// execute runs stmt on the engine opts.Mode names.
func (db *DB) execute(ctx context.Context, stmt *Statement, opts QueryOptions) (*Result, error) {
	spec := opts.Spec
	if spec == (ErrorSpec{}) {
		spec = DefaultErrorSpec
	}
	if stmt.Error != nil && (opts.Contract || opts.Mode == "as-written") {
		spec = ErrorSpec{RelError: stmt.Error.RelError, Confidence: stmt.Error.Confidence}
	}
	if opts.Contract {
		switch opts.Mode {
		case "ola":
			return db.ola.ExecuteContract(ctx, stmt, spec, db.contractCfg)
		case "offline":
			return db.offline.ExecuteContract(ctx, stmt, spec, db.contractCfg)
		default:
			return db.online.ExecuteContract(ctx, stmt, spec, db.contractCfg)
		}
	}
	switch opts.Mode {
	case "exact":
		return db.exact.ExecuteContext(ctx, stmt, DefaultErrorSpec)
	case "online":
		return db.online.ExecuteContext(ctx, stmt, spec)
	case "offline":
		return db.offline.ExecuteContext(ctx, stmt, spec)
	case "ola":
		return db.ola.ExecuteProgressiveContext(ctx, stmt, spec, opts.Progress)
	case "synopsis":
		return db.synopsis.ExecuteContext(ctx, stmt, spec)
	case "as-written":
		return core.ExecuteAsWrittenContext(ctx, db.catalog, stmt, spec)
	}
	res, dec, err := db.advisor.ExecuteStmtContext(ctx, stmt, spec)
	if err != nil {
		return nil, err
	}
	res.Diagnostics.Messages = append(res.Diagnostics.Messages, "advisor: "+dec.Reason)
	return res, nil
}

// textResult wraps pre-rendered text as a single-column result, one line
// per row.
func textResult(col, text string) *Result {
	r := &Result{Columns: []string{col}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		r.Rows = append(r.Rows, []storage.Value{storage.Str(line)})
		r.Items = append(r.Items, []ItemResult{{Name: col, Value: storage.Str(line)}})
	}
	return r
}

// Advise explains which technique the advisor would use, without running
// the query.
func (db *DB) Advise(sql string, spec ...ErrorSpec) (Decision, error) {
	s := DefaultErrorSpec
	if len(spec) > 0 {
		s = spec[0]
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return Decision{}, err
	}
	if stmt.Error != nil {
		s = ErrorSpec{RelError: stmt.Error.RelError, Confidence: stmt.Error.Confidence}
	}
	return db.advisor.Choose(stmt, s), nil
}

// BuildOfflineSamples materializes the offline sample ladder for a table
// over the given query column sets (the precomputation step).
func (db *DB) BuildOfflineSamples(table string, qcsList [][]string) error {
	return db.offline.BuildSamples(table, qcsList)
}

// ProfileOffline runs profiling queries to build the error–latency
// profile that certifies offline samples against error specs.
func (db *DB) ProfileOffline(sqls ...string) error {
	for _, q := range sqls {
		if err := db.offline.ProfileQuery(q); err != nil {
			return err
		}
	}
	return nil
}

// RebuildOfflineSamples refreshes a table's samples after updates,
// accumulating maintenance cost.
func (db *DB) RebuildOfflineSamples(table string) error { return db.offline.Rebuild(table) }

// OfflineEngine exposes the offline engine for advanced inspection
// (maintenance stats, stored samples).
func (db *DB) OfflineEngine() *core.OfflineEngine { return db.offline }

// OnlineEngine exposes the online engine.
func (db *DB) OnlineEngine() *core.OnlineEngine { return db.online }

// SynopsisEngine exposes the synopsis engine.
func (db *DB) SynopsisEngine() *core.SynopsisEngine { return db.synopsis }

// BuildSynopsis builds histogram/HLL/CMS synopses for a column.
func (db *DB) BuildSynopsis(table, column string) error {
	return db.synopsis.BuildColumn(table, column, 0)
}

// PropertyMatrix measures the no-silver-bullet matrix over probe queries.
func (db *DB) PropertyMatrix(probe []string, spec ErrorSpec) ([]core.TechniqueProperties, error) {
	return db.advisor.Matrix(probe, spec)
}

// FormatResult renders a result as an aligned text table with CI
// annotations for approximate aggregates.
func FormatResult(r *Result) string {
	out := ""
	for _, c := range r.Columns {
		out += fmt.Sprintf("%-22s", c)
	}
	out += "\n"
	for i, row := range r.Rows {
		for j, v := range row {
			cell := v.String()
			if j < len(r.Items[i]) {
				it := r.Items[i][j]
				if it.HasCI && it.CI.Width() > 0 {
					cell += fmt.Sprintf(" ±%.3g", it.CI.HalfWidth())
				}
			}
			out += fmt.Sprintf("%-22s", cell)
		}
		out += "\n"
	}
	out += fmt.Sprintf("-- technique=%s guarantee=%s rows_scanned=%d sample_fraction=%.4f latency=%s\n",
		r.Technique, r.Guarantee, r.Diagnostics.Counters.RowsScanned,
		r.Diagnostics.SampleFraction, r.Diagnostics.Latency)
	// Shard line only for sharded executions: zero-shard output is
	// byte-identical to what this function produced before sharding.
	if sh := r.Diagnostics.Shards; sh != nil {
		out += fmt.Sprintf("-- shards=%d key=%s coverage=%.4f degraded=%d pruned=%d extrapolated=%v\n",
			sh.Count, sh.Key, sh.CoverageFraction, len(sh.Degraded), len(sh.Pruned), sh.Extrapolated)
	}
	// Contract line only for contract executions: ordinary output is
	// byte-identical to what this function produced before contracts.
	if c := r.Diagnostics.Contract; c != nil {
		out += fmt.Sprintf("-- contract verdict=%s target=%.4g realized=%.4g pilot=%d rows (%.4g) final=%d rows (%.4g) required=%.4g budget=%.4g\n",
			c.Verdict, c.TargetRelError, c.RealizedRelError,
			c.PilotRows, c.PilotFraction, c.FinalRows, c.FinalFraction,
			c.RequiredFraction, c.BudgetFraction)
	}
	return out
}
