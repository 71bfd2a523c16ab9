// Package shard partitions a table into independent shards and executes
// aggregate queries over them scatter-gather: each shard runs the query's
// aggregate subtree against its own rows (and its own independently seeded
// sample), returning a mergeable partial state; the gather step folds the
// partials in shard order — which is exactly lossless stratified
// composition of the per-shard Horvitz–Thompson estimators — and finalizes
// once. Each shard fails, degrades, and recovers alone: a per-shard fault
// point and circuit breaker contain one bad shard's blast radius to its
// own stratum, and the gather step extrapolates the survivors honestly
// when the sharding key makes that statistically sound.
//
// Two implementations satisfy the Shard interface: LocalShard holds its
// rows in-process, and RemoteShard speaks the versioned wire schema to a
// shard-server process over HTTP, wrapped in a robustness envelope
// (deadlines, deterministic retries, hedged requests, health probing).
// The scatter executor is identical over both.
package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// KeyKind selects how rows are routed to shards.
type KeyKind uint8

// Sharding key kinds.
const (
	// KeyHash routes each row by a hash of its key value: rows are spread
	// uniformly, so any subset of shards is an unbiased window on the
	// table and lost shards can be extrapolated over.
	KeyHash KeyKind = iota
	// KeyRange routes each row by its key's position among quantile cut
	// points computed at partition time: shards hold contiguous key
	// ranges, enabling shard pruning for range predicates — but a lost
	// shard is a systematic gap that must never be extrapolated over.
	KeyRange
)

// String names the kind.
func (k KeyKind) String() string {
	if k == KeyRange {
		return "range"
	}
	return "hash"
}

// ParseKeyKind parses "hash" or "range".
func ParseKeyKind(s string) (KeyKind, error) {
	switch s {
	case "hash", "":
		return KeyHash, nil
	case "range":
		return KeyRange, nil
	}
	return KeyHash, fmt.Errorf("shard: unknown key kind %q (want hash or range)", s)
}

// Key declares how a table is partitioned.
type Key struct {
	// Column is the sharding key column. Optional when Count == 1 (a
	// single shard holds everything and needs no routing).
	Column string
	// Kind selects hash or range routing.
	Kind KeyKind
	// Count is the number of shards (>= 1).
	Count int
}

// String renders the key for diagnostics.
func (k Key) String() string {
	if k.Count <= 1 {
		return "single"
	}
	return fmt.Sprintf("%s(%s)/%d", k.Kind, k.Column, k.Count)
}

// Health is one shard's liveness summary.
type Health struct {
	ID int `json:"id"`
	// Kind is "local" (in-process) or "remote".
	Kind string `json:"kind"`
	// Addr is the remote shard server's base URL ("" for local shards).
	Addr string `json:"addr,omitempty"`
	Rows int    `json:"rows"`
	// Open reports whether the shard's circuit breaker currently rejects
	// traffic.
	Open bool `json:"open"`
	// Trips is how many times the breaker has tripped since creation.
	Trips int64 `json:"trips"`
	// SampleRows is the size of the shard's materialized sample (0 when
	// none has been built).
	SampleRows int `json:"sample_rows"`
	// SampleFresh reports whether the materialized sample was built at the
	// shard's current version (vacuously false when none exists).
	SampleFresh bool `json:"sample_fresh"`
	// Alive is the last health probe's verdict (always true for local
	// shards, which cannot be partitioned away from the coordinator).
	Alive bool `json:"alive"`
	// ProbeLatencyMS is the last successful health probe's round trip in
	// milliseconds (0 for local shards, or before the first probe).
	ProbeLatencyMS float64 `json:"probe_latency_ms,omitempty"`
	// Retries / Hedges / HedgeWins count the remote envelope's activity
	// since attach (0 for local shards).
	Retries   int64 `json:"retries,omitempty"`
	Hedges    int64 `json:"hedges,omitempty"`
	HedgeWins int64 `json:"hedge_wins,omitempty"`
}

// Query is the executable unit a shard runs: the statement (scatter
// executes its aggregate subtree) plus the sampler spec to push onto the
// shard's scans. The spec's Seed and Rate are already shard-resolved by
// the scatter executor — seeds derived per shard, rates Neyman-allocated
// when a contract run asks for it — so local and remote shards make
// byte-identical sampling decisions. A nil Sample runs exact (any
// statement-level TABLESAMPLE is cleared, matching the exact engine).
type Query struct {
	Stmt   *sqlparse.SelectStmt
	Sample *sample.Spec
}

// Shard is one independent partition of a table. Implementations must be
// safe for concurrent Estimate calls. LocalShard executes in-process;
// RemoteShard forwards to a shard-server over the versioned wire schema.
// The scatter executor treats both identically.
type Shard interface {
	// ID is the shard's index within its group.
	ID() int
	// Kind is "local" or "remote".
	Kind() string
	// Rows is the shard's current population size (last reported size for
	// remote shards).
	Rows() int
	// Estimate executes the query's aggregate subtree against this shard
	// and returns the mergeable partial state.
	Estimate(ctx context.Context, q Query, workers int) (*exec.AggPartial, error)
	// Rebuild (re)materializes the shard's own uniform sample at the given
	// rate. The seed is already shard-derived by the caller (see
	// DeriveSeed), keeping cross-shard samples independent.
	Rebuild(rate float64, seed int64) error
	// Health reports the shard's population and containment state.
	Health() Health
	// Bounds returns the observed [min, max] of the shard key when the
	// shard tracks it (range-sharded local shards). ok == false disables
	// range pruning for this shard, which is always safe — a shard that
	// cannot prove emptiness simply runs.
	Bounds() (lo, hi storage.Value, ok bool)
}

// LocalShard is the in-process Shard: a slice of the base table held as
// its own *storage.Table, with a per-shard fault injection point and an
// optionally materialized per-shard sample.
type LocalShard struct {
	id    int
	table *storage.Table
	point *fault.Point

	mu      sync.Mutex
	smp     *sample.StratifiedResult
	smpSeed int64
	// minKey/maxKey bound the observed shard-key values (range sharding
	// only); used by the scatter executor to prune shards that cannot
	// contain rows matching a range predicate on the key.
	minKey, maxKey storage.Value
	hasBounds      bool
}

func newLocalShard(id int, table *storage.Table) *LocalShard {
	return &LocalShard{
		id:    id,
		table: table,
		point: fault.NewPoint(fmt.Sprintf("shard.estimate.%d", id),
			"per-shard estimate execution (scatter fan-out)"),
	}
}

// ID implements Shard.
func (s *LocalShard) ID() int { return s.id }

// Kind implements Shard.
func (s *LocalShard) Kind() string { return "local" }

// Rows implements Shard.
func (s *LocalShard) Rows() int { return s.table.NumRows() }

// Scan returns the shard's table for planning and scanning (local shards
// only; remote shards hold their rows in another process).
func (s *LocalShard) Scan() *storage.Table { return s.table }

// Estimate implements Shard.
func (s *LocalShard) Estimate(ctx context.Context, q Query, workers int) (*exec.AggPartial, error) {
	if err := s.point.Inject(); err != nil {
		return nil, err
	}
	p, err := BuildShardQueryPlan(q, s.table)
	if err != nil {
		return nil, err
	}
	return exec.RunAggPartialContext(ctx, p, workers)
}

// Rebuild implements Shard. The seed arrives already shard-derived.
func (s *LocalShard) Rebuild(rate float64, seed int64) error {
	res, err := sample.BuildUniformTable(s.table, rate, seed,
		fmt.Sprintf("%s__sample", s.table.Name()))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.smp = res
	s.smpSeed = seed
	s.mu.Unlock()
	return nil
}

// Sample returns the shard's materialized sample, or nil.
func (s *LocalShard) Sample() *sample.StratifiedResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.smp
}

// Health implements Shard. Breaker state is stamped on by the owning
// Group, which holds the breakers.
func (s *LocalShard) Health() Health {
	h := Health{ID: s.id, Kind: "local", Rows: s.table.NumRows(), Alive: true}
	s.mu.Lock()
	if s.smp != nil {
		h.SampleRows = s.smp.SampleRows
		h.SampleFresh = s.smp.BuildVersion == s.table.Version()
	}
	s.mu.Unlock()
	return h
}

// Bounds implements Shard: the observed [min, max] of the shard key, if
// tracked.
func (s *LocalShard) Bounds() (lo, hi storage.Value, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.minKey, s.maxKey, s.hasBounds
}

func (s *LocalShard) extendBounds(v storage.Value) {
	if v.IsNull() {
		return
	}
	s.mu.Lock()
	if !s.hasBounds {
		s.minKey, s.maxKey, s.hasBounds = v, v, true
	} else {
		if v.Compare(s.minKey) < 0 {
			s.minKey = v
		}
		if v.Compare(s.maxKey) > 0 {
			s.maxKey = v
		}
	}
	s.mu.Unlock()
}

// BuildShardQueryPlan builds q's plan against a shard's table. The table
// is registered in a private catalog under the statement's FROM name, so
// the statement resolves unchanged, and q.Sample (already shard-resolved)
// is stamped onto every scan; nil Sample clears samplers, matching the
// exact engine. LocalShard and the shard-server estimate handler share
// this, so a remote shard executes exactly the plan its local twin would.
func BuildShardQueryPlan(q Query, t *storage.Table) (plan.Node, error) {
	if q.Stmt == nil || q.Stmt.From.Name == "" {
		return nil, fmt.Errorf("shard: query has no FROM table")
	}
	cat := storage.NewCatalog()
	if err := cat.AddAs(q.Stmt.From.Name, t); err != nil {
		return nil, err
	}
	p, err := plan.Build(q.Stmt, cat)
	if err != nil {
		return nil, err
	}
	if q.Sample == nil {
		plan.ClearSamplers(p)
		return p, nil
	}
	spec := *q.Sample
	for _, s := range plan.Scans(p) {
		s.Sample = &spec
	}
	return p, nil
}

// DeriveSeed maps a query- or build-level seed to a shard-local one.
// Shard 0 keeps the seed unchanged so a single-shard group reproduces the
// unsharded engine bit for bit; other shards get a splitmix64-mixed seed,
// making sampling decisions independent across shards. Independence is
// what keeps composed CIs honest: with a shared seed, shards would make
// correlated inclusion decisions at equal local row indices, and the
// cross-shard covariance the stratified composition assumes away would be
// nonzero.
func DeriveSeed(seed int64, shardID int) int64 {
	if shardID == 0 {
		return seed
	}
	x := uint64(seed) ^ (uint64(shardID) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// hashRoute assigns a key value to one of n hash shards. FNV-1a over the
// value's canonical group key, finished with splitmix64 so consecutive
// integer keys don't land in consecutive shards.
func hashRoute(v storage.Value, n int) int {
	if v.IsNull() {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range []byte(v.GroupKey()) {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}
