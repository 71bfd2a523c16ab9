package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// The statistical-correctness harness: for each approximate engine, run
// many independently seeded trials of the same query and check that the
// empirical coverage of the reported 95% confidence intervals sits inside
// a binomial tolerance band around the nominal level. With 500 trials at
// p = 0.95 the binomial standard deviation is ~0.0097, so the band below
// is roughly nominal ± 6σ — wide enough never to flake on seed choice,
// tight enough to catch intervals that are wrong (too narrow) or vacuous
// (degenerate or orders of magnitude too wide paired with exact fallback,
// which the per-trial guards reject outright).
const (
	coverageTrials   = 500
	coverageLowBand  = 0.89
	coverageHighBand = 1.0
)

// coverageTrialResult is what one engine trial must report to the harness.
type coverageTrialResult struct {
	estimate float64
	lo, hi   float64
}

// runCoverageTrial executes stmt on eng at the given worker count and
// extracts the single aggregate's estimate and CI, enforcing the per-trial
// sanity guards (a real CI, no silent exact fallback).
func runCoverageTrial(t *testing.T, eng Engine, stmt *sqlparse.SelectStmt, spec ErrorSpec, workers int) coverageTrialResult {
	t.Helper()
	type ctxExecutor interface {
		ExecuteContext(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error)
	}
	ctx := exec.ContextWithWorkers(context.Background(), workers)
	res, err := eng.(ctxExecutor).ExecuteContext(ctx, stmt, spec)
	if err != nil {
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Fatalf("%s fell back to exact: %v", eng.Name(), res.Diagnostics.Messages)
	}
	if res.NumRows() != 1 || len(res.Items[0]) != 1 {
		t.Fatalf("%s: want one row, one item; got %d rows", eng.Name(), res.NumRows())
	}
	it := res.Items[0][0]
	if !it.IsAggregate || !it.HasCI {
		t.Fatalf("%s: aggregate item carries no CI", eng.Name())
	}
	if !(it.CI.Hi > it.CI.Lo) {
		t.Fatalf("%s: degenerate CI [%v, %v]", eng.Name(), it.CI.Lo, it.CI.Hi)
	}
	return coverageTrialResult{estimate: res.Float(0, 0), lo: it.CI.Lo, hi: it.CI.Hi}
}

// checkCoverage asserts the empirical coverage is inside the band and
// that serial and 4-worker runs agreed bit-for-bit on every trial.
func checkCoverage(t *testing.T, name string, covered, trials int) {
	t.Helper()
	cov := float64(covered) / float64(trials)
	t.Logf("%s: empirical 95%%-CI coverage %.4f (%d/%d)", name, cov, covered, trials)
	if cov < coverageLowBand || cov > coverageHighBand {
		t.Errorf("%s: coverage %.4f outside tolerance band [%.2f, %.2f]",
			name, cov, coverageLowBand, coverageHighBand)
	}
}

// assertTrialsEqual requires the serial and parallel trial to be
// bit-identical: the morsel executor's merge order is fixed by the morsel
// grid, not by worker scheduling, so W=1 and W=4 must produce the same
// floats down to the last bit — estimates and interval endpoints alike.
func assertTrialsEqual(t *testing.T, name string, trial int, serial, parallel coverageTrialResult) {
	t.Helper()
	if math.Float64bits(serial.estimate) != math.Float64bits(parallel.estimate) {
		t.Fatalf("%s trial %d: estimate differs across worker counts: %v (W=1) vs %v (W=4)",
			name, trial, serial.estimate, parallel.estimate)
	}
	if math.Float64bits(serial.lo) != math.Float64bits(parallel.lo) ||
		math.Float64bits(serial.hi) != math.Float64bits(parallel.hi) {
		t.Fatalf("%s trial %d: CI differs across worker counts: [%v, %v] vs [%v, %v]",
			name, trial, serial.lo, serial.hi, parallel.lo, parallel.hi)
	}
}

// coverageFixture builds the shared table and ground truth for the
// harness: 4000 exponential-valued rows, SUM over all of them.
func coverageFixture(t *testing.T) (*workload.Events, *sqlparse.SelectStmt, float64) {
	t.Helper()
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 101, Rows: 4000, NumGroups: 16, Skew: 0.8, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	stmt := parse(t, "SELECT SUM(ev_value) AS s FROM events")
	exact, err := NewExactEngine(ev.Catalog).ExecuteContext(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	return ev, stmt, exact.Float(0, 0)
}

// TestOnlineCoverage: 500 fresh query-time samples, one per seed.
func TestOnlineCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	covered := 0
	for trial := 0; trial < coverageTrials; trial++ {
		eng := NewOnlineEngine(ev.Catalog, OnlineConfig{
			DefaultRate: 0.1, MinTableRows: 1, Seed: int64(1000 + trial)})
		serial := runCoverageTrial(t, eng, stmt, spec, 1)
		parallel := runCoverageTrial(t, eng, stmt, spec, 4)
		assertTrialsEqual(t, "online", trial, serial, parallel)
		if serial.lo <= truth && truth <= serial.hi {
			covered++
		}
	}
	checkCoverage(t, "online", covered, coverageTrials)
}

// TestOfflineCoverage: 500 independently built uniform samples, each
// profiled so the engine certifies it rather than falling back.
func TestOfflineCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	sql := stmt.String()
	covered := 0
	for trial := 0; trial < coverageTrials; trial++ {
		eng := NewOfflineEngine(ev.Catalog, OfflineConfig{
			UniformRates: []float64{0.1}, SafetyFactor: 1, Seed: int64(2000 + trial)})
		if err := eng.BuildSamples("events", nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.ProfileQuery(sql); err != nil {
			t.Fatal(err)
		}
		serial := runCoverageTrial(t, eng, stmt, spec, 1)
		parallel := runCoverageTrial(t, eng, stmt, spec, 4)
		assertTrialsEqual(t, "offline", trial, serial, parallel)
		if serial.lo <= truth && truth <= serial.hi {
			covered++
		}
	}
	checkCoverage(t, "offline", covered, coverageTrials)
}

// TestOLACoverage: 500 random row permutations, each stopped at a fixed
// 25% fraction (StopWhenSpecMet off, so no peeking bias in the harness).
func TestOLACoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	covered := 0
	for trial := 0; trial < coverageTrials; trial++ {
		eng := NewOLAEngine(ev.Catalog, OLAConfig{
			ChunkRows: 512, MaxFraction: 0.25, StopWhenSpecMet: false,
			Seed: int64(3000 + trial)})
		serial := runCoverageTrial(t, eng, stmt, spec, 1)
		parallel := runCoverageTrial(t, eng, stmt, spec, 4)
		assertTrialsEqual(t, "ola", trial, serial, parallel)
		if serial.lo <= truth && truth <= serial.hi {
			covered++
		}
	}
	checkCoverage(t, "ola", covered, coverageTrials)
}

// TestExactWorkerInvariance: the exact engine has no sampling error, so
// across worker counts the answer must be bit-identical and equal to the
// truth the fixture computed.
func TestExactWorkerInvariance(t *testing.T) {
	ev, stmt, truth := coverageFixture(t)
	eng := NewExactEngine(ev.Catalog)
	for _, w := range []int{1, 2, 4, 7} {
		ctx := exec.ContextWithWorkers(context.Background(), w)
		res, err := eng.ExecuteContext(ctx, stmt, DefaultErrorSpec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Float(0, 0)) != math.Float64bits(truth) {
			t.Fatalf("W=%d: exact answer %v != %v", w, res.Float(0, 0), truth)
		}
		if res.Diagnostics.Workers != w {
			t.Errorf("W=%d: diagnostics report %d workers", w, res.Diagnostics.Workers)
		}
	}
}
