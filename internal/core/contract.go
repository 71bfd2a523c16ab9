package core

// A-priori error contracts: two-stage pilot-sized execution.
//
// `WITH ERROR e% CONFIDENCE c%` becomes a promise instead of a wish: a
// cheap pilot measures each aggregate's variance, internal/contract sizes
// the stage-two sampling fraction that makes the CLT half-width land at
// or below the target (chi-square-inflated pilot variance, Bonferroni
// across estimates, finite-population correction folded into the rate
// transform), and stage two runs at that fraction. The sized fraction is
// fixed by stage-one data alone — a data-independent stopping rule in
// Stein's two-stage sense — so stage-two intervals keep their nominal
// coverage, which is what lets the engines stamp GuaranteeAPriori on the
// answer. When sizing proves the target unreachable inside the admission
// budget, the engine refuses honestly: it degrades to a best-effort
// a-posteriori CI at the budget fraction and flags the diagnostics with
// contract.InfeasibleFlag instead of certifying a guess.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// ContractConfig tunes two-stage contract execution.
type ContractConfig struct {
	// PilotFraction is the stage-one sampling fraction (default 0.05).
	PilotFraction float64
	// MinPilotRows floors the pilot at an absolute row count so variance
	// estimates on small tables are not built from a handful of rows
	// (default 200).
	MinPilotRows int
	// BudgetFraction is the admission budget: the largest stage-two
	// sampling fraction the engine may spend. A contract whose sized
	// fraction exceeds it is refused as infeasible (default 1).
	BudgetFraction float64
	// VarianceConfidence is the one-sided chi-square level of the pilot
	// variance upper bound used for sizing (default 0.9).
	VarianceConfidence float64
}

// DefaultContractConfig returns the engine defaults: a 5% pilot floored
// at 200 rows, the whole table as budget, 90% variance confidence.
func DefaultContractConfig() ContractConfig {
	return ContractConfig{
		PilotFraction:      0.05,
		MinPilotRows:       200,
		BudgetFraction:     1,
		VarianceConfidence: 0.9,
	}
}

func (c ContractConfig) withDefaults() ContractConfig {
	if c.PilotFraction <= 0 || c.PilotFraction > 1 {
		c.PilotFraction = 0.05
	}
	if c.MinPilotRows <= 0 {
		c.MinPilotRows = 200
	}
	if c.BudgetFraction <= 0 || c.BudgetFraction > 1 {
		c.BudgetFraction = 1
	}
	if c.VarianceConfidence <= 0 || c.VarianceConfidence >= 1 {
		c.VarianceConfidence = 0.9
	}
	return c
}

// pilotRate resolves the stage-one fraction for a table of the given
// size: the configured fraction, raised to cover MinPilotRows, capped
// at 1.
func (c ContractConfig) pilotRate(rows int64) float64 {
	pr := c.PilotFraction
	if rows > 0 {
		if min := float64(c.MinPilotRows) / float64(rows); min > pr {
			pr = min
		}
	}
	if pr > 1 {
		pr = 1
	}
	return pr
}

// contractStageSeed derives the stage-two sampler seed from the engine
// seed (splitmix64 finalizer), so the two stages make independent
// inclusion decisions while the whole run stays a pure function of the
// engine seed.
func contractStageSeed(seed int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// contractEstimates extracts the pilot moments contract sizing needs from
// an annotated result: one Estimate per aggregate item per group. An
// aggregate item without CLT moments (PERCENTILE's distribution bound,
// composite aggregate arithmetic) cannot be sized; its name is returned
// so the caller can refuse with a concrete reason.
func contractEstimates(res *Result) ([]contract.Estimate, string) {
	var ests []contract.Estimate
	for i := range res.Items {
		for _, it := range res.Items[i] {
			if !it.IsAggregate {
				continue
			}
			if it.SampleN <= 0 {
				return nil, it.Name
			}
			ests = append(ests, contract.Estimate{
				Value: it.Value.AsFloat(), Variance: it.Variance, N: it.SampleN,
			})
		}
	}
	return ests, ""
}

// newContractSummary starts the diagnostics block every contract path
// fills in.
func newContractSummary(spec ErrorSpec, cfg ContractConfig) *contract.Summary {
	return &contract.Summary{
		TargetRelError: spec.RelError,
		Confidence:     spec.Confidence,
		BudgetFraction: cfg.BudgetFraction,
	}
}

// sizeContract runs the sizing step shared by every engine: unsizable
// aggregates refuse with a named reason, otherwise internal/contract
// computes the binding stage-two fraction under the budget. The returned
// rate is floored at the pilot fraction (stage two is never smaller than
// the pilot) and capped at 1.
func sizeContract(ests []contract.Estimate, badName string, pilotRate float64,
	spec ErrorSpec, cfg ContractConfig) (contract.Sizing, float64) {

	var sz contract.Sizing
	if badName != "" {
		sz = contract.Sizing{
			Rate:         cfg.BudgetFraction,
			RequiredRate: cfg.BudgetFraction,
			Reason:       fmt.Sprintf("aggregate %s has no CLT moments to size from", badName),
		}
	} else {
		sz = contract.Size(ests, pilotRate, spec.RelError, spec.Confidence, contract.Options{
			BudgetRate:         cfg.BudgetFraction,
			VarianceConfidence: cfg.VarianceConfidence,
		})
	}
	rate := sz.Rate
	if rate < pilotRate {
		rate = pilotRate
	}
	if rate > 1 {
		rate = 1
	}
	return sz, rate
}

// stampInfeasible attaches the refusal message operators and tests grep
// for.
func stampInfeasible(d *Diagnostics, sum *contract.Summary) {
	if sum.Infeasible {
		d.Messages = append(d.Messages, fmt.Sprintf(
			"contract: %s — %s; returning best-effort a-posteriori CI at fraction %.4g",
			contract.InfeasibleFlag, sum.Reason, sum.FinalFraction))
	}
}

// exactContract answers the statement exactly and stamps a trivially-met
// contract: an exact answer has zero error, so any valid contract holds.
// Used when the query class cannot be sampled at all — refusing to
// approximate is not refusing to answer.
func exactContract(ctx context.Context, eng *ExactEngine, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig, why string) (*Result, error) {

	reason := "answered exactly (" + why + "); the contract holds trivially"
	res, err := exactFallback(ctx, eng, stmt, spec, "contract: "+reason)
	if err != nil {
		return nil, err
	}
	sum := newContractSummary(spec, cfg)
	sum.FinalFraction = 1
	sum.FinalRows = res.Diagnostics.Counters.RowsScanned
	sum.Reason = reason
	sum.Conclude(0, false)
	res.Diagnostics.Contract = sum
	return res, nil
}

// setPlanSamplers rewrites every placed sampler's rate and seed in the
// plan — the knob the two stages turn between runs of the same plan.
func setPlanSamplers(p plan.Node, rate float64, seed int64) {
	for _, s := range plan.Scans(p) {
		if s.Sample != nil {
			s.Sample.Rate = rate
			s.Sample.Seed = seed
		}
	}
}

// ExecuteContract runs the statement under an a-priori error contract on
// the online engine: a Bernoulli pilot at the pilot fraction, sizing, and
// a stage-two Bernoulli run at the sized fraction with an independent
// seed. Sharded tables compose the pilot stratum-wise and split the sized
// stage-two budget across shards by Neyman allocation.
func (e *OnlineEngine) ExecuteContract(ctx context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (_ *Result, err error) {

	defer contain(&err)
	if err := injectOnline.Inject(); err != nil {
		return nil, err
	}
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine online contract")
	defer esp.End()
	if !spec.Valid() {
		spec = DefaultErrorSpec
	}
	cfg = cfg.withDefaults()

	if ok, reason := supportedForSampling(stmt); !ok {
		return exactContract(ctx, e.exactEngine(), stmt, spec, cfg, reason)
	}
	p, err := plan.Build(stmt, e.Catalog)
	if err != nil {
		return nil, err
	}
	planned, notes := e.placeSamplers(stmt, p)
	if !planned {
		return exactContract(ctx, e.exactEngine(), stmt, spec, cfg, "no table worth sampling")
	}
	pr := cfg.pilotRate(sampledRows(p))
	workers := resolveWorkers(ctx, p, e.Config.Workers)
	esp.SetAttrInt("workers", int64(workers))

	r := newPlanRunner(e.Shards, stmt, p)

	// Stage one: pilot at the pilot fraction with the engine seed. A
	// scattered pilot keeps per-shard moments for the Neyman split, and
	// merging its partials in shard order composes the stratified
	// variance sizing needs.
	setPlanSamplers(p, pr, e.Config.Seed)
	psp, pctx := r.span(ctx, "contract pilot")
	prun, err := r.run(pctx, p, workers, func(o *shard.ExecOptions) { o.CollectMoments = true })
	psp.End()
	if err != nil {
		return nil, err
	}
	pilot := annotate(stmt, prun.raw, spec, TechniqueOnline, GuaranteeAPosteriori)
	ests, badName := contractEstimates(pilot)
	var sz contract.Sizing
	var rate2 float64
	if prun.degraded {
		// A pilot that lost shards measured only part of the population;
		// sizing from it cannot certify the whole. Refuse, run stage two
		// at the budget as best effort.
		sz = contract.Sizing{
			Rate:         cfg.BudgetFraction,
			RequiredRate: cfg.BudgetFraction,
			Reason:       "pilot lost shards; sizing from a partial pilot cannot certify the full population",
		}
		rate2 = math.Max(cfg.BudgetFraction, pr)
	} else {
		sz, rate2 = sizeContract(ests, badName, pr, spec, cfg)
	}

	sum := newContractSummary(spec, cfg)
	sum.PilotRows = prun.raw.Counters.RowsEmitted
	sum.PilotFraction = pr
	sum.RequiredFraction = sz.RequiredRate
	sum.FinalFraction = rate2
	sum.Infeasible = !sz.Feasible
	sum.Reason = sz.Reason
	shardRates := neymanShardRates(r.g, prun, rate2)

	// Stage two: independent seed, sized fraction, same plan; scattered
	// with per-shard rates when Neyman applies.
	setPlanSamplers(p, rate2, contractStageSeed(e.Config.Seed))
	ssp, sctx := r.span(ctx, "contract stage two")
	srun, err := r.run(sctx, p, workers, func(o *shard.ExecOptions) { o.ShardRates = shardRates })
	ssp.End()
	if err != nil {
		return nil, err
	}
	guarantee := GuaranteeAPriori
	switch {
	case srun.degraded && !srun.summary.Extrapolated:
		guarantee = GuaranteeNone
	case !sz.Feasible || srun.degraded:
		guarantee = GuaranteeAPosteriori
	}
	out := annotate(stmt, srun.raw, spec, TechniqueOnline, guarantee)
	out.Diagnostics.Messages = append(out.Diagnostics.Messages, notes...)
	srun.stamp(&out.Diagnostics)
	out.Diagnostics.SampleFraction = sampleFraction(srun.raw.Counters, srun.sampledPop)
	out.Diagnostics.Counters.Add(prun.raw.Counters)
	out.Diagnostics.Counters.Passes = 2
	out.Diagnostics.Workers = workers
	stampLineage(&out.Diagnostics, e.Catalog, stmt.From.Name)
	sum.FinalRows = srun.raw.Counters.RowsEmitted
	sum.ShardFractions = shardRates
	// A stage two that lost shards — even extrapolated over — can never
	// certify the a-priori promise.
	sum.Conclude(out.MaxRelHalfWidth(), srun.degraded)
	out.Diagnostics.Contract = sum
	stampInfeasible(&out.Diagnostics, sum)
	out.Diagnostics.Latency = time.Since(start)
	if r.local() {
		// A scatter may split rate2 into per-shard rates (ShardFractions).
		esp.SetAttrFloat("final_fraction", rate2)
	}
	return out, nil
}

// neymanShardRates splits the sized stage-two row budget across the
// group's shards Neyman-style from the pilot's per-shard spreads. It
// returns nil — every shard at the common rate — for a local run and for
// a single shard (so execution stays bit-identical to the unsharded
// engine), and when the pilot is missing any shard's moments.
func neymanShardRates(g *shard.Group, prun *planRun, rate2 float64) []float64 {
	if g == nil || g.NumShards() <= 1 || prun.degraded || len(prun.moments) != g.NumShards() {
		return nil
	}
	strata := make([]contract.ShardStratum, g.NumShards())
	var totalRows float64
	for h := range strata {
		rows := 0.0
		if h < len(prun.rows) {
			rows = float64(prun.rows[h])
		}
		totalRows += rows
		strata[h].Rows = rows
		// Per-row spread: Var(Ŝ_h) ≈ N_h²·s_h²·(1−f)/k_h at the pilot,
		// so s_h ≈ sqrt(V_h·k_h)/N_h; the binding slot's spread drives
		// the allocation. Pruned shards (nil moments) provably hold no
		// matching rows: spread 0 earns them the minimum allocation.
		if ms := prun.moments[h]; ms != nil && rows > 0 {
			for _, m := range ms {
				if m.Variance > 0 && m.N > 0 {
					s := math.Sqrt(m.Variance*m.N) / rows
					if s > strata[h].StdDev {
						strata[h].StdDev = s
					}
				}
			}
		} else if ms == nil && !shardPruned(prun.summary, h) {
			return nil
		}
	}
	if totalRows <= 0 {
		return nil
	}
	return contract.AllocateShards(strata, rate2*totalRows)
}

// shardPruned reports whether shard h was pruned in the summary.
func shardPruned(sum *ShardExecSummary, h int) bool {
	if sum == nil {
		return false
	}
	for _, id := range sum.Pruned {
		if id == h {
			return true
		}
	}
	return false
}

// ExecuteContract runs the statement under an a-priori error contract on
// the OLA engine as Stein-style two-stage prefix sampling: the pilot
// reads a fixed prefix of the seeded permutation (a without-replacement
// SRS), sizing fixes the total fraction from stage-one data alone, and
// stage two re-runs the same permutation to the sized prefix — the final
// estimate uses all rows up to a data-independently chosen cut, so its
// CI keeps nominal coverage and earns GuaranteeAPriori. Both passes run
// with spec-stopping disabled: stopping on an interim CI (peeking) is
// exactly what a contract must not do.
func (e *OLAEngine) ExecuteContract(ctx context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (_ *Result, err error) {

	defer contain(&err)
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine ola contract")
	defer esp.End()
	if !spec.Valid() {
		spec = DefaultErrorSpec
	}
	cfg = cfg.withDefaults()
	if ok, reason := e.supported(stmt); !ok {
		return exactContract(ctx, &ExactEngine{Catalog: e.Catalog, Workers: e.Config.Workers},
			stmt, spec, cfg, reason)
	}
	t, err := e.Catalog.Table(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	pr := cfg.pilotRate(int64(t.NumRows()))

	// Stage one: a MaxFraction-limited pass. The fraction cut is a
	// data-independent stopping rule, so the pilot is an intact SRS.
	pilotEng := &OLAEngine{Catalog: e.Catalog, Config: e.Config}
	pilotEng.Config.StopWhenSpecMet = false
	pilotEng.Config.MaxFraction = pr
	psp, pctx := trace.StartSpan(ctx, "contract pilot")
	pilot, err := pilotEng.ExecuteProgressiveContext(pctx, stmt, spec, nil)
	psp.End()
	if err != nil {
		return nil, err
	}
	pilotFrac := pilot.Diagnostics.SampleFraction
	ests, badName := contractEstimates(pilot)
	sz, rate2 := sizeContract(ests, badName, pilotFrac, spec, cfg)

	sum := newContractSummary(spec, cfg)
	sum.PilotRows = pilot.Diagnostics.Counters.RowsScanned
	sum.PilotFraction = pilotFrac
	sum.RequiredFraction = sz.RequiredRate
	sum.FinalFraction = rate2
	sum.Infeasible = !sz.Feasible
	sum.Reason = sz.Reason

	var out *Result
	if rate2 <= pilotFrac {
		// The pilot already read the sized prefix; it IS stage two.
		out = pilot
		sum.FinalRows = pilot.Diagnostics.Counters.RowsScanned
		sum.FinalFraction = pilotFrac
	} else {
		stageEng := &OLAEngine{Catalog: e.Catalog, Config: e.Config}
		stageEng.Config.StopWhenSpecMet = false
		stageEng.Config.MaxFraction = rate2
		ssp, sctx := trace.StartSpan(ctx, "contract stage two")
		out, err = stageEng.ExecuteProgressiveContext(sctx, stmt, spec, nil)
		ssp.End()
		if err != nil {
			return nil, err
		}
		sum.FinalRows = out.Diagnostics.Counters.RowsScanned
		// The pilot prefix is re-read by stage two (same permutation);
		// its scan cost is still real work performed.
		out.Diagnostics.Counters.RowsScanned += sum.PilotRows
		out.Diagnostics.Counters.Passes = 2
	}
	degraded := out.Diagnostics.Partial || out.Diagnostics.Degraded
	if sz.Feasible && !degraded {
		out.Guarantee = GuaranteeAPriori
	}
	sum.Conclude(out.MaxRelHalfWidth(), degraded)
	out.Diagnostics.Contract = sum
	stampInfeasible(&out.Diagnostics, sum)
	out.Diagnostics.Latency = time.Since(start)
	esp.SetAttrFloat("final_fraction", sum.FinalFraction)
	return out, nil
}

// ExecuteContract runs the statement under an a-priori error contract on
// the offline engine. The stored sample ladder has fixed sizes the
// contract cannot steer, so the engine draws two transient uniform
// samples from the base table instead: a pilot at the pilot fraction and
// a stage-two sample at the sized fraction — paying the build scans like
// any other maintenance cost and recording them in the counters.
func (e *OfflineEngine) ExecuteContract(ctx context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (_ *Result, err error) {

	defer contain(&err)
	if err := injectOffline.Inject(); err != nil {
		return nil, err
	}
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine offline contract")
	defer esp.End()
	if !spec.Valid() {
		spec = DefaultErrorSpec
	}
	cfg = cfg.withDefaults()
	exact := &ExactEngine{Catalog: e.Catalog, Workers: e.Config.Workers}
	if ok, reason := supportedForSampling(stmt); !ok {
		return exactContract(ctx, exact, stmt, spec, cfg, reason)
	}
	t, err := e.Catalog.Table(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	if t.NumRows() == 0 {
		return exactContract(ctx, exact, stmt, spec, cfg, "empty table")
	}
	pr := cfg.pilotRate(int64(t.NumRows()))

	// Stage one: transient uniform pilot sample.
	pres, err := sample.BuildUniformTable(t, pr, e.Config.Seed, stmt.From.Name+"__contract_pilot")
	if err != nil {
		return nil, err
	}
	ps := &StoredSample{Name: pres.Table.Name(), Source: stmt.From.Name, Rate: pr,
		Data: pres.Table, Rows: pres.SampleRows, BuildVersion: pres.BuildVersion,
		BuildRows: pres.SourceRows}
	praw, err := e.executeOn(ctx, ps, stmt)
	if err != nil {
		return nil, err
	}
	pilot := annotate(stmt, praw, spec, TechniqueOffline, GuaranteeAPosteriori)
	ests, badName := contractEstimates(pilot)
	sz, rate2 := sizeContract(ests, badName, pr, spec, cfg)

	sum := newContractSummary(spec, cfg)
	sum.PilotRows = int64(pres.SampleRows)
	sum.PilotFraction = pr
	sum.RequiredFraction = sz.RequiredRate
	sum.FinalFraction = rate2
	sum.Infeasible = !sz.Feasible
	sum.Reason = sz.Reason

	// Stage two: transient uniform sample at the sized fraction.
	sres, err := sample.BuildUniformTable(t, rate2, contractStageSeed(e.Config.Seed),
		stmt.From.Name+"__contract_stage2")
	if err != nil {
		return nil, err
	}
	ss := &StoredSample{Name: sres.Table.Name(), Source: stmt.From.Name, Rate: rate2,
		Data: sres.Table, Rows: sres.SampleRows, BuildVersion: sres.BuildVersion,
		BuildRows: sres.SourceRows}
	raw2, err := e.executeOn(ctx, ss, stmt)
	if err != nil {
		return nil, err
	}
	guarantee := GuaranteeAPriori
	if !sz.Feasible {
		guarantee = GuaranteeAPosteriori
	}
	out := annotate(stmt, raw2, spec, TechniqueOffline, guarantee)
	out.Diagnostics.Counters.Add(praw.Counters)
	// Both sample builds scan the base table: maintenance paid inline.
	out.Diagnostics.Counters.RowsScanned += 2 * int64(t.NumRows())
	out.Diagnostics.Counters.Passes = 2
	out.Diagnostics.Workers = exec.ResolveWorkers(ctx, e.Config.Workers)
	out.Diagnostics.SampleFraction = float64(sres.SampleRows) / float64(t.NumRows())
	stampLineage(&out.Diagnostics, e.Catalog, stmt.From.Name)
	out.Diagnostics.Lineage.SampleName = ss.Name
	out.Diagnostics.Lineage.BuildVersion = ss.BuildVersion
	out.Diagnostics.Lineage.BuildRows = ss.BuildRows
	sum.FinalRows = int64(sres.SampleRows)
	sum.Conclude(out.MaxRelHalfWidth(), out.Diagnostics.Degraded || out.Diagnostics.Partial)
	out.Diagnostics.Contract = sum
	stampInfeasible(&out.Diagnostics, sum)
	out.Diagnostics.Messages = append(out.Diagnostics.Messages, fmt.Sprintf(
		"offline: contract answered from a transient %d-row uniform sample (fraction %.4g), not the stored ladder",
		sres.SampleRows, rate2))
	out.Diagnostics.Latency = time.Since(start)
	return out, nil
}
