package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func init() {
	register("E9", "one-pass property of query-time sampling; cost of spec-miss fallback", runE9)
	register("E10", "error–latency profile: spec tightness picks the sample size", runE10)
	register("E11", "online aggregation: CI width shrinks ~1/sqrt(rows read)", runE11)
	register("E12", "the no-silver-bullet property matrix, measured", runE12)
}

// E9 — one pass. Claim: query-time sampling must stay a single pass over
// each input to be worth anything; with plan-injected samplers the
// approximate run scans each table once (like exact, but touching less),
// while a spec miss that triggers exact fallback pays the pass twice.
func runE9(s Scale) (*Table, error) {
	star, err := workload.GenerateStar(workload.Config{Seed: s.Seed, LineitemRows: s.Rows})
	if err != nil {
		return nil, err
	}
	sql := `SELECT o_orderpriority, COUNT(*) AS n FROM lineitem
		JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority`
	exact := core.NewExactEngine(star.Catalog)
	onCfg := core.DefaultOnlineConfig()
	onCfg.MinTableRows = 1000
	onCfg.DefaultRate = 0.02
	online := core.NewOnlineEngine(star.Catalog, onCfg)

	t := &Table{ID: "E9", Title: "passes over data: sampling is one pass; fallback pays twice",
		Header: []string{"run", "passes", "rows_scanned", "latency", "spec_met"}}

	ctx := context.TODO()
	stmt, _ := sqlparse.Parse(sql)
	t0 := time.Now()
	exRes, err := exact.ExecuteContext(ctx, stmt, core.DefaultErrorSpec)
	if err != nil {
		return nil, err
	}
	t.AddRow("exact", itoa(exRes.Diagnostics.Counters.Passes),
		itoa(exRes.Diagnostics.Counters.RowsScanned),
		time.Since(t0).Round(time.Microsecond).String(), "n/a")

	t0 = time.Now()
	onRes, err := online.ExecuteContext(ctx, stmt, core.ErrorSpec{RelError: 0.2, Confidence: 0.9})
	if err != nil {
		return nil, err
	}
	t.AddRow("online (loose spec)", itoa(onRes.Diagnostics.Counters.Passes),
		itoa(onRes.Diagnostics.Counters.RowsScanned),
		time.Since(t0).Round(time.Microsecond).String(),
		boolStr(onRes.Diagnostics.SpecSatisfied))

	// An unreachable spec with fallback enabled: the engine samples, sees
	// the miss, and re-runs exactly — two passes.
	fbCfg := onCfg
	fbCfg.FallbackToExact = true
	fallback := core.NewOnlineEngine(star.Catalog, fbCfg)
	t0 = time.Now()
	fbRes, err := fallback.ExecuteContext(ctx, stmt, core.ErrorSpec{RelError: 0.0005, Confidence: 0.99})
	if err != nil {
		return nil, err
	}
	t.AddRow("online (impossible spec, fallback)", itoa(fbRes.Diagnostics.Counters.Passes),
		itoa(fbRes.Diagnostics.Counters.RowsScanned),
		time.Since(t0).Round(time.Microsecond).String(),
		boolStr(fbRes.Diagnostics.SpecSatisfied))

	t.AddNote("passes counts table scans opened; the join reads two tables, so exact = 2 passes")
	t.AddNote("fallback doubles the passes — why Quickr-style planners reject hopeless sampling upfront")
	return t, nil
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// E10 — error–latency profile. Claim: an offline system turns the error
// spec into a sample-size choice: loose specs ride tiny samples, tight
// specs climb the ladder, and specs beyond the profiled ladder fall back
// to exact execution.
func runE10(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 24, Skew: 1.0})
	if err != nil {
		return nil, err
	}
	sql := "SELECT ev_group, SUM(ev_value) AS s FROM events GROUP BY ev_group"
	cfg := core.DefaultOfflineConfig()
	cfg.Caps = []int{32, 128, 512, 2048}
	cfg.UniformRates = nil
	cfg.SafetyFactor = 1.2
	off := core.NewOfflineEngine(ev.Catalog, cfg)
	if err := off.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
		return nil, err
	}
	// Profile with several instances for stable estimates.
	for i := 0; i < 3; i++ {
		if err := off.ProfileQuery(sql); err != nil {
			return nil, err
		}
	}
	ctx := context.TODO()
	stmt, _ := sqlparse.Parse(sql)
	exactRes, err := core.NewExactEngine(ev.Catalog).ExecuteContext(ctx, stmt, core.DefaultErrorSpec)
	if err != nil {
		return nil, err
	}

	t := &Table{ID: "E10", Title: "error–latency profile: spec -> sample choice",
		Header: []string{"spec_relerr", "answered_from", "sample_rows", "achieved_max_relerr", "guarantee"}}
	for _, eps := range []float64{0.5, 0.2, 0.1, 0.05, 0.005} {
		res, err := off.ExecuteContext(ctx, stmt, core.ErrorSpec{RelError: eps, Confidence: 0.95})
		if err != nil {
			return nil, err
		}
		var achieved float64
		if res.NumRows() == exactRes.NumRows() {
			for i := 0; i < res.NumRows(); i++ {
				if re := relErr(res.Float(i, 1), exactRes.Float(i, 1)); re > achieved {
					achieved = re
				}
			}
		} else {
			achieved = 1
		}
		from := "exact (fallback)"
		rows := int64(0)
		if !res.Diagnostics.FellBackToExact {
			from = "sample"
			tbl, _ := ev.Catalog.Table("events")
			rows = int64(res.Diagnostics.SampleFraction * float64(tbl.NumRows()))
		}
		t.AddRow(pct(eps), from, itoa(rows), f4(achieved), res.Guarantee.String())
	}
	t.AddNote("tighter specs select larger rungs of the sample ladder; beyond the ladder -> exact")
	return t, nil
}

// E11 — OLA convergence. Claim: online aggregation's interval width
// shrinks as 1/sqrt(rows read), making early estimates usable; the
// product width·sqrt(k) staying flat is the fingerprint.
func runE11(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 8})
	if err != nil {
		return nil, err
	}
	sql := "SELECT SUM(ev_value) AS s FROM events"
	truth, err := exactFloat(ev.Catalog, sql, s.Workers)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultOLAConfig()
	cfg.ChunkRows = s.Rows / 12
	cfg.StopWhenSpecMet = false
	ola := core.NewOLAEngine(ev.Catalog, cfg)
	stmt, _ := sqlparse.Parse(sql)

	t := &Table{ID: "E11", Title: "online aggregation: interval shrinks ~1/sqrt(rows)",
		Header: []string{"fraction_read", "estimate_relerr", "ci_rel_halfwidth", "ci_rel*sqrt(rows)"}}
	_, err = ola.ExecuteProgressiveContext(context.TODO(), stmt, core.DefaultErrorSpec, func(p core.Progress) bool {
		it := p.Result.Items[0][0]
		rel := it.RelHalfWidth
		t.AddRow(f4(p.Fraction), f4(relErr(p.Result.Float(0, 0), truth)),
			f4(rel), f2(rel*sqrtF(float64(p.RowsRead))))
		return true
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("the last column staying ~flat early is the 1/sqrt(k) convergence fingerprint;")
	t.AddNote("its fall toward zero near fraction 1.0 is the finite-population correction kicking in")
	t.AddNote("stopping the moment the CI looks good invalidates its coverage (peeking); see core.OLAEngine docs")
	return t, nil
}

func sqrtF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations suffice here and avoid importing math twice.
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// E12 — the matrix. Claim (the paper's title): measured over one probe
// workload, no technique dominates — each column has a loser.
func runE12(s Scale) (*Table, error) {
	star, err := workload.GenerateStar(workload.Config{Seed: s.Seed, LineitemRows: s.Rows})
	if err != nil {
		return nil, err
	}
	onCfg := core.DefaultOnlineConfig()
	onCfg.MinTableRows = 1000
	onCfg.DefaultRate = 0.02
	online := core.NewOnlineEngine(star.Catalog, onCfg)
	offCfg := core.DefaultOfflineConfig()
	offCfg.Caps = []int{512}
	offCfg.UniformRates = []float64{0.02}
	offline := core.NewOfflineEngine(star.Catalog, offCfg)
	if err := offline.BuildSamples("lineitem", [][]string{{"l_returnflag", "l_linestatus"}}); err != nil {
		return nil, err
	}
	profiled := []string{
		"SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q FROM lineitem GROUP BY l_returnflag, l_linestatus",
		"SELECT SUM(l_extendedprice) FROM lineitem",
	}
	for _, q := range profiled {
		if err := offline.ProfileQuery(q); err != nil {
			return nil, err
		}
	}
	syn := core.NewSynopsisEngine(star.Catalog)
	for _, col := range []string{"l_quantity", "l_partkey"} {
		if err := syn.BuildColumn("lineitem", col, 64); err != nil {
			return nil, err
		}
	}
	ola := core.NewOLAEngine(star.Catalog, core.DefaultOLAConfig())
	adv := core.NewAdvisor(core.NewExactEngine(star.Catalog), online, offline, ola, syn)

	probe := []string{
		profiled[0],
		profiled[1],
		"SELECT AVG(l_extendedprice) FROM lineitem WHERE l_shipdate < 1200",
		"SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 10 AND 20",
		"SELECT COUNT(DISTINCT l_partkey) FROM lineitem",
		"SELECT MAX(l_extendedprice) FROM lineitem",
		"SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
	}
	rows, err := adv.Matrix(probe, core.ErrorSpec{RelError: 0.1, Confidence: 0.95})
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "E12", Title: "the no-silver-bullet matrix (measured over 8 probe queries)",
		Header: []string{"technique", "supported", "a_priori", "work_saved", "precompute_rows", "maintenance_rows"}}
	for _, r := range rows {
		t.AddRow(string(r.Technique), pct(r.SupportedFraction), pct(r.APrioriFraction),
			pct(r.MeanWorkSaved), itoa(r.PrecomputeRows), itoa(r.MaintenanceRows))
	}
	t.AddNote("exact: full generality, zero work saved; synopses: the reverse")
	t.AddNote("offline buys a-priori guarantees with precompute+maintenance; online trades them away for freshness")
	return t, nil
}
