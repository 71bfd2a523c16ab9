package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

func init() {
	register("E1", "uniform-sampling error vs sampling rate (SUM/COUNT/AVG)", runE1)
	register("E2", "work saved vs sampling rate; crossover where sampling stops paying", runE2)
	register("E3", "group coverage on skewed data: uniform vs distinct sampler", runE3)
	register("E4", "join sampling: uniform both sides vs universe vs one side", runE4)
}

// runSampled executes sql after forcing the given sampler spec onto the
// named table, returning the annotated executor result. workers sets the
// morsel-parallel worker count (0 defers to runtime.GOMAXPROCS).
func runSampled(cat *storage.Catalog, sql, table string, spec *sample.Spec, workers int) (*exec.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		return nil, err
	}
	if spec != nil {
		if !plan.ApplySampler(p, table, *spec) {
			return nil, fmt.Errorf("experiments: table %s not scanned", table)
		}
		// Re-run the weight alignment in case of correlated samplers.
		_ = plan.Optimize(p)
	}
	return exec.RunParallelContext(context.TODO(), p, workers)
}

func exactFloat(cat *storage.Catalog, sql string, workers int) (float64, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, err
	}
	res, err := (&core.ExactEngine{Catalog: cat, Workers: workers}).ExecuteContext(context.TODO(), stmt, core.DefaultErrorSpec)
	if err != nil {
		return 0, err
	}
	if res.NumRows() == 0 {
		return 0, fmt.Errorf("experiments: empty exact result")
	}
	return res.Float(0, 0), nil
}

// E1 — uniform sampling error vs rate. Claim: relative error of linear
// aggregates shrinks as ~1/sqrt(n·p); at moderate rates errors are well
// under a percent, which is why sampling-based AQP is viable at all.
func runE1(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 16, ValueDist: "exp"})
	if err != nil {
		return nil, err
	}
	aggs := []struct{ name, sql string }{
		{"SUM", "SELECT SUM(ev_value) FROM events"},
		{"COUNT", "SELECT COUNT(*) FROM events"},
		{"AVG", "SELECT AVG(ev_value) FROM events"},
	}
	truth := make([]float64, len(aggs))
	for i, a := range aggs {
		truth[i], err = exactFloat(ev.Catalog, a.sql, s.Workers)
		if err != nil {
			return nil, err
		}
	}
	t := &Table{ID: "E1", Title: "uniform-sampling relative error vs rate",
		Header: []string{"rate", "agg", "mean_rel_err", "max_rel_err", "mean_ci_rel", "theory~1/sqrt(np)"}}
	rates := []float64{0.001, 0.005, 0.01, 0.05, 0.1}
	for _, rate := range rates {
		for i, a := range aggs {
			var sumErr, maxErr, sumCI float64
			for tr := 0; tr < s.Trials; tr++ {
				spec := &sample.Spec{Kind: sample.KindUniformRow, Rate: rate,
					Seed: s.Seed + int64(tr)*1001}
				res, err := runSampled(ev.Catalog, a.sql, "events", spec, s.Workers)
				if err != nil {
					return nil, err
				}
				if res.NumRows() == 0 {
					sumErr++
					maxErr = 1
					continue
				}
				est := res.Rows[0][0].AsFloat()
				re := relErr(est, truth[i])
				sumErr += re
				if re > maxErr {
					maxErr = re
				}
				if res.Details != nil && res.Details[0] != nil {
					d := res.Details[0].Aggs[0]
					iv := stats.CLTInterval(d.Estimate, d.Variance, d.N, 0.95)
					sumCI += iv.RelHalfWidth(est)
				}
			}
			n := float64(s.Trials)
			t.AddRow(pct(rate), a.name, f4(sumErr/n), f4(maxErr), f4(sumCI/n),
				f4(1/math.Sqrt(float64(s.Rows)*rate)))
		}
	}
	t.AddNote("errors scale ~1/sqrt(n·p): halving error costs 4x the sample — the core AQP trade")
	return t, nil
}

// E2 — work saved vs rate. Claim: sampling saves work roughly in
// proportion to 1-p for block sampling (which skips I/O), much less for
// row sampling (which must still scan everything), and above ~10% the
// speedup evaporates — the crossover where exact execution wins.
func runE2(s Scale) (*Table, error) {
	star, err := workload.GenerateStar(workload.Config{
		Seed: s.Seed, LineitemRows: s.Rows, BlockSize: 1024})
	if err != nil {
		return nil, err
	}
	sql := "SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem"
	truth, err := exactFloat(star.Catalog, sql, s.Workers)
	if err != nil {
		return nil, err
	}
	timeIt := func(spec *sample.Spec) (time.Duration, *exec.Result, error) {
		var best time.Duration
		var last *exec.Result
		reps := 3
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			res, err := runSampled(star.Catalog, sql, "lineitem", spec, s.Workers)
			if err != nil {
				return 0, nil, err
			}
			el := time.Since(t0)
			if best == 0 || el < best {
				best = el
			}
			last = res
		}
		return best, last, nil
	}
	exactTime, _, err := timeIt(nil)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "E2", Title: "work saved vs sampling rate",
		Header: []string{"rate", "method", "latency", "speedup", "scan_frac", "rel_err"}}
	t.AddRow("100%", "exact", exactTime.Round(time.Microsecond).String(), "1.00", "1.0000", "0.0000")
	for _, rate := range []float64{0.001, 0.01, 0.05, 0.1, 0.25} {
		for _, m := range []struct {
			name string
			kind sample.Kind
		}{{"row-bernoulli", sample.KindUniformRow}, {"block", sample.KindBlock}} {
			spec := &sample.Spec{Kind: m.kind, Rate: rate, Seed: s.Seed + 7}
			el, res, err := timeIt(spec)
			if err != nil {
				return nil, err
			}
			est := 0.0
			if res.NumRows() > 0 {
				est = res.Rows[0][0].AsFloat()
			}
			scanFrac := float64(res.Counters.RowsScanned) / float64(s.Rows)
			t.AddRow(pct(rate), m.name, el.Round(time.Microsecond).String(),
				f2(float64(exactTime)/float64(el)), f4(scanFrac), f4(relErr(est, truth)))
		}
	}
	t.AddNote("block sampling reduces rows *scanned*; row sampling only reduces downstream work")
	t.AddNote("as the rate grows the speedup decays toward 1 — sampling above ~10%% is not worth it")
	return t, nil
}

// E3 — group coverage. Claim: uniform sampling misses rare groups on
// skewed data; the distinct sampler (pass-through of the first K rows per
// stratum) keeps every group while still thinning heavy hitters.
func runE3(s Scale) (*Table, error) {
	t := &Table{ID: "E3", Title: "group coverage under skew: uniform vs distinct sampler",
		Header: []string{"zipf_skew", "groups", "sampler", "missing_groups", "max_group_relerr", "rows_kept"}}
	rate := 0.01
	groups := 400
	for _, skew := range []float64{0, 1.1, 1.4} {
		ev, err := workload.GenerateEvents(workload.EventsConfig{
			Seed: s.Seed + int64(skew*10), Rows: s.Rows, NumGroups: groups, Skew: skew})
		if err != nil {
			return nil, err
		}
		sql := "SELECT ev_group, COUNT(*) FROM events GROUP BY ev_group"
		exactStmt, _ := sqlparse.Parse(sql)
		exactRes, err := core.NewExactEngine(ev.Catalog).ExecuteContext(context.TODO(), exactStmt, core.DefaultErrorSpec)
		if err != nil {
			return nil, err
		}
		truthByGroup := make(map[int64]float64, exactRes.NumRows())
		for i := 0; i < exactRes.NumRows(); i++ {
			truthByGroup[exactRes.Rows[i][0].I] = exactRes.Float(i, 1)
		}
		for _, m := range []struct {
			name string
			spec sample.Spec
		}{
			{"uniform", sample.Spec{Kind: sample.KindUniformRow, Rate: rate}},
			{"distinct", sample.Spec{Kind: sample.KindDistinct, Rate: rate,
				KeyColumns: []string{"ev_group"}, KeepThreshold: 30}},
		} {
			var missing, rows int
			var maxRel float64
			for tr := 0; tr < s.Trials; tr++ {
				spec := m.spec
				spec.Seed = s.Seed + int64(tr)*31
				res, err := runSampled(ev.Catalog, sql, "events", &spec, s.Workers)
				if err != nil {
					return nil, err
				}
				seen := make(map[int64]float64, res.NumRows())
				for i := 0; i < res.NumRows(); i++ {
					seen[res.Rows[i][0].I] = res.Rows[i][1].AsFloat()
				}
				rows += int(res.Counters.RowsEmitted)
				for g, truth := range truthByGroup {
					est, ok := seen[g]
					if !ok {
						missing++
						continue
					}
					if re := relErr(est, truth); re > maxRel {
						maxRel = re
					}
				}
			}
			t.AddRow(f2(skew), itoa(int64(len(truthByGroup))), m.name,
				f2(float64(missing)/float64(s.Trials)), f4(maxRel),
				itoa(int64(rows/s.Trials)))
		}
	}
	t.AddNote("the distinct sampler never misses a group (pass-through of first K rows per stratum)")
	t.AddNote("uniform sampling misses tail groups once skew concentrates mass in the head")
	return t, nil
}

// E4 — join sampling. Claim: independently uniform-sampling both join
// inputs at rate p keeps only ~p² of join output and inflates error;
// the universe sampler keeps aligned key subsets so the join retains a
// p-fraction with far lower variance; sampling only one side is the safe
// middle ground.
func runE4(s Scale) (*Table, error) {
	star, err := workload.GenerateStar(workload.Config{Seed: s.Seed, LineitemRows: s.Rows})
	if err != nil {
		return nil, err
	}
	sql := "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
	stmt, _ := sqlparse.Parse(sql)
	exactRes, err := core.NewExactEngine(star.Catalog).ExecuteContext(context.TODO(), stmt, core.DefaultErrorSpec)
	if err != nil {
		return nil, err
	}
	truthCount := exactRes.Float(0, 0)
	truthSum := exactRes.Float(0, 1)

	t := &Table{ID: "E4", Title: "join over samples: who keeps the join alive",
		Header: []string{"rate", "strategy", "mean_out_rows", "count_relerr", "sum_relerr"}}

	type strategy struct {
		name  string
		build func(p plan.Node, rate float64, seed int64)
	}
	strategies := []strategy{
		{"uniform-both", func(p plan.Node, rate float64, seed int64) {
			plan.ApplySampler(p, "lineitem", sample.Spec{Kind: sample.KindUniformRow, Rate: rate, Seed: seed})
			plan.ApplySampler(p, "orders", sample.Spec{Kind: sample.KindUniformRow, Rate: rate, Seed: seed + 5})
		}},
		{"universe-both", func(p plan.Node, rate float64, seed int64) {
			salt := uint64(seed)*2654435761 + 99
			plan.ApplySampler(p, "lineitem", sample.Spec{Kind: sample.KindUniverse, Rate: rate,
				KeyColumns: []string{"l_orderkey"}, Salt: salt})
			plan.ApplySampler(p, "orders", sample.Spec{Kind: sample.KindUniverse, Rate: rate,
				KeyColumns: []string{"o_orderkey"}, Salt: salt, NoWeight: true})
		}},
		{"uniform-one-side", func(p plan.Node, rate float64, seed int64) {
			plan.ApplySampler(p, "lineitem", sample.Spec{Kind: sample.KindUniformRow, Rate: rate, Seed: seed})
		}},
	}
	for _, rate := range []float64{0.01, 0.05, 0.1} {
		for _, st := range strategies {
			var outRows int64
			var cErr, sErr float64
			for tr := 0; tr < s.Trials; tr++ {
				p, err := plan.Build(stmt, star.Catalog)
				if err != nil {
					return nil, err
				}
				st.build(p, rate, s.Seed+int64(tr)*77)
				res, err := exec.RunParallelContext(context.TODO(), p, s.Workers)
				if err != nil {
					return nil, err
				}
				if res.NumRows() == 0 || res.Details == nil {
					cErr++
					sErr++
					continue
				}
				d := res.Details[0]
				outRows += int64(d.GroupN)
				cErr += relErr(d.Aggs[0].Estimate, truthCount)
				sErr += relErr(d.Aggs[1].Estimate, truthSum)
			}
			n := float64(s.Trials)
			t.AddRow(pct(rate), st.name, itoa(outRows/int64(s.Trials)), f4(cErr/n), f4(sErr/n))
		}
	}
	t.AddNote("uniform-both keeps ~p² of the join output; universe-both keeps ~p with aligned keys")
	t.AddNote("the error gap is the reason Quickr introduced the universe sampler for joins")
	return t, nil
}
