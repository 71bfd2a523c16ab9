// Progressive: online aggregation over a join. The query streams the fact
// table in random order against fully-built dimensions, emitting estimates
// whose confidence intervals tighten as 1/sqrt(rows read) — the dashboard
// experience where the number appears immediately and sharpens in place.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	aqp "repro"
	"repro/internal/workload"
)

func main() {
	star, err := workload.GenerateStar(workload.Config{Seed: 9, LineitemRows: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	db := aqp.Open(star.Catalog, aqp.WithOLAConfig(aqp.OLAConfig{
		ChunkRows:       50_000,
		MaxFraction:     1,
		MaxBuildRows:    1 << 20,
		StopWhenSpecMet: true, // stop once every CI is inside the spec
		Seed:            4,
	}))

	const q = `SELECT o_orderpriority, SUM(l_extendedprice) AS revenue
		FROM lineitem JOIN orders ON l_orderkey = o_orderkey
		GROUP BY o_orderpriority`

	ctx := context.Background()
	exact, err := db.Query(ctx, q, aqp.QueryOptions{Mode: "exact"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact answer took %s; now the progressive version:\n\n",
		exact.Diagnostics.Latency.Round(1_000_000))

	fmt.Printf("%-9s %-12s %s\n", "read", "max CI ±", "revenue by priority (1-URGENT shown with interval)")
	res, err := db.Query(ctx, q, aqp.QueryOptions{
		Mode: "ola",
		Spec: aqp.ErrorSpec{RelError: 0.02, Confidence: 0.95},
		Progress: func(p aqp.Progress) bool {
			it := p.Result.Items[0][1] // first group's revenue
			bar := strings.Repeat("#", int(p.Fraction*30))
			fmt.Printf("%7.1f%%  ±%6.2f%%    %-30s %.4g\n",
				p.Fraction*100, p.Result.MaxRelHalfWidth()*100, bar, it.Value.AsFloat())
			return true // keep streaming; the engine stops when the spec is met
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nstopped at %.1f%% of the data (%s), guarantee=%s\n",
		res.Diagnostics.SampleFraction*100, res.Diagnostics.Latency.Round(1_000_000), res.Guarantee)
	for _, m := range res.Diagnostics.Messages {
		fmt.Println("  ·", m)
	}
	fmt.Println("\nfinal estimates vs exact:")
	revIdx := res.ColumnIndex("revenue")
	for i := 0; i < res.NumRows() && i < exact.NumRows(); i++ {
		est := res.Float(i, revIdx)
		truth := exact.Float(i, revIdx)
		fmt.Printf("  %-16s est %.4g  exact %.4g  (err %.2f%%)\n",
			res.Rows[i][0].S, est, truth, 100*abs(est-truth)/truth)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
