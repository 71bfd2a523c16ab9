// Quickstart: create a table, load rows, and compare an exact answer with
// an advisor-routed approximate answer carrying confidence intervals.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	aqp "repro"
)

func main() {
	db := aqp.New()

	// A 500k-row measurements table.
	tbl, err := db.CreateTable("measurements", aqp.Schema{
		{Name: "sensor", Type: aqp.TypeString},
		{Name: "temp", Type: aqp.TypeFloat64},
		{Name: "ok", Type: aqp.TypeBool},
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sensors := []string{"north", "south", "east", "west"}
	for i := 0; i < 500_000; i++ {
		if err := tbl.AppendRow(
			aqp.Str(sensors[rng.Intn(len(sensors))]),
			aqp.Float64(20+rng.NormFloat64()*5),
			aqp.Bool(rng.Float64() < 0.98),
		); err != nil {
			log.Fatal(err)
		}
	}

	// Exact execution.
	ctx := context.Background()
	exact, err := db.Query(ctx, "SELECT sensor, COUNT(*) AS n, AVG(temp) AS avg_temp FROM measurements GROUP BY sensor ORDER BY sensor",
		aqp.QueryOptions{Mode: "exact"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact:")
	fmt.Print(aqp.FormatResult(exact))

	// Approximate execution with an error contract in the SQL itself.
	// The zero QueryOptions routes through the advisor.
	approx, err := db.Query(ctx,
		"SELECT sensor, COUNT(*) AS n, AVG(temp) AS avg_temp FROM measurements GROUP BY sensor ORDER BY sensor WITH ERROR 5% CONFIDENCE 95%",
		aqp.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\napproximate (advisor-routed):")
	fmt.Print(aqp.FormatResult(approx))
	for _, m := range approx.Diagnostics.Messages {
		fmt.Println("  ·", m)
	}

	// Per-item confidence intervals.
	fmt.Println("\nconfidence intervals:")
	for i, row := range approx.Items {
		for _, it := range row {
			if it.HasCI && it.IsAggregate {
				fmt.Printf("  row %d %-10s = %-12s CI [%.1f, %.1f] (±%.2f%%)\n",
					i, it.Name, it.Value.String(), it.CI.Lo, it.CI.Hi, it.RelHalfWidth*100)
			}
		}
	}
}
