package aqp_test

import (
	"context"
	"fmt"

	aqp "repro"
)

// ExampleDB_Query shows exact execution of a grouped aggregate.
func ExampleDB_Query() {
	db := aqp.New()
	tbl, _ := db.CreateTable("orders", aqp.Schema{
		{Name: "status", Type: aqp.TypeString},
		{Name: "total", Type: aqp.TypeFloat64},
	})
	_ = tbl.AppendRow(aqp.Str("open"), aqp.Float64(10))
	_ = tbl.AppendRow(aqp.Str("open"), aqp.Float64(20))
	_ = tbl.AppendRow(aqp.Str("done"), aqp.Float64(5))

	res, _ := db.Query(context.Background(), "SELECT status, COUNT(*) AS n, SUM(total) AS t FROM orders GROUP BY status ORDER BY status", aqp.QueryOptions{Mode: "exact"})
	for i := 0; i < res.NumRows(); i++ {
		fmt.Printf("%s n=%v t=%v\n", res.Rows[i][0], res.Rows[i][1], res.Rows[i][2])
	}
	fmt.Println(res.Guarantee)
	// Output:
	// done n=1 t=5
	// open n=2 t=30
	// exact
}

// ExampleDB_Advise shows the advisor explaining its routing.
func ExampleDB_Advise() {
	db := aqp.New()
	tbl, _ := db.CreateTable("t", aqp.Schema{{Name: "x", Type: aqp.TypeFloat64}})
	_ = tbl.AppendRow(aqp.Float64(1))

	// MIN is non-linear: no sample can bound its error.
	d, _ := db.Advise("SELECT MIN(x) FROM t")
	fmt.Println(d.Technique)
	// Output:
	// exact
}

// ExampleDB_Query_asWritten shows manual sampler control via TABLESAMPLE.
func ExampleDB_Query_asWritten() {
	db := aqp.New()
	tbl, _ := db.CreateTable("big", aqp.Schema{{Name: "v", Type: aqp.TypeFloat64}})
	for i := 0; i < 10000; i++ {
		_ = tbl.AppendRow(aqp.Float64(1))
	}
	// TABLESAMPLE BERNOULLI(100) keeps everything at weight 1: exact sum.
	res, _ := db.Query(context.Background(), "SELECT SUM(v) FROM big TABLESAMPLE BERNOULLI (100)", aqp.QueryOptions{Mode: "as-written"})
	fmt.Println(res.Rows[0][0])
	// Output:
	// 10000
}

// ExampleErrorSpec shows the accuracy-contract semantics.
func ExampleErrorSpec() {
	spec := aqp.ErrorSpec{RelError: 0.05, Confidence: 0.95}
	fmt.Println(spec.Valid())
	fmt.Println(aqp.ErrorSpec{}.Valid())
	// Output:
	// true
	// false
}
