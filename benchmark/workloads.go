package main

import (
	"fmt"
	"math/rand"

	aqp "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// spec fixes one workload: its data, its traffic and the engine routes it
// claims to exercise.
type spec struct {
	name string
	// rows is the lineitem row count at scale 1.
	rows int
	// clients is the number of closed-loop load clients.
	clients int
	// queryWorkers is the morsel-parallel worker count each query runs
	// with; the server's admission pool holds clients slots.
	queryWorkers int
	telemetry    bool
	// ladder lists the query column sets of the offline sample ladder.
	ladder [][]string
	// routes lists the techniques that must answer at least once.
	routes []string
}

var specs = map[string]spec{
	"dashboard": {name: "dashboard", rows: 500_000, clients: 2, queryWorkers: 1, telemetry: true,
		ladder: [][]string{{"l_shipmode"}, {"l_returnflag", "l_linestatus"}},
		routes: []string{"exact", "online-sampling", "offline-samples"}},
	"highcard": {name: "highcard", rows: 60_000, clients: 1, queryWorkers: 2,
		routes: []string{"exact", "online-sampling"}},
}

// The tables are generated from a fixed seed, like a benchmark database at
// a fixed scale; the run's seed draws the query list and its literals.
// Which templates the offline samples certify depends on the data, and a
// benchmark whose routes moved with its seed could not compare two runs.
// offlineSeed pins sample construction likewise.
const (
	dataSeed    = 1
	offlineSeed = 7
)

// query is one pair of twins: the exact request and its approximate
// counterpart over the same SQL.
type query struct {
	template   string
	sql        string // exact form; also the reference query
	approxSQL  string
	approxMode string
}

// highcardTemplates are the high-cardinality GROUP BY columns.
var highcardTemplates = []string{"l_orderkey", "l_partkey"}

// highcardLiterals is the number of l_shipdate literals per template.
const highcardLiterals = 16

// queries draws the workload's query list from the seed.
func queries(s spec, seed int64) []query {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var out []query
	switch s.name {
	case "dashboard":
		for _, t := range workload.StarTemplates() {
			for i := 0; i < 2; i++ {
				sql := t.Instantiate(rng)
				out = append(out, query{template: t.Name, sql: sql,
					approxSQL: sql + " WITH ERROR 5% CONFIDENCE 95%", approxMode: "auto"})
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	case "highcard":
		// The l_shipdate literals (days 0..2556) keep 22-100% of the rows,
		// so each shape's latency spreads over a range and the shapes
		// overlap instead of forming spikes a quantile could fall between.
		// Literal i is drawn from the i-th of highcardLiterals equal
		// strata, so every seed holds the same mix of selectivities.
		for i := 0; i < highcardLiterals; i++ {
			lit := (i*2000 + rng.Intn(2000)) / highcardLiterals
			for _, col := range highcardTemplates {
				sql := fmt.Sprintf("SELECT %s, SUM(l_extendedprice) AS revenue, COUNT(*) AS n FROM lineitem WHERE l_shipdate >= %d GROUP BY %s",
					col, lit, col)
				out = append(out, query{template: col, sql: sql,
					approxSQL: sql + " WITH ERROR 10%", approxMode: "online"})
			}
		}
	}
	return out
}

// generate builds the workload's star schema, without samples.
func generate(s spec, scale float64) (*aqp.DB, error) {
	rows := int(float64(s.rows) * scale)
	star, err := workload.GenerateStar(workload.Config{Seed: dataSeed, LineitemRows: rows, Skew: 1.0})
	if err != nil {
		return nil, fmt.Errorf("generate star schema: %w", err)
	}
	cfg := core.DefaultOfflineConfig()
	cfg.Seed = offlineSeed
	return aqp.Open(star.Catalog, aqp.WithOfflineConfig(cfg)), nil
}

// setup generates the data, builds and profiles the offline ladder, and
// fails when the ladder leaves lineitem without stored samples.
func setup(s spec, scale float64) (*aqp.DB, error) {
	db, err := generate(s, scale)
	if err != nil || len(s.ladder) == 0 {
		return db, err
	}
	if err := db.BuildOfflineSamples("lineitem", s.ladder); err != nil {
		return nil, fmt.Errorf("build offline samples: %w", err)
	}
	if len(db.OfflineEngine().Samples("lineitem")) == 0 {
		return nil, fmt.Errorf("setup: lineitem has no stored samples after the ladder build")
	}
	if err := db.ProfileOffline(profileQueries()...); err != nil {
		return nil, fmt.Errorf("profile offline samples: %w", err)
	}
	return db, nil
}

// profileQueries is one instance of every star template; it is part of
// the database's set-up, so its literals come from dataSeed.
func profileQueries() []string {
	rng := rand.New(rand.NewSource(dataSeed*104729 + 3))
	var out []string
	for _, t := range workload.StarTemplates() {
		out = append(out, t.Instantiate(rng))
	}
	return out
}
