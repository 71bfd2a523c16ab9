package aqp

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestQueryAsWritten(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 1, Rows: 30000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog)
	// Sampled as written: approximate with CIs.
	res, err := db.Query(context.Background(), "SELECT COUNT(*) AS n FROM events TABLESAMPLE BERNOULLI (10)", QueryOptions{Mode: "as-written"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOnline || res.Guarantee != GuaranteeAPosteriori {
		t.Errorf("tags = %v %v", res.Technique, res.Guarantee)
	}
	if math.Abs(res.Float(0, 0)-30000)/30000 > 0.15 {
		t.Errorf("estimate = %v", res.Float(0, 0))
	}
	if !res.Items[0][0].HasCI {
		t.Error("sampled as-written query must carry a CI")
	}
	// Unsampled as written: exact.
	res, err = db.Query(context.Background(), "SELECT COUNT(*) FROM events", QueryOptions{Mode: "as-written"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeExact || res.Float(0, 0) != 30000 {
		t.Errorf("unsampled as-written should be exact: %v %v", res.Guarantee, res.Float(0, 0))
	}
	// Spec from the SQL clause.
	res, err = db.Query(context.Background(), "SELECT COUNT(*) FROM events TABLESAMPLE BERNOULLI (10) WITH ERROR 20% CONFIDENCE 90%", QueryOptions{Mode: "as-written"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.RelError != 0.20 {
		t.Errorf("spec = %+v", res.Spec)
	}
}

func TestQueryOLAViaFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 2, Rows: 20000, NumGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog)
	res, err := db.Query(context.Background(), "SELECT AVG(ev_value) AS m FROM events", QueryOptions{Mode: "ola", Spec: ErrorSpec{RelError: 0.2, Confidence: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOLA {
		t.Errorf("technique = %v", res.Technique)
	}
}

func TestQueryOnlineViaFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 3, Rows: 60000, NumGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{
		DefaultRate: 0.05, MinTableRows: 1000, DistinctKeep: 10, Seed: 1}))
	res, err := db.Query(context.Background(), "SELECT SUM(ev_value) FROM events", QueryOptions{Mode: "online", Spec: DefaultErrorSpec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOnline {
		t.Errorf("technique = %v", res.Technique)
	}
	if db.OnlineEngine() == nil || db.SynopsisEngine() == nil || db.Catalog() == nil {
		t.Error("engine accessors")
	}
}

func TestBuildSynopsisAndRebuildViaFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 4, Rows: 20000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	offCfg := OfflineConfig{Caps: []int{128}, SafetyFactor: 1.2, Seed: 1}
	db := Open(ev.Catalog, aqpWithOffline(offCfg))
	if err := db.BuildSynopsis("events", "ev_user"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), "SELECT COUNT(DISTINCT ev_user) FROM events", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueSynopsis {
		t.Errorf("COUNT DISTINCT should route to synopsis: %v", res.Technique)
	}
	if err := db.BuildOfflineSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.RebuildOfflineSamples("events"); err != nil {
		t.Fatal(err)
	}
	if db.OfflineEngine().Maintenance.Rebuilds != 1 {
		t.Error("rebuild not recorded")
	}
}

// aqpWithOffline mirrors WithOfflineConfig for test readability.
func aqpWithOffline(cfg OfflineConfig) Option { return WithOfflineConfig(cfg) }

func TestDumpTableCSV(t *testing.T) {
	db := New()
	tbl, err := db.CreateTable("t", Schema{
		{Name: "a", Type: TypeInt64},
		{Name: "b", Type: TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(Int64(1), Str("x,y")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpTableCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") || !strings.Contains(out, `"x,y"`) {
		t.Errorf("csv:\n%s", out)
	}
}

func TestFormatResultWithCI(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 5, Rows: 60000, NumGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{
		DefaultRate: 0.05, MinTableRows: 1000, DistinctKeep: 10, Seed: 1}))
	res, err := db.Query(context.Background(), "SELECT SUM(ev_value) AS s FROM events", QueryOptions{Mode: "online", Spec: DefaultErrorSpec})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(res)
	if !strings.Contains(out, "±") {
		t.Errorf("CI marker missing:\n%s", out)
	}
	if !strings.Contains(out, "technique=online-sampling") {
		t.Errorf("footer missing:\n%s", out)
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	db := New()
	for _, call := range []func() error{
		func() error {
			_, err := db.Query(context.Background(), "SELECT", QueryOptions{Mode: "exact"})
			return err
		},
		func() error { _, err := db.Query(context.Background(), "garbage", QueryOptions{}); return err },
		func() error {
			_, err := db.Query(context.Background(), "x", QueryOptions{Mode: "online", Spec: DefaultErrorSpec})
			return err
		},
		func() error {
			_, err := db.Query(context.Background(), "x", QueryOptions{Mode: "offline", Spec: DefaultErrorSpec})
			return err
		},
		func() error {
			_, err := db.Query(context.Background(), "x", QueryOptions{Mode: "ola", Spec: DefaultErrorSpec})
			return err
		},
		func() error {
			_, err := db.Query(context.Background(), "x", QueryOptions{Mode: "as-written"})
			return err
		},
		func() error {
			_, err := db.Query(context.Background(), "EXPLAIN x", QueryOptions{})
			return err
		},
		func() error { _, err := db.Advise("x"); return err },
		func() error {
			_, err := db.Query(context.Background(), "x", QueryOptions{Mode: "ola", Spec: DefaultErrorSpec})
			return err
		},
	} {
		if call() == nil {
			t.Error("malformed SQL must error")
		}
	}
}
