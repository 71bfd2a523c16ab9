package core

import (
	"context"
	"testing"
)

// Lineage must let an after-the-fact audit reconstruct what data an
// answer was computed from: the base-table snapshot at execution and the
// watermark at sample build.
func TestExactAndOnlineLineage(t *testing.T) {
	ev := smallEvents(t, 2000, 0.5)
	stmt := parse(t, "SELECT SUM(ev_value) FROM events")

	res, err := NewExactEngine(ev.Catalog).ExecuteContext(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	lin := res.Diagnostics.Lineage
	if lin.Table != "events" || lin.TableRows != 2000 || lin.BuildRows != 2000 {
		t.Fatalf("exact lineage %+v, want events/2000/2000", lin)
	}
	if lin.TableVersion != ev.Table.Version() || lin.BuildVersion != lin.TableVersion {
		t.Fatalf("exact lineage versions %+v vs table version %d", lin, ev.Table.Version())
	}

	on := NewOnlineEngine(ev.Catalog, OnlineConfig{DefaultRate: 0.2, MinTableRows: 1, Seed: 3})
	res, err = on.ExecuteContext(context.Background(), stmt, ErrorSpec{RelError: 0.5, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	lin = res.Diagnostics.Lineage
	if lin.Table != "events" || lin.BuildRows != 2000 || lin.BuildVersion != ev.Table.Version() {
		t.Fatalf("online lineage %+v", lin)
	}
}

// The offline engine's stored samples must refresh their row watermark on
// Rebuild — a stale watermark makes every post-rebuild audit look like
// drift.
func TestOfflineBuildRowsSurvivesRebuild(t *testing.T) {
	ev := smallEvents(t, 3000, 0.5)
	eng := NewOfflineEngine(ev.Catalog, DefaultOfflineConfig())
	if err := eng.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	for _, s := range eng.Samples("events") {
		if s.BuildRows != 3000 {
			t.Fatalf("sample %s BuildRows %d, want 3000", s.Name, s.BuildRows)
		}
	}
	if err := ev.AppendShifted(500, 4, 99); err != nil {
		t.Fatal(err)
	}
	if err := eng.Rebuild("events"); err != nil {
		t.Fatal(err)
	}
	for _, s := range eng.Samples("events") {
		if s.BuildRows != 3500 {
			t.Fatalf("sample %s BuildRows %d after rebuild, want 3500", s.Name, s.BuildRows)
		}
		if s.BuildVersion != ev.Table.Version() {
			t.Fatalf("sample %s BuildVersion %d, want %d", s.Name, s.BuildVersion, ev.Table.Version())
		}
	}

	// An answer served from a certified sample carries that watermark.
	sql := "SELECT SUM(ev_value) FROM events GROUP BY ev_group"
	if err := eng.ProfileQuery(sql); err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteContext(context.Background(), parse(t, sql), ErrorSpec{RelError: 0.9, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Skipf("no certified sample under this spec; lineage path not exercised: %v",
			res.Diagnostics.Messages)
	}
	lin := res.Diagnostics.Lineage
	if lin.SampleName == "" || lin.BuildRows != 3500 || lin.TableRows != 3500 {
		t.Fatalf("offline lineage %+v, want sample name and 3500-row watermark", lin)
	}
}

// Synopsis answers carry the build watermark of the column's sketches,
// which lags the live table after appends.
func TestSynopsisLineage(t *testing.T) {
	ev := smallEvents(t, 1500, 0.5)
	eng := NewSynopsisEngine(ev.Catalog)
	if err := eng.BuildColumn("events", "ev_value", 64); err != nil {
		t.Fatal(err)
	}
	if err := ev.AppendShifted(300, 2, 7); err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteContext(context.Background(), parse(t, "SELECT COUNT(*) FROM events WHERE ev_value >= 10 AND ev_value < 90"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	lin := res.Diagnostics.Lineage
	if lin.Table != "events" || lin.TableRows != 1800 {
		t.Fatalf("synopsis lineage snapshot %+v, want events/1800", lin)
	}
	if lin.BuildRows != 1500 || lin.SampleName != "events.ev_value" {
		t.Fatalf("synopsis lineage build %+v, want 1500-row watermark on events.ev_value", lin)
	}
	if lin.BuildVersion == lin.TableVersion {
		t.Fatal("build version should lag the live version after appends")
	}
}
