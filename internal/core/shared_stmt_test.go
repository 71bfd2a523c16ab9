package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/sqlparse"
)

// TestParsedStatementShared checks that a parsed statement is read-only
// downstream of the parser, so scatter legs can plan one statement
// concurrently without a lock (run it with -race) and callers can hand
// one statement to every engine instead of re-parsing the SQL.
func TestParsedStatementShared(t *testing.T) {
	ev := smallEvents(t, 30000, 1.0)
	const sql = "SELECT ev_group, SUM(ev_value) AS s, COUNT(*) AS n FROM events " +
		"WHERE ev_value > 1 GROUP BY ev_group HAVING SUM(ev_value) > 0 AND COUNT(*) > 1"

	cases := []struct {
		name string
		run  func(t *testing.T, stmt *sqlparse.SelectStmt)
	}{
		{"concurrent plan builds without a lock", func(t *testing.T, stmt *sqlparse.SelectStmt) {
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := plan.Build(stmt, ev.Catalog); err != nil {
						errs <- err
					}
					if _, err := shard.BuildShardQueryPlan(shard.Query{Stmt: stmt}, ev.Table); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}},
		{"one statement through every engine", func(t *testing.T, stmt *sqlparse.SelectStmt) {
			onCfg := DefaultOnlineConfig()
			onCfg.MinTableRows = 1000
			off := NewOfflineEngine(ev.Catalog, DefaultOfflineConfig())
			if err := off.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
				t.Fatal(err)
			}
			if err := off.ProfileQuery(sql); err != nil {
				t.Fatal(err)
			}
			engines := []Engine{
				NewExactEngine(ev.Catalog),
				NewOnlineEngine(ev.Catalog, onCfg),
				off,
				NewOLAEngine(ev.Catalog, DefaultOLAConfig()),
			}
			ctx := context.Background()
			spec := ErrorSpec{RelError: 0.1, Confidence: 0.9}
			for _, eng := range engines {
				shared, err := eng.ExecuteContext(ctx, stmt, spec)
				if err != nil {
					t.Fatalf("%s: %v", eng.Name(), err)
				}
				fresh, err := eng.ExecuteContext(ctx, parse(t, sql), spec)
				if err != nil {
					t.Fatalf("%s fresh: %v", eng.Name(), err)
				}
				if !reflect.DeepEqual(shared.Rows, fresh.Rows) || !reflect.DeepEqual(shared.Items, fresh.Items) {
					t.Errorf("%s: shared statement answered differently from a fresh parse:\n%v\n%v",
						eng.Name(), shared.Items, fresh.Items)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, parse(t, sql)) })
	}
}
