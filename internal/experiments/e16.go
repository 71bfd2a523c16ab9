package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func init() {
	register("E16", "sample reuse (Taster-style cache): amortizing the online scan", runE16)
}

// E16 — sample reuse. Claim (the online/offline hybrid the paper points
// to, à la Taster/Idea): caching the sample a query-time engine draws
// turns repeated analytics on the same table from N scans into one — at
// the price of inheriting the offline freshness liability, which version
// checks must guard.
func runE16(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 16})
	if err != nil {
		return nil, err
	}
	queries := []string{
		"SELECT SUM(ev_value) AS a FROM events",
		"SELECT AVG(ev_value) AS b, COUNT(*) AS n FROM events",
		"SELECT SUM(ev_value) AS c FROM events WHERE ev_ts > 1000",
		"SELECT COUNT(*) AS d FROM events WHERE ev_flag = true",
	}
	runSeq := func(e *core.OnlineEngine) (int64, time.Duration, error) {
		var rows int64
		var total time.Duration
		for rep := 0; rep < 3; rep++ {
			for _, q := range queries {
				stmt, err := sqlparse.Parse(q)
				if err != nil {
					return 0, 0, err
				}
				t0 := time.Now()
				res, err := e.ExecuteContext(context.TODO(), stmt, core.ErrorSpec{RelError: 0.2, Confidence: 0.95})
				if err != nil {
					return 0, 0, err
				}
				total += time.Since(t0)
				rows += res.Diagnostics.Counters.RowsScanned
			}
		}
		return rows, total, nil
	}

	base := core.DefaultOnlineConfig()
	base.MinTableRows = 1000
	base.DefaultRate = 0.02

	plain := core.NewOnlineEngine(ev.Catalog, base)
	plainRows, plainTime, err := runSeq(plain)
	if err != nil {
		return nil, err
	}

	cachedCfg := base
	cachedCfg.CacheSamples = true
	cached := core.NewOnlineEngine(ev.Catalog, cachedCfg)
	cachedRows, cachedTime, err := runSeq(cached)
	if err != nil {
		return nil, err
	}

	// Updates invalidate: one append, one more query forces a rebuild.
	if err := ev.AppendShifted(s.Rows/20, 1, 77); err != nil {
		return nil, err
	}
	stmt, _ := sqlparse.Parse(queries[0])
	if _, err := cached.ExecuteContext(context.TODO(), stmt, core.ErrorSpec{RelError: 0.2, Confidence: 0.95}); err != nil {
		return nil, err
	}

	t := &Table{ID: "E16", Title: "sample reuse across a 12-query session (3 reps x 4 queries)",
		Header: []string{"engine", "rows_scanned", "total_latency", "cache_hits", "cache_misses"}}
	t.AddRow("online (no cache)", itoa(plainRows), plainTime.Round(time.Millisecond).String(), "-", "-")
	t.AddRow("online + sample cache", itoa(cachedRows), cachedTime.Round(time.Millisecond).String(),
		itoa(int64(cached.CacheHits)), itoa(int64(cached.CacheMisses)))
	t.AddNote("the cache pays one base scan then rides the materialized sample; updates force a rebuild (second miss)")
	t.AddNote("reuse converts the online engine into the hybrid middle of the design space — with the freshness guard")
	return t, nil
}
