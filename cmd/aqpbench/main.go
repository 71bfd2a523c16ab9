// Command aqpbench runs the reproduction experiment suite (E1–E12; see
// DESIGN.md for the per-experiment index) and prints paper-style tables.
//
// Usage:
//
//	aqpbench -exp E4              # one experiment
//	aqpbench -exp all -rows 1000000 -trials 30
//	aqpbench -exp E4 -json        # also write results/bench_E4.json
//	aqpbench -profile             # print an EXPLAIN ANALYZE span profile
//	aqpbench -audit               # smoke-test the accuracy-audit lane
//	aqpbench -chaos               # chaos gate: inject faults, assert survival
//	aqpbench -remote              # remote-shard gate: multi-process cluster, kill a shard, assert honesty
//	aqpbench -telemetry-overhead  # observability-cost gate: p50 regression < 3%
//	aqpbench -list
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	aqp "repro"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchJSON is the machine-readable form of one experiment run.
type benchJSON struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Rows      int        `json:"rows"`
	Trials    int        `json:"trials"`
	Seed      int64      `json:"seed"`
	Workers   int        `json:"workers,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Header    []string   `json:"header"`
	Data      [][]string `json:"data"`
	Notes     []string   `json:"notes,omitempty"`
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment ID (E1..E12) or 'all'")
		rows    = flag.Int("rows", experiments.DefaultScale.Rows, "fact-table rows")
		trials  = flag.Int("trials", experiments.DefaultScale.Trials, "Monte-Carlo trials")
		seed    = flag.Int64("seed", experiments.DefaultScale.Seed, "random seed")
		workers = flag.Int("workers", 0, "morsel-parallel workers per query (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonOut = flag.Bool("json", false, "also write each table to results/bench_<id>.json")
		outDir  = flag.String("out", "results", "directory for -json output")
		profile = flag.Bool("profile", false, "print an EXPLAIN ANALYZE span profile of a canonical query and exit")
		auditSm = flag.Bool("audit", false, "run the accuracy-audit smoke: serve sampled queries, drain the audit lane, fail on backlog or errors")
		chaosSm = flag.Bool("chaos", false, "run the chaos gate: serve queries under injected panics/errors, fail on process death, un-flagged degraded responses, invalid CIs, or baseline drift")
		shardSw = flag.Bool("shards", false, "run the shard sweep: scatter-gather latency and CI width at 1/2/4/8 shards")
		teleOv  = flag.Bool("telemetry-overhead", false, "run the observability-cost gate: interleaved A/B exact scans with telemetry on vs off, fail if the telemetry arm's p50 regresses 3% or more")
		contrSw = flag.Bool("contract", false, "run the contract sweep: pilot-sized two-stage runs per engine at 1/2/5% targets, fail if the held rate falls confidently below the stated confidence")
		topSm   = flag.Bool("top", false, "run the workload-insight smoke: serve a mixed template workload, fail unless GET /workload collapses literal variants and ranks the dominant template first")
		remote  = flag.Bool("remote", false, "run the remote-shard chaos gate: boot shard-server child processes, verify bit-identity with in-process shards, SIGKILL one mid-flight, assert honest degraded answers")
		rsChild = flag.Int("remote-shard-child", -1, "internal: serve shard N for the -remote gate (spawned by the gate itself)")
		rsCount = flag.Int("remote-shard-count", 0, "internal: total shard count for -remote-shard-child")
	)
	flag.Parse()

	if *rsChild >= 0 {
		if err := runRemoteShardChild(*rsChild, *rsCount, *rows, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: shard child %d: %v\n", *rsChild, err)
			os.Exit(1)
		}
		return
	}
	if *remote {
		if err := runRemoteGate(*rows, *seed, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: remote gate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-5s %s\n", id, experiments.Describe(id))
		}
		return
	}
	if *profile {
		if err := runProfile(*rows, *seed, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: profile: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *auditSm {
		if err := runAuditSmoke(*rows, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: audit smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaosSm {
		if err := runChaosGate(*rows, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: chaos gate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *teleOv {
		if err := runTelemetryOverhead(*rows, *seed, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: telemetry overhead gate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *shardSw {
		if err := runShardSweep(*rows, *trials, *seed, *workers, *jsonOut, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: shard sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *contrSw {
		if err := runContractSweep(*rows, *trials, *seed, *workers, *jsonOut, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: contract sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *topSm {
		if err := runTopSmoke(*rows, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: workload-insight smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	scale := experiments.Scale{Rows: *rows, Trials: *trials, Seed: *seed, Workers: *workers}
	ids := experiments.IDs()
	if !strings.EqualFold(*exp, "all") {
		ids = strings.Split(strings.ToUpper(*exp), ",")
	}
	if *jsonOut {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: %v\n", err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := experiments.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aqpbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Println(tab)
		fmt.Printf("(%s completed in %s)\n\n", id, elapsed.Round(time.Millisecond))
		if *jsonOut {
			if err := writeJSON(*outDir, tab, scale, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "aqpbench: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
}

// runProfile generates the star workload, runs one canonical lineitem
// aggregate exactly and once through the advisor, and prints both span
// profiles: per-operator wall time, rows in/out, and per-worker morsel
// counts for the parallel path.
func runProfile(rows int, seed int64, workers int) error {
	const sql = "SELECT l_shipmode, SUM(l_extendedprice), AVG(l_discount), COUNT(*) " +
		"FROM lineitem WHERE l_quantity > 10 GROUP BY l_shipmode"
	star, err := workload.GenerateStar(workload.Config{Seed: seed, LineitemRows: rows})
	if err != nil {
		return err
	}
	db := aqp.Open(star.Catalog)
	ctx := context.Background()
	if workers > 0 {
		ctx = exec.ContextWithWorkers(ctx, workers)
	}

	fmt.Printf("-- %s\n\n", sql)
	pctx, prof := aqp.WithProfile(ctx)
	if _, err := db.Query(pctx, sql, aqp.QueryOptions{Mode: "exact"}); err != nil {
		return err
	}
	fmt.Printf("exact:\n%s\n", prof.String())

	pctx, prof = aqp.WithProfile(ctx)
	res, err := db.Query(pctx, sql+" WITH ERROR 5% CONFIDENCE 95%", aqp.QueryOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("advisor (technique=%s guarantee=%s):\n%s", res.Technique, res.Guarantee, prof.String())
	return nil
}

// runAuditSmoke exercises the full audit lane end to end without a
// server: serve sampled queries over disjoint row windows, hand every
// answer to an embedded auditor, drain, and fail if the backlog is
// nonzero after the drain, any ground-truth run errored, or nothing was
// audited. CI runs this as a release gate on the audit subsystem.
func runAuditSmoke(rows int, seed int64) error {
	const queries = 60
	if rows < queries {
		rows = queries
	}
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8,
	})
	if err != nil {
		return err
	}
	db := aqp.Open(ev.Catalog, aqp.WithOnlineConfig(core.OnlineConfig{
		DefaultRate: 0.5, MinTableRows: 1, Seed: seed,
	}))
	aud := audit.New(db, nil, audit.Config{Fraction: 1, QueueCap: queries + 8, Seed: seed})
	defer aud.Close()

	window := rows / queries
	spec := aqp.ErrorSpec{RelError: 0.5, Confidence: 0.95}
	for i := 0; i < queries; i++ {
		sql := fmt.Sprintf("SELECT SUM(ev_value) FROM events WHERE ev_ts >= %d AND ev_ts < %d",
			i*window, (i+1)*window)
		stmt, err := aqp.Parse(sql)
		if err != nil {
			return err
		}
		res, err := db.QueryStmt(context.Background(), stmt, aqp.QueryOptions{Mode: "online", Spec: spec})
		if err != nil {
			return fmt.Errorf("serve %q: %w", sql, err)
		}
		aud.Offer(res, stmt)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := aud.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w (backlog %d)", err, aud.Backlog())
	}
	rep := aud.Report()
	fmt.Print(rep.String())
	if rep.Backlog != 0 {
		return fmt.Errorf("audit backlog %d nonzero after drain", rep.Backlog)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d ground-truth executions failed", rep.Errors)
	}
	if rep.Audited != queries {
		return fmt.Errorf("audited %d of %d served queries", rep.Audited, queries)
	}
	return nil
}

// chaosTechniques pairs each forced mode with the techniques a healthy,
// un-degraded answer may legitimately report. The sampling engines fall
// back to exact on their own (tiny tables, no certified sample), which
// is not degradation; any other substitution must carry degraded:true.
var chaosTechniques = map[string][]string{
	"exact":   {"exact"},
	"online":  {"online-sampling", "exact"},
	"offline": {"offline-samples", "exact"},
	"ola":     {"online-aggregation", "exact"},
}

// runChaosGate is the resilience release gate: record baseline answers
// with injection off, arm a wildcard panic schedule and hammer the
// server handler across every mode, then disarm and assert the baseline
// is bit-identical. During chaos the process must survive every
// injected panic, each response must be either a typed error status or
// a 200 whose substitutions are flagged degraded:true, every reported
// CI must be well-formed, and per-query latency must stay bounded.
func runChaosGate(rows int, seed int64) error {
	const (
		chaosRounds   = 6
		perQueryBound = 30 * time.Second
	)
	if rows < 4096 {
		rows = 4096
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	// build constructs a fresh, fully-provisioned deterministic server:
	// offline samples and synopses exist so every ladder rung is live.
	// A fresh instance per phase means chaos-phase breaker state and
	// sample-store mutations cannot leak into the final baseline run.
	build := func() (*server.Server, error) {
		ev, err := workload.GenerateEvents(workload.EventsConfig{
			Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8,
		})
		if err != nil {
			return nil, err
		}
		db := aqp.Open(ev.Catalog,
			aqp.WithOnlineConfig(core.OnlineConfig{DefaultRate: 0.2, MinTableRows: 1, Seed: seed}),
			aqp.WithOfflineConfig(core.OfflineConfig{Seed: seed}),
			aqp.WithOLAConfig(core.OLAConfig{Seed: seed}),
		)
		if err := db.BuildOfflineSamples("events", [][]string{{"ev_group"}}); err != nil {
			return nil, fmt.Errorf("build offline samples: %w", err)
		}
		if err := db.BuildSynopsis("events", "ev_value"); err != nil {
			return nil, fmt.Errorf("build synopsis: %w", err)
		}
		return server.New(db, server.Config{
			Workers:          4,
			QueueCap:         32,
			DefaultTimeout:   10 * time.Second,
			DegradeBudget:    2 * time.Second,
			BreakerThreshold: 8,
			Logger:           logger,
		}), nil
	}

	queries := []string{
		fmt.Sprintf("SELECT SUM(ev_value) FROM events WHERE ev_ts >= 0 AND ev_ts < %d", rows/2),
		"SELECT ev_group, AVG(ev_value), COUNT(*) FROM events GROUP BY ev_group ORDER BY ev_group",
		"SELECT COUNT(*) FROM events WHERE ev_value >= 0",
	}
	modes := []string{"auto", "exact", "online", "offline", "ola"}

	post := func(h http.Handler, req server.QueryRequest) (int, server.QueryResponse, []byte, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, server.QueryResponse{}, nil, err
		}
		r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var qr server.QueryResponse
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &qr); err != nil {
				return w.Code, qr, w.Body.Bytes(), fmt.Errorf("decode 200 body: %w", err)
			}
		}
		return w.Code, qr, w.Body.Bytes(), nil
	}

	// baseline runs every (mode, query) pair once with injection off and
	// returns the responses with timing-dependent fields zeroed, so two
	// baseline passes can be compared bit-for-bit.
	baseline := func(h http.Handler) ([]server.QueryResponse, error) {
		var out []server.QueryResponse
		for _, mode := range modes {
			for _, sql := range queries {
				code, qr, raw, err := post(h, server.QueryRequest{
					SQL: sql, Mode: mode, RelError: 0.5, Confidence: 0.95,
				})
				if err != nil {
					return nil, err
				}
				if code != http.StatusOK {
					return nil, fmt.Errorf("baseline %s %q: status %d: %s", mode, sql, code, raw)
				}
				if qr.Degraded {
					return nil, fmt.Errorf("baseline %s %q: degraded with injection off: %s", mode, sql, raw)
				}
				qr.LatencyMS = 0
				qr.Messages = nil
				qr.Trace = nil
				out = append(out, qr)
			}
		}
		return out, nil
	}

	srv, err := build()
	if err != nil {
		return err
	}
	h := srv.Handler()
	base, err := baseline(h)
	if err != nil {
		return fmt.Errorf("pre-chaos baseline: %w", err)
	}

	fault.Install(fault.Schedule{Seed: seed, Rules: []fault.Rule{
		{Point: "*", Kind: fault.KindPanic, P: 0.25},
	}})
	defer fault.Uninstall()

	allowed := map[int]bool{200: true, 400: true, 408: true, 429: true, 500: true, 503: true, 504: true}
	var served, degraded, errored int
	for round := 0; round < chaosRounds; round++ {
		for _, mode := range modes {
			for _, sql := range queries {
				start := time.Now()
				code, qr, raw, err := post(h, server.QueryRequest{
					SQL: sql, Mode: mode, RelError: 0.5, Confidence: 0.95,
				})
				if err != nil {
					return fmt.Errorf("chaos %s %q: %w", mode, sql, err)
				}
				if d := time.Since(start); d > perQueryBound {
					return fmt.Errorf("chaos %s %q: latency %s exceeds %s bound", mode, sql, d, perQueryBound)
				}
				if !allowed[code] {
					return fmt.Errorf("chaos %s %q: unexpected status %d: %s", mode, sql, code, raw)
				}
				if code != http.StatusOK {
					errored++
					continue
				}
				served++
				if qr.DegradedFrom != "" && !qr.Degraded {
					return fmt.Errorf("chaos %s %q: un-flagged degraded response (degraded_from=%q): %s",
						mode, sql, qr.DegradedFrom, raw)
				}
				if want := chaosTechniques[mode]; want != nil && !qr.Degraded {
					ok := false
					for _, t := range want {
						if qr.Technique == t {
							ok = true
							break
						}
					}
					if !ok {
						return fmt.Errorf("chaos %s %q: technique %s substituted without degraded flag: %s",
							mode, sql, qr.Technique, raw)
					}
				}
				if qr.Degraded {
					degraded++
				}
				for _, row := range qr.Items {
					for _, it := range row {
						if !it.HasCI {
							continue
						}
						// NaN fails both comparisons, so this also
						// rejects estimates whose interval never folded.
						if !(it.CILo <= it.CIHi) || !(it.Confidence > 0 && it.Confidence <= 1) {
							return fmt.Errorf("chaos %s %q: invalid CI [%g, %g] at confidence %g: %s",
								mode, sql, it.CILo, it.CIHi, it.Confidence, raw)
						}
					}
				}
			}
		}
	}

	var hits, fires int64
	for _, st := range fault.Status() {
		hits += st.Hits
		fires += st.Fires
	}
	if fires == 0 {
		return fmt.Errorf("no faults fired across %d chaos queries (%d point hits): injection not wired", served+errored, hits)
	}
	fault.Uninstall()

	srv2, err := build()
	if err != nil {
		return err
	}
	after, err := baseline(srv2.Handler())
	if err != nil {
		return fmt.Errorf("post-chaos baseline: %w", err)
	}
	if !reflect.DeepEqual(base, after) {
		return fmt.Errorf("baseline drift: responses with injection off differ before and after the chaos phase")
	}

	fmt.Printf("chaos gate: %d queries under injection (%d ok, %d degraded, %d typed errors); %d faults fired across %d points; baseline bit-identical with injection off\n",
		served+errored, served, degraded, errored, fires, len(fault.Status()))
	return nil
}

// runTelemetryOverhead is the observability-cost release gate: it
// interleaves identical exact scans against two in-process servers —
// one bare, one with the flight recorder, span exporter, time-series
// store, and SLO engine all live — and fails when the telemetry arm's
// p50 latency regresses by 3% or more. Interleaving A/B pairs inside
// one process (and flipping the within-pair order every iteration)
// cancels the drift that would dominate a run-A-then-run-B comparison
// at millisecond scales: page-cache warming, GC cadence, CPU thermal
// state. The telemetry arm is fully armed — per-query span trees,
// flight-recorder rings, and a running snapshot ticker — so the gate
// measures the real production cost, not a stripped-down one.
func runTelemetryOverhead(rows int, seed int64, workers int) error {
	const (
		pairs      = 60
		warmup     = 8
		maxRegress = 0.03
	)
	if rows < 500_000 {
		rows = 500_000 // the gate's canonical scale: a 500k-row exact scan
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8,
	})
	if err != nil {
		return err
	}
	// Both servers share one read-only DB so the only variable between
	// the arms is the observability layer itself.
	db := aqp.Open(ev.Catalog)
	bare := server.New(db, server.Config{Workers: workers, Logger: logger})
	tele := server.New(db, server.Config{Workers: workers, Logger: logger, Telemetry: true})
	tele.TelemetryStore().Start()
	defer tele.TelemetryStore().Close()

	body, err := json.Marshal(server.QueryRequest{
		SQL: "SELECT SUM(ev_value), COUNT(*) FROM events WHERE ev_value >= 0", Mode: "exact",
	})
	if err != nil {
		return err
	}
	run := func(h http.Handler) (time.Duration, error) {
		r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", w.Code, w.Body.String())
		}
		return d, nil
	}
	quantile := func(ds []time.Duration, q float64) time.Duration {
		s := append([]time.Duration(nil), ds...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		i := int(q * float64(len(s)-1))
		return s[i]
	}

	bh, th := bare.Handler(), tele.Handler()
	for i := 0; i < warmup; i++ {
		if _, err := run(bh); err != nil {
			return fmt.Errorf("warmup bare: %w", err)
		}
		if _, err := run(th); err != nil {
			return fmt.Errorf("warmup telemetry: %w", err)
		}
	}
	var bareLat, teleLat []time.Duration
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			d, err := run(bh)
			if err != nil {
				return fmt.Errorf("pair %d bare: %w", i, err)
			}
			bareLat = append(bareLat, d)
			d, err = run(th)
			if err != nil {
				return fmt.Errorf("pair %d telemetry: %w", i, err)
			}
			teleLat = append(teleLat, d)
		} else {
			d, err := run(th)
			if err != nil {
				return fmt.Errorf("pair %d telemetry: %w", i, err)
			}
			teleLat = append(teleLat, d)
			d, err = run(bh)
			if err != nil {
				return fmt.Errorf("pair %d bare: %w", i, err)
			}
			bareLat = append(bareLat, d)
		}
	}

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	p50b, p50t := quantile(bareLat, 0.5), quantile(teleLat, 0.5)
	p90b, p90t := quantile(bareLat, 0.9), quantile(teleLat, 0.9)
	regress := (ms(p50t) - ms(p50b)) / ms(p50b)
	fmt.Printf("telemetry overhead gate: rows=%d pairs=%d (interleaved, order-flipped)\n", rows, pairs)
	fmt.Printf("  bare:      p50 %8.3f ms   p90 %8.3f ms\n", ms(p50b), ms(p90b))
	fmt.Printf("  telemetry: p50 %8.3f ms   p90 %8.3f ms\n", ms(p50t), ms(p90t))
	fmt.Printf("  p50 regression %+.2f%% (bound %+.0f%%)\n", 100*regress, 100*maxRegress)
	if regress >= maxRegress {
		return fmt.Errorf("telemetry p50 %.3fms regresses %.2f%% over bare p50 %.3fms (bound %.0f%%)",
			ms(p50t), 100*regress, ms(p50b), 100*maxRegress)
	}
	fmt.Println("  gate ok")
	return nil
}

// runShardSweep measures scatter-gather execution against the unsharded
// baseline across shard counts: exact and sampled latency plus the
// realized relative CI half-width of the stratified composition. The
// single-shard row doubles as the overhead floor — it runs the scatter
// path over the base table itself.
//
// One dataset is generated once from the base seed and every row of the
// sweep runs against it with the same pinned engine seed, so the
// CI-width column varies only with the shard count — per-shard seeds are
// derived deterministically from the one base seed — and
// results/bench_shards.json is reproducible run-to-run. Widths are
// medians over the trials (they are bit-identical across trials under a
// pinned seed; the median guards against that invariant silently
// breaking rather than reporting whichever trial ran last).
func runShardSweep(rows, trials int, seed int64, workers int, jsonOut bool, outDir string) error {
	const sql = "SELECT SUM(ev_value) AS s FROM events"
	if trials > 10 {
		trials = 10 // per-count medians stabilize quickly; keep the sweep brisk
	}
	if trials < 3 {
		trials = 3
	}
	ctx := context.Background()
	if workers > 0 {
		ctx = exec.ContextWithWorkers(ctx, workers)
	}

	tab := &experiments.Table{
		ID:     "shards",
		Title:  "Scatter-gather shard sweep: latency and CI width vs shard count",
		Header: []string{"shards", "exact_ms", "online_ms", "rel_ci_width", "coverage"},
		Notes: []string{
			fmt.Sprintf("events rows=%d trials=%d seed=%d query=%q", rows, trials, seed, sql),
			"shards=0 is the unsharded baseline; shards=1 adds only scatter overhead",
			"rel_ci_width is the realized relative CI half-width of the online estimate",
			"one dataset and one pinned engine seed across the whole sweep; widths are medians over trials",
		},
	}

	median := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2].Microseconds()) / 1e3
	}
	medianF := func(fs []float64) float64 {
		sort.Float64s(fs)
		return fs[len(fs)/2]
	}

	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8})
	if err != nil {
		return err
	}
	for _, n := range []int{0, 1, 2, 4, 8} {
		db := aqp.Open(ev.Catalog, aqp.WithOnlineConfig(core.OnlineConfig{
			DefaultRate: 0.1, MinTableRows: 1, Seed: seed}))
		if n > 0 {
			if _, err := db.ShardTable("events", aqp.ShardKey{
				Column: "ev_user", Kind: aqp.ShardHash, Count: n}); err != nil {
				return err
			}
		}

		var exactLat, onlineLat []time.Duration
		var widths, coverages []float64
		spec := aqp.ErrorSpec{RelError: 0.5, Confidence: 0.95}
		for trial := 0; trial < trials; trial++ {
			start := time.Now()
			if _, err := db.Query(ctx, sql, aqp.QueryOptions{Mode: "exact"}); err != nil {
				return fmt.Errorf("shards=%d exact: %w", n, err)
			}
			exactLat = append(exactLat, time.Since(start))

			start = time.Now()
			res, err := db.Query(ctx, sql, aqp.QueryOptions{Mode: "online", Spec: spec})
			if err != nil {
				return fmt.Errorf("shards=%d online: %w", n, err)
			}
			onlineLat = append(onlineLat, time.Since(start))
			widths = append(widths, res.MaxRelHalfWidth())
			coverage := 1.0
			if sh := res.Diagnostics.Shards; sh != nil {
				coverage = sh.CoverageFraction
			}
			coverages = append(coverages, coverage)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", median(exactLat)),
			fmt.Sprintf("%.3f", median(onlineLat)),
			fmt.Sprintf("%.4f", medianF(widths)),
			fmt.Sprintf("%.4f", medianF(coverages)),
		})
	}

	fmt.Println(tab)
	if jsonOut {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		scale := experiments.Scale{Rows: rows, Trials: trials, Seed: seed, Workers: workers}
		return writeJSON(outDir, tab, scale, 0)
	}
	return nil
}

// runContractSweep is the a-priori contract release gate: for each
// sampling engine × error target it runs pilot-sized two-stage contract
// queries over freshly seeded engines (one derived seed per trial, all
// pinned to the base seed) and checks every "met" verdict against the
// exact answer. The gate fails — exit nonzero — when the held rate falls
// confidently below the stated confidence: Wilson upper bound of the
// hold rate under 95% means broken contracts have exceeded their
// 1−confidence allowance beyond what sampling noise explains.
func runContractSweep(rows, trials int, seed int64, workers int, jsonOut bool, outDir string) error {
	const conf = 0.95
	if rows < 2000 {
		rows = 2000
	}
	if trials < 10 {
		trials = 10
	}
	if trials > 200 {
		trials = 200
	}
	sql := fmt.Sprintf("SELECT SUM(ev_value) FROM events WHERE ev_ts >= 0 AND ev_ts < %d", rows/2)
	ctx := context.Background()
	if workers > 0 {
		ctx = exec.ContextWithWorkers(ctx, workers)
	}

	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8})
	if err != nil {
		return err
	}
	truthRes, err := aqp.Open(ev.Catalog).Query(ctx, sql, aqp.QueryOptions{Mode: "exact"})
	if err != nil {
		return fmt.Errorf("ground truth: %w", err)
	}
	truth := truthRes.Float(0, 0)

	tab := &experiments.Table{
		ID:    "contract",
		Title: "A-priori contract sweep: verdicts and held rate per engine and target",
		Header: []string{"engine", "target", "trials", "met", "missed", "infeasible",
			"held", "held_rate", "wilson_lo", "wilson_hi", "gate"},
		Notes: []string{
			fmt.Sprintf("events rows=%d trials=%d seed=%d conf=%g query=%q", rows, trials, seed, conf, sql),
			"held = a met-verdict answer whose true relative error is within the target",
			fmt.Sprintf("gate fails when Wilson hi of the held rate drops below the stated confidence %g", conf),
		},
	}

	engines := []aqp.Technique{aqp.TechniqueOnline, aqp.TechniqueOLA, aqp.TechniqueOffline}
	modes := map[aqp.Technique]string{aqp.TechniqueOnline: "online", aqp.TechniqueOLA: "ola", aqp.TechniqueOffline: "offline"}
	targets := []float64{0.01, 0.02, 0.05}
	failed := false
	for _, tech := range engines {
		for _, target := range targets {
			spec := aqp.ErrorSpec{RelError: target, Confidence: conf}
			cov := stats.NewRollingCoverage(trials)
			var met, missed, infeasible, held int
			for trial := 0; trial < trials; trial++ {
				tseed := seed + int64(trial)*1_000_003
				db := aqp.Open(ev.Catalog,
					aqp.WithOnlineConfig(core.OnlineConfig{DefaultRate: 0.5, MinTableRows: 1, Seed: tseed}),
					aqp.WithOLAConfig(core.OLAConfig{Seed: tseed}),
					aqp.WithOfflineConfig(core.OfflineConfig{Seed: tseed}))
				res, err := db.Query(ctx, sql, aqp.QueryOptions{Mode: modes[tech], Contract: true, Spec: spec})
				if err != nil {
					return fmt.Errorf("%s target=%g trial=%d: %w", tech, target, trial, err)
				}
				c := res.Diagnostics.Contract
				if c == nil {
					return fmt.Errorf("%s target=%g trial=%d: no contract stamped", tech, target, trial)
				}
				switch c.Verdict {
				case aqp.ContractMet:
					met++
					ok := math.Abs(res.Float(0, 0)-truth) <= target*math.Abs(truth)
					cov.Push(ok)
					if ok {
						held++
					}
				case aqp.ContractMissed:
					missed++
				case aqp.ContractInfeasible:
					infeasible++
				}
			}
			gate := "ok"
			wil := stats.Interval{Lo: 0, Hi: 1}
			if cov.N() > 0 {
				wil = cov.Wilson(0.95)
				if wil.Hi < conf {
					gate = "FAIL"
					failed = true
				}
			}
			tab.Rows = append(tab.Rows, []string{
				string(tech), fmt.Sprintf("%g", target), fmt.Sprintf("%d", trials),
				fmt.Sprintf("%d", met), fmt.Sprintf("%d", missed), fmt.Sprintf("%d", infeasible),
				fmt.Sprintf("%d", held), fmt.Sprintf("%.4f", cov.Rate()),
				fmt.Sprintf("%.4f", wil.Lo), fmt.Sprintf("%.4f", wil.Hi), gate,
			})
		}
	}

	fmt.Println(tab)
	if jsonOut {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		scale := experiments.Scale{Rows: rows, Trials: trials, Seed: seed, Workers: workers}
		if err := writeJSON(outDir, tab, scale, 0); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("held rate confidently below the stated confidence %g for at least one engine × target", conf)
	}
	return nil
}

// writeJSON serializes one experiment table to <dir>/bench_<id>.json.
func writeJSON(dir string, tab *experiments.Table, scale experiments.Scale, elapsed time.Duration) error {
	out := benchJSON{
		ID:        tab.ID,
		Title:     tab.Title,
		Rows:      scale.Rows,
		Trials:    scale.Trials,
		Seed:      scale.Seed,
		Workers:   scale.Workers,
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
		Header:    tab.Header,
		Data:      tab.Rows,
		Notes:     tab.Notes,
	}
	path := filepath.Join(dir, fmt.Sprintf("bench_%s.json", tab.ID))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runTopSmoke is the workload-insight gate: serve a mixed template
// workload through the server handler — one dominant template
// instantiated with many distinct literals, plus minority shapes — then
// assert GET /workload collapsed the literal variants onto a single
// fingerprint and ranks it first by traffic.
func runTopSmoke(rows int, seed int64) error {
	const (
		dominant = 24 // instances of the dominant template (distinct literals)
		minority = 6  // instances of each minority shape
	)
	if rows < 4096 {
		rows = 4096
	}
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8,
	})
	if err != nil {
		return err
	}
	db := aqp.Open(ev.Catalog, aqp.WithOnlineConfig(core.OnlineConfig{
		DefaultRate: 0.5, MinTableRows: 1, Seed: seed,
	}))
	srv := server.New(db, server.Config{
		Workers:   4,
		QueueCap:  32,
		Telemetry: true,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	h := srv.Handler()

	post := func(req server.QueryRequest) (server.QueryResponse, error) {
		body, _ := json.Marshal(req)
		r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return server.QueryResponse{}, fmt.Errorf("%q: status %d: %s", req.SQL, w.Code, w.Body.String())
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &qr); err != nil {
			return server.QueryResponse{}, fmt.Errorf("decode: %w", err)
		}
		return qr, nil
	}

	// Dominant template: a selective SUM whose threshold literal varies
	// per instance — the exact case fingerprinting must collapse.
	window := rows / dominant
	domFP := ""
	for i := 0; i < dominant; i++ {
		qr, err := post(server.QueryRequest{
			SQL: fmt.Sprintf("SELECT SUM(ev_value) FROM events WHERE ev_ts >= %d AND ev_ts < %d",
				i*window, (i+1)*window),
			Mode: "online", RelError: 0.5, Confidence: 0.95,
		})
		if err != nil {
			return err
		}
		if qr.Fingerprint == "" {
			return fmt.Errorf("response carries no fingerprint")
		}
		if domFP == "" {
			domFP = qr.Fingerprint
		} else if qr.Fingerprint != domFP {
			return fmt.Errorf("literal variants split fingerprints: %s vs %s", domFP, qr.Fingerprint)
		}
	}
	for i := 0; i < minority; i++ {
		if _, err := post(server.QueryRequest{
			SQL: "SELECT ev_group, AVG(ev_value) FROM events GROUP BY ev_group", Mode: "exact",
		}); err != nil {
			return err
		}
		if _, err := post(server.QueryRequest{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM events WHERE ev_value > %d", i), Mode: "exact",
		}); err != nil {
			return err
		}
	}

	r := httptest.NewRequest(http.MethodGet, "/workload?by=traffic", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		return fmt.Errorf("GET /workload: status %d: %s", w.Code, w.Body.String())
	}
	var wr server.WorkloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &wr); err != nil {
		return fmt.Errorf("decode /workload: %w", err)
	}
	if wr.Summary.Fingerprints != 3 {
		return fmt.Errorf("tracked %d fingerprints, want 3 (dominant + 2 minority)", wr.Summary.Fingerprints)
	}
	if len(wr.Top) == 0 {
		return fmt.Errorf("empty /workload top")
	}
	top := wr.Top[0]
	if top.Fingerprint != domFP {
		return fmt.Errorf("dominant template not ranked first: top is %s (%s) with %d queries, want %s",
			top.Fingerprint, top.Template, top.Queries, domFP)
	}
	if top.Queries != dominant {
		return fmt.Errorf("dominant card has %d queries, want %d (literal variants not collapsed)",
			top.Queries, dominant)
	}
	if !strings.Contains(top.Template, "?") {
		return fmt.Errorf("dominant template %q is not literal-normalized", top.Template)
	}
	fmt.Printf("workload-insight smoke OK: %d shapes over %d queries; top %s ×%d  %s\n",
		wr.Summary.Fingerprints, wr.Summary.Offered, top.Fingerprint, top.Queries, top.Template)
	for _, c := range wr.Top {
		fmt.Printf("  %s ×%-3d p95=%.2fms  %s\n", c.Fingerprint, c.Queries, c.LatencyP95MS, c.Template)
	}
	return nil
}
