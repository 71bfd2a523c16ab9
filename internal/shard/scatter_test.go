package shard

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

func parse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return stmt
}

func scatterFixture(t *testing.T, key Key, bcfg fault.BreakerConfig) (*workload.Events, *Group) {
	t.Helper()
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 101, Rows: 4000, NumGroups: 16, Skew: 0.8, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Partition(ev.Table, key, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev, g
}

// finalize runs the gather tail of a scatter against the unsharded plan.
func finalize(t *testing.T, ev *workload.Events, sql string, sres *ScatterResult) *exec.Result {
	t.Helper()
	p, err := plan.Build(parse(t, sql), ev.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	plan.ClearSamplers(p)
	res, err := exec.FinalizeAggPartial(context.Background(), p, sres.Partial)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func direct(t *testing.T, ev *workload.Events, sql string) *exec.Result {
	t.Helper()
	p, err := plan.Build(parse(t, sql), ev.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	plan.ClearSamplers(p)
	res, err := exec.RunParallelContext(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertRowsClose(t *testing.T, sql string, want, got *exec.Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%q: %d rows vs %d", sql, got.NumRows(), want.NumRows())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			wv, gv := want.Value(i, j), got.Value(i, j)
			if wv.Typ == storage.TypeFloat64 && !wv.IsNull() && !gv.IsNull() {
				w, g := wv.AsFloat(), gv.AsFloat()
				if math.Abs(w-g) > 1e-9*math.Max(1, math.Abs(w)) {
					t.Errorf("%q row %d col %d: sharded %v vs direct %v", sql, i, j, g, w)
				}
				continue
			}
			if wv != gv {
				t.Errorf("%q row %d col %d: sharded %v vs direct %v", sql, i, j, gv, wv)
			}
		}
	}
}

// TestScatterExactMatchesUnsharded: an exact scatter over hash shards
// merged back must agree with the unsharded run (to float tolerance: the
// partition changes summation bracketing).
func TestScatterExactMatchesUnsharded(t *testing.T) {
	ev, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	for _, sql := range []string{
		"SELECT COUNT(*) AS c, SUM(ev_value) AS s, AVG(ev_value) AS a FROM events",
		"SELECT ev_group, COUNT(*) AS c, SUM(ev_value) AS s FROM events GROUP BY ev_group ORDER BY ev_group",
		"SELECT ev_group, SUM(ev_value) AS s FROM events WHERE ev_user > 100 GROUP BY ev_group HAVING SUM(ev_value) > 0 ORDER BY s DESC LIMIT 5",
	} {
		sres, err := g.Scatter(context.Background(), parse(t, sql), ExecOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if sres.Degraded() || len(sres.Pruned) != 0 {
			t.Fatalf("%q: unexpected degradation %v / pruning %v", sql, sres.Failed, sres.Pruned)
		}
		if sres.CoveredRows != sres.TotalRows || sres.TotalRows != 4000 {
			t.Fatalf("%q: covered %d of %d", sql, sres.CoveredRows, sres.TotalRows)
		}
		assertRowsClose(t, sql, direct(t, ev, sql), finalize(t, ev, sql, sres))
	}
}

// TestScatterSampledEstimates: scattering with per-shard derived-seed
// samplers yields an estimate near the truth (cross-shard independence
// keeps the composition honest).
func TestScatterSampledEstimates(t *testing.T) {
	ev, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	sql := "SELECT SUM(ev_value) AS s FROM events"
	truth := direct(t, ev, sql).Value(0, 0).AsFloat()

	spec := &sample.Spec{Kind: sample.KindUniformRow, Rate: 0.2, Seed: 7}
	sres, err := g.Scatter(context.Background(), parse(t, sql), ExecOptions{Workers: 4, Sample: spec})
	if err != nil {
		t.Fatal(err)
	}
	res := finalize(t, ev, sql, sres)
	est := res.Value(0, 0).AsFloat()
	if math.Abs(est-truth) > 0.15*math.Abs(truth) {
		t.Fatalf("sampled estimate %v far from truth %v", est, truth)
	}
	// The finalized result carries a usable variance for CI composition.
	if len(res.Details) == 0 || res.Details[0].Aggs[0].Variance <= 0 {
		t.Fatalf("sampled scatter produced no variance: %+v", res.Details)
	}
}

// TestScatterRangePruning: a range predicate on the shard key prunes the
// shards whose bounds cannot match, and the answer is still exact.
func TestScatterRangePruning(t *testing.T) {
	ev, g := scatterFixture(t, Key{Column: "ev_ts", Kind: KeyRange, Count: 4}, fault.BreakerConfig{})
	// Constrain to the lowest shard's range: strictly below the first cut.
	sql := fmt.Sprintf(
		"SELECT COUNT(*) AS c, SUM(ev_value) AS s FROM events WHERE ev_ts < %d", g.cuts[0].AsInt())
	sres, err := g.Scatter(context.Background(), parse(t, sql), ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Pruned) == 0 {
		t.Fatal("no shard was pruned by a predicate confined to one range")
	}
	if sres.Degraded() {
		t.Fatalf("pruning must not read as degradation: %v", sres.Failed)
	}
	// Pruned shards count as covered: they provably hold no matching rows.
	if sres.CoveredRows != sres.TotalRows {
		t.Fatalf("covered %d of %d with pruning", sres.CoveredRows, sres.TotalRows)
	}
	assertRowsClose(t, sql, direct(t, ev, sql), finalize(t, ev, sql, sres))
}

// TestScatterAllPruned: a predicate outside every shard's range still has
// a well-defined empty-input answer.
func TestScatterAllPruned(t *testing.T) {
	ev, g := scatterFixture(t, Key{Column: "ev_ts", Kind: KeyRange, Count: 4}, fault.BreakerConfig{})
	sql := "SELECT COUNT(*) AS c FROM events WHERE ev_ts > 100000"
	sres, err := g.Scatter(context.Background(), parse(t, sql), ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Pruned) != 4 {
		t.Fatalf("pruned %v, want all 4 shards", sres.Pruned)
	}
	res := finalize(t, ev, sql, sres)
	if res.NumRows() != 1 || res.Value(0, 0).AsInt() != 0 {
		t.Fatalf("all-pruned COUNT(*) = %v", res.Rows)
	}
}

// TestScatterFaultDegradesAlone: a panic injected into one shard's
// estimate point is contained to that shard; with AllowDegraded the query
// answers from the survivors, without it the query fails.
func TestScatterFaultDegradesAlone(t *testing.T) {
	_, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	rules, err := fault.ParseRules("shard.estimate.2:panic:1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(fault.Schedule{Seed: 1, Rules: rules})
	defer fault.Uninstall()

	sql := "SELECT COUNT(*) AS c FROM events"
	stmt := parse(t, sql)
	sres, err := g.Scatter(context.Background(), stmt, ExecOptions{Workers: 4, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Failed) != 1 || sres.Failed[0] != 2 {
		t.Fatalf("Failed = %v, want [2]", sres.Failed)
	}
	for i, o := range sres.Outcomes {
		want := "ok"
		if i == 2 {
			want = "fail"
		}
		if o.Status != want {
			t.Fatalf("shard %d status %q, want %q", i, o.Status, want)
		}
	}
	if sres.CoveredRows >= sres.TotalRows || sres.CoveredRows <= 0 {
		t.Fatalf("degraded coverage %d of %d", sres.CoveredRows, sres.TotalRows)
	}
	// Survivor count is exactly the three live shards' rows.
	wantRows := 0
	for i, sh := range g.Shards() {
		if i != 2 {
			wantRows += sh.Rows()
		}
	}
	res, err := exec.FinalizeAggPartial(context.Background(), mustPlan(t, g, stmt), sres.Partial)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, 0).AsInt(); got != int64(wantRows) {
		t.Fatalf("degraded COUNT(*) = %d, want survivors' %d", got, wantRows)
	}

	// Strict mode: the same failure is fatal.
	if _, err := g.Scatter(context.Background(), stmt, ExecOptions{Workers: 4}); err == nil {
		t.Fatal("AllowDegraded=false accepted a failed shard")
	}
}

func mustPlan(t *testing.T, g *Group, stmt *sqlparse.SelectStmt) plan.Node {
	t.Helper()
	cat := storage.NewCatalog()
	if err := cat.AddAs(g.Name(), g.base); err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	plan.ClearSamplers(p)
	return p
}

// TestScatterBreakerOpens: repeated failures trip the shard's breaker, and
// while open the shard is skipped without running.
func TestScatterBreakerOpens(t *testing.T) {
	_, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 4},
		fault.BreakerConfig{Threshold: 1})
	rules, err := fault.ParseRules("shard.estimate.1:error:1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(fault.Schedule{Seed: 2, Rules: rules})
	defer fault.Uninstall()

	stmt := parse(t, "SELECT COUNT(*) AS c FROM events")
	sres, err := g.Scatter(context.Background(), stmt, ExecOptions{Workers: 4, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Outcomes[1].Status != "fail" {
		t.Fatalf("first scatter shard 1 status %q, want fail", sres.Outcomes[1].Status)
	}

	// The breaker (threshold 1, default cooldown) is now open: the next
	// scatter skips shard 1 without invoking it even after the fault is
	// removed.
	fault.Uninstall()
	sres, err = g.Scatter(context.Background(), stmt, ExecOptions{Workers: 4, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Outcomes[1].Status != "open" {
		t.Fatalf("second scatter shard 1 status %q, want open", sres.Outcomes[1].Status)
	}
	h := g.Health()
	if !h[1].Open || h[1].Trips < 1 {
		t.Fatalf("health does not show shard 1 open/tripped: %+v", h[1])
	}
}

// TestScatterObserverEvents: the group observer sees one event per shard
// per scatter with the shard's outcome.
func TestScatterObserverEvents(t *testing.T) {
	_, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 3}, fault.BreakerConfig{})
	var events []Event
	g.SetObserver(func(ev Event) { events = append(events, ev) })
	if _, err := g.Scatter(context.Background(), parse(t, "SELECT COUNT(*) AS c FROM events"),
		ExecOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("observer saw %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Table != "events" || ev.Shard != i || ev.Type != "ok" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

// TestScatterRejectsUnsupported: joins and non-aggregate statements are
// not scatterable.
func TestScatterRejectsUnsupported(t *testing.T) {
	_, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 2}, fault.BreakerConfig{})
	if _, err := g.Scatter(context.Background(), parse(t, "SELECT ev_value FROM events"),
		ExecOptions{Workers: 2}); err == nil {
		t.Error("accepted a non-aggregate statement")
	}
}

// TestKeyInterval: WHERE-clause interval extraction for pruning.
func TestKeyInterval(t *testing.T) {
	iv := func(sql string) (storage.Value, storage.Value) {
		return keyInterval(parse(t, sql).Where, "ev_ts")
	}
	lo, hi := iv("SELECT COUNT(*) FROM events WHERE ev_ts > 10 AND ev_ts <= 20")
	if lo.IsNull() || lo.AsInt() != 10 || hi.IsNull() || hi.AsInt() != 20 {
		t.Fatalf("range conjuncts: lo=%v hi=%v", lo, hi)
	}
	lo, hi = iv("SELECT COUNT(*) FROM events WHERE ev_ts = 7")
	if lo.AsInt() != 7 || hi.AsInt() != 7 {
		t.Fatalf("equality: lo=%v hi=%v", lo, hi)
	}
	// Flipped literal side.
	lo, hi = iv("SELECT COUNT(*) FROM events WHERE 100 > ev_ts")
	if !lo.IsNull() || hi.IsNull() || hi.AsInt() != 100 {
		t.Fatalf("flipped: lo=%v hi=%v", lo, hi)
	}
	// OR disables extraction (not a top-level conjunct).
	lo, hi = iv("SELECT COUNT(*) FROM events WHERE ev_ts < 5 OR ev_flag")
	if !lo.IsNull() || !hi.IsNull() {
		t.Fatalf("OR leaked a bound: lo=%v hi=%v", lo, hi)
	}
	// Other columns don't constrain the key.
	lo, hi = iv("SELECT COUNT(*) FROM events WHERE ev_user < 5")
	if !lo.IsNull() || !hi.IsNull() {
		t.Fatalf("foreign column leaked a bound: lo=%v hi=%v", lo, hi)
	}
}

// TestScatterStragglerDeadline: a shard stuck past the deadline is
// abandoned as failed; survivors still answer under AllowDegraded.
func TestScatterStragglerDeadline(t *testing.T) {
	_, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	rules, err := fault.ParseRules("shard.estimate.3:latency:1:1h")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(fault.Schedule{Seed: 3, Rules: rules})
	defer fault.Uninstall()

	sres, err := g.Scatter(context.Background(), parse(t, "SELECT COUNT(*) AS c FROM events"),
		ExecOptions{Workers: 4, AllowDegraded: true, StragglerTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Failed) != 1 || sres.Failed[0] != 3 {
		t.Fatalf("Failed = %v, want [3]", sres.Failed)
	}
}
