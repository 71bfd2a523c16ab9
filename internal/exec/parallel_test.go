package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// parallelCatalog builds an events-like table big enough to span several
// morsels (block size 256, minMorselRows 8192 → one morsel per 8192 rows).
func parallelCatalog(t testing.TB, rows int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tbl := storage.NewTableWithBlockSize("ev", storage.Schema{
		{Name: "k", Type: storage.TypeInt64},
		{Name: "g", Type: storage.TypeString},
		{Name: "v", Type: storage.TypeFloat64},
		{Name: "flag", Type: storage.TypeInt64},
	}, 256)
	rng := rand.New(rand.NewSource(7))
	batch := make([][]storage.Value, 0, 1024)
	for i := 0; i < rows; i++ {
		var v storage.Value
		if rng.Intn(97) == 0 {
			v = storage.NullValue(storage.TypeFloat64) // exercise NULL propagation
		} else {
			v = storage.Float64(rng.ExpFloat64() * 100)
		}
		batch = append(batch, []storage.Value{
			storage.Int64(int64(i)),
			storage.Str(fmt.Sprintf("g%02d", rng.Intn(13))),
			v,
			storage.Int64(int64(rng.Intn(2))),
		})
		if len(batch) == cap(batch) {
			if err := tbl.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := tbl.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func buildPlan(t testing.TB, cat *storage.Catalog, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

// parallelQueries covers the morsel-eligible shapes: global aggregates,
// group-bys (ordered so output order is defined), residual filters,
// percentiles, arithmetic aggregate args, and the weighted samplers.
var parallelQueries = []string{
	"SELECT COUNT(*), SUM(v), AVG(v) FROM ev",
	"SELECT SUM(v * 2 + 1), COUNT(v) FROM ev WHERE v >= 50",
	"SELECT g, SUM(v), COUNT(*) FROM ev WHERE flag = 1 GROUP BY g ORDER BY g",
	"SELECT PERCENTILE(v, 0.5), PERCENTILE(v, 0.95) FROM ev",
	"SELECT MIN(v), MAX(v) FROM ev WHERE k % 3 = 0",
	"SELECT COUNT(*), SUM(v) FROM ev TABLESAMPLE BERNOULLI (20)",
	"SELECT g, COUNT(*) FROM ev TABLESAMPLE SYSTEM (25) GROUP BY g ORDER BY g",
	"SELECT COUNT(*) FROM ev TABLESAMPLE UNIVERSE (30) ON (g)",
}

// TestParallelMatchesSerial checks the morsel path against the serial
// Volcano operators. The two accumulate floats in different orders, so
// float aggregates compare under a relative tolerance; everything else
// must match exactly.
func TestParallelMatchesSerial(t *testing.T) {
	cat := parallelCatalog(t, 40_000)
	for _, sql := range parallelQueries {
		serial, err := RunContext(context.Background(), buildPlan(t, cat, sql))
		if err != nil {
			t.Fatalf("serial %q: %v", sql, err)
		}
		par, err := RunParallelContext(context.Background(), buildPlan(t, cat, sql), 4)
		if err != nil {
			t.Fatalf("parallel %q: %v", sql, err)
		}
		if par.NumRows() != serial.NumRows() {
			t.Fatalf("%q: %d parallel rows vs %d serial", sql, par.NumRows(), serial.NumRows())
		}
		for i := range serial.Rows {
			for j := range serial.Rows[i] {
				sv, pv := serial.Value(i, j), par.Value(i, j)
				if sv.Typ == storage.TypeFloat64 && !sv.IsNull() && !pv.IsNull() {
					s, p := sv.AsFloat(), pv.AsFloat()
					if math.Abs(s-p) > 1e-9*math.Max(1, math.Abs(s)) {
						t.Errorf("%q row %d col %d: parallel %v vs serial %v", sql, i, j, p, s)
					}
					continue
				}
				if sv != pv {
					t.Errorf("%q row %d col %d: parallel %v vs serial %v", sql, i, j, pv, sv)
				}
			}
		}
	}
}

// TestParallelWorkerInvariance is the core determinism contract: for any
// worker count the morsel grid and the merge order are the same, so the
// results — including sampled ones — must be bit-identical.
func TestParallelWorkerInvariance(t *testing.T) {
	cat := parallelCatalog(t, 40_000)
	for _, sql := range parallelQueries {
		ref, err := RunParallelContext(context.Background(), buildPlan(t, cat, sql), 1)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for _, w := range []int{2, 3, 4, 8} {
			got, err := RunParallelContext(context.Background(), buildPlan(t, cat, sql), w)
			if err != nil {
				t.Fatalf("%q W=%d: %v", sql, w, err)
			}
			if got.NumRows() != ref.NumRows() {
				t.Fatalf("%q W=%d: %d rows vs %d at W=1", sql, w, got.NumRows(), ref.NumRows())
			}
			for i := range ref.Rows {
				for j := range ref.Rows[i] {
					rv, gv := ref.Value(i, j), got.Value(i, j)
					if rv.Typ == storage.TypeFloat64 && !rv.IsNull() && !gv.IsNull() {
						if math.Float64bits(rv.AsFloat()) != math.Float64bits(gv.AsFloat()) {
							t.Errorf("%q W=%d row %d col %d: %v not bit-identical to %v",
								sql, w, i, j, gv.AsFloat(), rv.AsFloat())
						}
						continue
					}
					if rv != gv {
						t.Errorf("%q W=%d row %d col %d: %v vs %v", sql, w, i, j, gv, rv)
					}
				}
			}
			if got.Counters.RowsScanned != ref.Counters.RowsScanned {
				t.Errorf("%q W=%d: scanned %d rows vs %d at W=1",
					sql, w, got.Counters.RowsScanned, ref.Counters.RowsScanned)
			}
		}
	}
}

// TestParallelDistinctFallsBackSerial: the distinct sampler is stateful
// (per-stratum pass counts depend on scan order), so the morsel path must
// decline it and the result must equal the serial executor's exactly.
func TestParallelDistinctFallsBackSerial(t *testing.T) {
	cat := parallelCatalog(t, 20_000)
	sql := "SELECT g, COUNT(*) FROM ev TABLESAMPLE DISTINCT (10, 50) ON (g) GROUP BY g ORDER BY g"
	serial, err := RunContext(context.Background(), buildPlan(t, cat, sql))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallelContext(context.Background(), buildPlan(t, cat, sql), 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.NumRows() != serial.NumRows() {
		t.Fatalf("%d rows vs %d serial", par.NumRows(), serial.NumRows())
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if serial.Value(i, j) != par.Value(i, j) {
				t.Errorf("row %d col %d: %v vs %v", i, j, par.Value(i, j), serial.Value(i, j))
			}
		}
	}
}

// TestParallelCancellation: a cancelled context must stop the morsel
// workers and surface the cancellation instead of a result.
func TestParallelCancellation(t *testing.T) {
	cat := parallelCatalog(t, 40_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunParallelContext(ctx, buildPlan(t, cat, "SELECT SUM(v) FROM ev"), 4)
	if err == nil {
		t.Fatal("cancelled context produced a result")
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}
}

// TestResolveWorkers pins the resolution chain: context override, then
// hint, then GOMAXPROCS, never below 1.
func TestResolveWorkers(t *testing.T) {
	bg := context.Background()
	if got := ResolveWorkers(bg, 3); got != 3 {
		t.Errorf("hint 3 resolved to %d", got)
	}
	if got := ResolveWorkers(ContextWithWorkers(bg, 2), 3); got != 2 {
		t.Errorf("context override lost to hint: %d", got)
	}
	if got := ResolveWorkers(bg, 0); got != runtime.GOMAXPROCS(0) && got != 1 {
		t.Errorf("no hint resolved to %d", got)
	}
	if got := ResolveWorkers(bg, -5); got < 1 {
		t.Errorf("negative hint resolved to %d", got)
	}
	if got := ResolveWorkers(ContextWithWorkers(bg, -1), 0); got < 1 {
		t.Errorf("negative override resolved to %d", got)
	}
}

// TestParallelRaceStress hammers the morsel executor from many goroutines
// with different worker counts while a writer appends to the live table
// and a reader takes snapshots. Answers vary as rows land (each query
// sees its own snapshot) — the test asserts absence of errors and, under
// `go test -race`, absence of data races between scans and appends.
func TestParallelRaceStress(t *testing.T) {
	cat := parallelCatalog(t, 20_000)
	tbl, err := cat.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT COUNT(*), SUM(v) FROM ev",
		"SELECT g, AVG(v) FROM ev WHERE flag = 1 GROUP BY g ORDER BY g",
		"SELECT COUNT(*) FROM ev TABLESAMPLE BERNOULLI (30)",
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				w := 1 + (q+iter)%4
				ctx := ContextWithWorkers(context.Background(), w)
				if _, err := RunParallelContext(ctx, buildPlan(t, cat, queries[(q+iter)%len(queries)]), 0); err != nil {
					errc <- fmt.Errorf("query goroutine %d iter %d (W=%d): %w", q, iter, w, err)
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			rows := make([][]storage.Value, 64)
			for r := range rows {
				rows[r] = []storage.Value{
					storage.Int64(int64(1_000_000 + i*64 + r)),
					storage.Str("gx"),
					storage.Float64(float64(i)),
					storage.Int64(0),
				}
			}
			if err := tbl.AppendRows(rows); err != nil {
				errc <- fmt.Errorf("writer batch %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			snap := tbl.Snapshot()
			if snap.NumRows() < 20_000 {
				errc <- fmt.Errorf("snapshot %d saw %d rows", i, snap.NumRows())
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
