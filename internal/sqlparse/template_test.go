package sqlparse

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestFingerprintLiteralInvariance: queries differing only in literal
// values share a fingerprint.
func TestFingerprintLiteralInvariance(t *testing.T) {
	groups := [][]string{
		{
			"SELECT SUM(x) FROM t WHERE x > 5",
			"SELECT SUM(x) FROM t WHERE x > 9",
			"SELECT SUM(x) FROM t WHERE x > 1e6",
		},
		{
			"SELECT g, COUNT(*) FROM t WHERE s = 'a' GROUP BY g LIMIT 5",
			"SELECT g, COUNT(*) FROM t WHERE s = 'other' GROUP BY g LIMIT 99",
		},
		{
			// IN-list arity is a parameter, not shape.
			"SELECT COUNT(*) FROM t WHERE g IN (1, 2)",
			"SELECT COUNT(*) FROM t WHERE g IN (3, 4, 5, 6)",
		},
		{
			"SELECT AVG(x) FROM t TABLESAMPLE BERNOULLI (1)",
			"SELECT AVG(x) FROM t TABLESAMPLE BERNOULLI (10)",
		},
		{
			"SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%",
			"SELECT SUM(x) FROM t WITH ERROR 1% CONFIDENCE 99%",
		},
		{
			// EXPLAIN ANALYZE correlates with the plain shape.
			"SELECT SUM(x) FROM t WHERE x > 3",
			"EXPLAIN ANALYZE SELECT SUM(x) FROM t WHERE x > 44",
		},
	}
	for _, g := range groups {
		want := mustParse(t, g[0]).Fingerprint()
		for _, sql := range g[1:] {
			got := mustParse(t, sql).Fingerprint()
			if got.Hash != want.Hash {
				t.Errorf("fingerprints differ within literal-variant group:\n%q -> %s (%s)\n%q -> %s (%s)",
					g[0], want.Hash, want.Template, sql, got.Hash, got.Template)
			}
		}
	}
}

// TestFingerprintStructureSensitivity: structural changes produce
// distinct fingerprints.
func TestFingerprintStructureSensitivity(t *testing.T) {
	shapes := []string{
		"SELECT SUM(x) FROM t WHERE x > 5",
		"SELECT SUM(x) FROM t WHERE x < 5",          // operator
		"SELECT SUM(x) FROM t WHERE g > 5",          // column (QCS)
		"SELECT AVG(x) FROM t WHERE x > 5",          // aggregate
		"SELECT SUM(x) FROM t",                      // predicate dropped
		"SELECT SUM(x) FROM t WHERE x > 5 LIMIT 10", // LIMIT presence
		"SELECT SUM(x) FROM t WHERE x > 5 WITH ERROR 5%",
		"SELECT g, SUM(x) FROM t WHERE x > 5 GROUP BY g",
		"SELECT SUM(x) FROM t TABLESAMPLE BERNOULLI (1) WHERE x > 5",
		"SELECT SUM(x) FROM t TABLESAMPLE SYSTEM (1) WHERE x > 5",
		"SELECT PERCENTILE(x, 0.5) FROM t WHERE x > 5",
		"SELECT PERCENTILE(x, 0.99) FROM t WHERE x > 5", // quantile is shape
		"SELECT COUNT(DISTINCT x) FROM t WHERE x > 5",
	}
	seen := make(map[string]string, len(shapes))
	for _, sql := range shapes {
		fp := mustParse(t, sql).Fingerprint()
		if prev, ok := seen[fp.Hash]; ok {
			t.Errorf("distinct shapes share fingerprint %s:\n%q\n%q", fp.Hash, prev, sql)
		}
		seen[fp.Hash] = sql
	}
}

// TestFingerprintQCS: the query-column-set is the sorted distinct union
// of GROUP BY and WHERE columns.
func TestFingerprintQCS(t *testing.T) {
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT COUNT(*) FROM t", nil},
		{"SELECT SUM(x) FROM t WHERE x > 5", []string{"x"}},
		{"SELECT g, SUM(x) FROM t WHERE x > 5 AND h = 'a' GROUP BY g", []string{"g", "h", "x"}},
		{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g", []string{"g"}},
		// ORDER BY and select-list columns are not QCS.
		{"SELECT x FROM t ORDER BY x", nil},
	}
	for _, tc := range cases {
		got := mustParse(t, tc.sql).QueryColumnSet()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("QCS(%q) = %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// TestTemplateString spot-checks the literal-normalized rendering.
func TestTemplateString(t *testing.T) {
	cases := []struct{ sql, want string }{
		{
			"SELECT SUM(x) FROM t WHERE x > 5",
			"SELECT SUM(x) FROM t WHERE (x > ?)",
		},
		{
			"SELECT g, COUNT(*) FROM t WHERE g IN (1,2,3) GROUP BY g LIMIT 4",
			"SELECT g, COUNT(*) FROM t WHERE (g IN (?)) GROUP BY g LIMIT ?",
		},
		{
			"SELECT AVG(x) FROM t TABLESAMPLE UNIVERSE (1) ON (k) WITH ERROR 5% CONFIDENCE 95%",
			"SELECT AVG(x) FROM t TABLESAMPLE UNIVERSE (?) ON (k) WITH ERROR ? CONFIDENCE ?",
		},
		{
			"SELECT x FROM t WHERE name LIKE 'a%' OR name IS NULL",
			"SELECT x FROM t WHERE ((name LIKE ?) OR (name IS NULL))",
		},
	}
	for _, tc := range cases {
		if got := mustParse(t, tc.sql).TemplateString(); got != tc.want {
			t.Errorf("TemplateString(%q)\n got %q\nwant %q", tc.sql, got, tc.want)
		}
	}
}

// TestFingerprintHashShape: 16 lowercase hex digits, present fields.
func TestFingerprintHashShape(t *testing.T) {
	fp := mustParse(t, "SELECT g, SUM(x) FROM t WHERE x > 5 GROUP BY g").Fingerprint()
	if len(fp.Hash) != 16 || strings.Trim(fp.Hash, "0123456789abcdef") != "" {
		t.Fatalf("hash %q is not 16 lowercase hex digits", fp.Hash)
	}
	if fp.Table != "t" {
		t.Fatalf("table = %q, want t", fp.Table)
	}
	if !reflect.DeepEqual(fp.QCS, []string{"g", "x"}) {
		t.Fatalf("qcs = %v", fp.QCS)
	}
	if fp.Template == "" {
		t.Fatal("empty template")
	}
}

// TestFingerprintMemoized: a statement computes its fingerprint once, so
// the second call allocates nothing, and goroutines sharing one fresh
// statement all read the same fingerprint (run under -race).
func TestFingerprintMemoized(t *testing.T) {
	const sql = "SELECT g, SUM(x) FROM t WHERE x > 5 GROUP BY g"
	stmt := mustParse(t, sql)
	want := stmt.Fingerprint()
	if allocs := testing.AllocsPerRun(100, func() { _ = stmt.Fingerprint() }); allocs != 0 {
		t.Fatalf("memoized Fingerprint allocates %.0f times per call, want 0", allocs)
	}

	shared := mustParse(t, sql)
	got := make([]Fingerprint, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = shared.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if !reflect.DeepEqual(fp, want) {
			t.Fatalf("goroutine %d read %+v, want %+v", i, fp, want)
		}
	}
}
