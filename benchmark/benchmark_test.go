package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
)

// contract is the part of BENCHMARK.json the tests hold the command to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tinyScale shrinks each workload as far as it goes while lineitem keeps
// the online engine's 50k-row sampling minimum, so every claimed route is
// still taken.
var tinyScale = map[string]string{"dashboard": "0.1", "highcard": "1"}

// countMetrics must repeat exactly between traced runs of one seed.
var countMetrics = []string{
	"exec.rows_scanned", "exec.groups", "core.rebuild_rows_scanned",
	"core.route_exact_ratio", "core.route_online_ratio", "core.route_offline_ratio",
	"core.fallback_ratio", "sample.kept_ratio",
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchmark")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runTiny runs the command on a tiny workload and decodes its result line.
func runTiny(t *testing.T, bin, workload, trace string) output {
	t.Helper()
	cmd := exec.Command(bin, "-workload", workload, "-seed", "5", "-seconds", "1",
		"-scale", tinyScale[workload], "-trace", trace)
	cmd.Dir = t.TempDir()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s",
			workload, trace, res.Correct, res.Failed, res.Attempted, stderr.Bytes())
	}
	return res
}

func checkMetrics(t *testing.T, where string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", where, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", where, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", where, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestTinyRuns runs every workload end to end and traced at a small
// scale: each run must pass its own checks and print every metric
// BENCHMARK.json names, with its unit, and a second traced run of the
// seed must repeat every count exactly.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	c := readContract(t)
	bin := buildBinary(t)
	for _, w := range c.Workloads {
		e2e := runTiny(t, bin, w.Name, "0")
		checkMetrics(t, w.Name+" trace=0", e2e.Metrics, c.EndToEnd)
		first := runTiny(t, bin, w.Name, "1")
		checkMetrics(t, w.Name+" trace=1", first.Metrics, c.PerLayer)
		second := runTiny(t, bin, w.Name, "1")
		for _, name := range countMetrics {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: count %s differs between runs of one seed: %v then %v", w.Name, name, a, b)
			}
		}
	}
}

// TestGateRejectsCorruptedAnswers serves real answers in process, checks
// that the gate accepts them, then corrupts each and expects rejection.
func TestGateRejectsCorruptedAnswers(t *testing.T) {
	s := specs["dashboard"]
	db, err := setup(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(db, serverConfig(s)).Handler()
	ask := func(sql, mode string) *answer {
		body, _ := json.Marshal(queryRequest{SQL: sql, Mode: mode})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sql, rec.Code, rec.Body.Bytes())
		}
		var a answer
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			t.Fatal(err)
		}
		return &a
	}
	const sql = "SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode"
	ref, err := computeReference(context.Background(), db.Catalog(), sql)
	if err != nil {
		t.Fatal(err)
	}

	exact := ask(sql, "exact")
	if v := judge(exact, false, ref); v.err != nil {
		t.Fatalf("gate rejects a correct exact answer: %v", v.err)
	}
	corrupt := []func(a *answer){
		func(a *answer) { a.Rows[0][2] = a.Rows[0][2].(float64) * 1.001 },
		func(a *answer) { a.Rows[1][1] = a.Rows[1][1].(float64) + 1 },
		func(a *answer) { a.Rows = a.Rows[1:] },
		func(a *answer) { a.Rows[0][0] = "NOT A MODE" },
	}
	for i, f := range corrupt {
		a := ask(sql, "exact")
		f(a)
		if v := judge(a, false, ref); v.err == nil {
			t.Errorf("exact corruption %d passed the gate", i)
		}
	}

	approx := ask(sql+" WITH ERROR 5% CONFIDENCE 95%", "online")
	if approx.Guarantee == "exact" {
		t.Fatalf("approximate request answered exactly; the CI checks are not exercised")
	}
	if v := judge(approx, true, ref); v.err != nil {
		t.Fatalf("gate rejects a correct approximate answer: %v", v.err)
	}
	approx.Items[0][2].CILo = approx.Rows[0][2].(float64) * 1.5
	if v := judge(approx, true, ref); v.err == nil {
		t.Errorf("an estimate outside its own CI passed the gate")
	}
}

// TestMissingProgramFails checks that the command refuses to report when
// the program it measures cannot be built: a benchmark directory on its
// own has no parent module.
func TestMissingProgramFails(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and builds the benchmark")
	}
	dir := filepath.Join(t.TempDir(), "benchmark")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue // a directory
		}
		if err := os.WriteFile(filepath.Join(dir, f), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", filepath.Join(dir, "run.sh"), "--workload", "highcard", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = filepath.Dir(dir)
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("run.sh without the program: err %v, want a non-zero exit", err)
	}
	if strings.Contains(string(out), `"metrics"`) {
		t.Fatalf("run.sh without the program printed a result: %s", out)
	}
}
