package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	aqp "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/insight"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// span is one timed call from the benchmark into a layer. Spans of one
// replayed twin pair share a trace; Parent is 0 for the pair's root.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	trace int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Trace: t.trace, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id-1]
	sp.End = int64(time.Since(t.epoch))
	return time.Duration(sp.End - sp.Start)
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	f()
	return t.end(id)
}

// selfTimes is each span's duration minus the time its children cover,
// in milliseconds, grouped by span name. Children of one span never
// overlap: the replay is single-threaded.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string][]float64{}
	for _, sp := range t.spans {
		out[sp.Name] = append(out[sp.Name], float64(sp.End-sp.Start-child[sp.ID])/1e6)
	}
	return out
}

// write stores the spans and their self-time medians as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := map[string]float64{}
	for name, v := range t.selfTimes() {
		self[name] = median(v)
	}
	raw, err := json.Marshal(map[string]any{"self_ms_p50": self, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layers collects the traced run's samples.
type layers struct {
	overheadMS, loopbackMS, telemetryMS []float64
	traceMS                             []float64
	engineMS                            map[string][]float64
	execMS, execNSRow, execAllocKB      []float64
	rowsScanned, groups                 []float64
	kept, onlineNSRow                   []float64
	rebuildMS, appendUSRow              []float64
	rebuildRows                         float64
	exactBy, approxBy                   map[string][]float64
	routes                              map[string]int
	approx, fallbacks                   int
	cacheHits, cacheLookups             int
}

// traceRun replays the workload's query list single-threaded in this
// process and times the calls into each layer from here. Counts come from
// the first pass, which is the same on every run of a seed; times are
// medians over every pass made in the window.
func traceRun(s spec, seed int64, seconds, scale float64) (*output, error) {
	t0 := time.Now()
	db, err := setup(s, scale)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	qs := queries(s, seed)
	refs, err := computeReferences(db.Catalog(), qs)
	if err != nil {
		return nil, err
	}
	cfg := serverConfig(s)
	primary := server.New(db, cfg)
	cfg.Telemetry = !cfg.Telemetry
	alt := server.New(db, cfg)
	defer primary.Shutdown(context.Background())
	defer alt.Shutdown(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: primary.Handler()}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln)
		close(served)
	}()
	defer func() {
		_ = hs.Close()
		<-served
	}()

	cat := db.Catalog()
	r := &replay{
		s: s, db: db, tr: &tracer{epoch: time.Now()}, refs: refs,
		url:     "http://" + ln.Addr().String() + "/query",
		cl:      &http.Client{Transport: &http.Transport{DisableCompression: true}},
		primary: primary.Handler(), alt: alt.Handler(),
		reg: insight.New(insight.Config{}),
		adv: core.NewAdvisor(core.NewExactEngine(cat), db.OnlineEngine(), db.OfflineEngine(),
			core.NewOLAEngine(cat, core.DefaultOLAConfig()), db.SynopsisEngine()),
		olaDone: map[string]bool{},
		l: layers{engineMS: map[string][]float64{}, exactBy: map[string][]float64{},
			approxBy: map[string][]float64{}, routes: map[string]int{}},
		out: &output{Correct: true, Metrics: map[string]metric{}},
	}
	defer r.cl.CloseIdleConnections()
	replayStart := time.Now()
	gcStart := gcCPU()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		r.first = pass == 0
		r.pass(qs)
	}
	gcRatio := gcCPU().ratio(gcStart)
	r.out.notes = append(r.out.notes, fmt.Sprintf("set-up %.2fs, replay %.2fs", setupS, time.Since(replayStart).Seconds()))
	// Writes come last, so the replayed answers all see the same data.
	if err := r.writes(); err != nil {
		return nil, err
	}
	if err := r.tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", s.name, seed))); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.metrics(heapMB, gcRatio)
	return r.out, nil
}

// replay holds the traced run's state.
type replay struct {
	s       spec
	db      *aqp.DB
	tr      *tracer
	url     string
	cl      *http.Client
	primary http.Handler
	alt     http.Handler
	reg     *insight.Registry
	adv     *core.Advisor
	refs    map[string]*reference // by SQL
	olaDone map[string]bool
	first   bool
	l       layers
	out     *output
}

func (r *replay) fail(format string, args ...any) {
	r.out.Failed++
	r.out.Correct = false
	if len(r.out.errors) < 5 {
		r.out.errors = append(r.out.errors, fmt.Sprintf(format, args...))
	}
}

// pass replays every twin pair once.
func (r *replay) pass(qs []query) {
	hits0, miss0 := r.db.OnlineEngine().CacheStats()
	for i, q := range qs {
		r.tr.trace++
		root := r.tr.begin("replay.pair", 0)
		r.request(q, false, root, i)
		r.request(q, true, root, i)
		r.layersOf(q, root)
		r.tr.end(root)
	}
	if r.first {
		hits, miss := r.db.OnlineEngine().CacheStats()
		r.l.cacheHits += hits - hits0
		r.l.cacheLookups += hits - hits0 + miss - miss0
	}
}

// post sends one query over the loopback listener.
func (r *replay) post(body []byte) (time.Duration, []byte, error) {
	t0 := time.Now()
	resp, err := r.cl.Post(r.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return d, raw, err
}

// serveHTTP runs one query through a handler in process, timing only the
// handler.
func (r *replay) serveHTTP(name string, root int, h http.Handler, body []byte) (time.Duration, *answer, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	d := r.tr.timed(name, root, func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return d, nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var a answer
	return d, &a, json.Unmarshal(rec.Body.Bytes(), &a)
}

// request times one twin through the server layers: loopback with and
// without a span around it, and in process with telemetry on and off.
func (r *replay) request(q query, approx bool, root, i int) {
	req := queryRequest{SQL: q.sql, Mode: "exact", Workers: r.s.queryWorkers}
	if approx {
		req.SQL, req.Mode = q.approxSQL, q.approxMode
	}
	body, _ := json.Marshal(req)
	r.out.Attempted++

	var traced, untraced time.Duration
	var raw []byte
	var err, untracedErr error
	tracedPost := func() {
		id := r.tr.begin("server.loopback_post", root)
		_, raw, err = r.post(body)
		traced = r.tr.end(id)
	}
	untracedPost := func() { untraced, _, untracedErr = r.post(body) }
	if i%2 == 0 {
		tracedPost()
		untracedPost()
	} else {
		untracedPost()
		tracedPost()
	}
	if err == nil {
		err = untracedErr
	}
	if err != nil {
		r.fail("%s loopback: %v", q.template, err)
		return
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		r.fail("%s: decode: %v", q.template, err)
		return
	}
	if r.first {
		if v := judge(&a, approx, r.refs[q.sql]); v.err != nil {
			r.fail("%s (approx=%v): %v", q.template, approx, v.err)
		}
	}
	serve, inproc, serveErr := r.serveHTTP("server.serve", root, r.primary, body)
	serveAlt, _, altErr := r.serveHTTP("server.serve_alt", root, r.alt, body)
	if serveErr != nil || altErr != nil {
		r.fail("%s in-process: %v %v", q.template, serveErr, altErr)
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	r.l.overheadMS = append(r.l.overheadMS, ms(serve)-inproc.LatencyMS)
	r.l.loopbackMS = append(r.l.loopbackMS, ms(traced-serve))
	on, off := serve, serveAlt
	if !r.s.telemetry {
		on, off = serveAlt, serve
	}
	r.l.telemetryMS = append(r.l.telemetryMS, ms(on-off))
	r.l.traceMS = append(r.l.traceMS, ms(traced-untraced))
	if approx {
		r.l.approxBy[q.template] = append(r.l.approxBy[q.template], ms(traced))
		if r.first {
			r.l.routes[a.Technique]++
			r.l.approx++
		}
	} else {
		r.l.exactBy[q.template] = append(r.l.exactBy[q.template], ms(traced))
	}

	obs := insight.Observation{Technique: a.Technique, LatencyMS: a.LatencyMS, RowsScanned: a.RowsScanned, Approximate: approx}
	r.tr.timed("insight.offer", root, func() { r.reg.Offer(req.SQL, obs) })
	var stmt *sqlparse.SelectStmt
	r.tr.timed("sqlparse.parse", root, func() { stmt, err = sqlparse.Parse(req.SQL) })
	if err != nil {
		r.fail("%s: parse: %v", q.template, err)
		return
	}
	r.tr.timed("sqlparse.fingerprint", root, func() { stmt.Fingerprint() })
	r.tr.timed("plan.build", root, func() { _, err = plan.Build(stmt, r.db.Catalog()) })
	if err != nil {
		r.fail("%s: plan: %v", q.template, err)
	}
}

// layersOf times the morsel executor, the advisor and every engine on
// the pair's statements. Online aggregation, which no workload routes to
// and which runs the longest, is timed once per template, in the first
// pass.
func (r *replay) layersOf(q query, root int) {
	ctx := exec.ContextWithWorkers(context.Background(), r.s.queryWorkers)
	st, err := sqlparse.Parse(q.sql)
	if err != nil {
		r.fail("%s: parse: %v", q.template, err)
		return
	}
	p, err := plan.Build(st, r.db.Catalog())
	if err != nil {
		r.fail("%s: plan: %v", q.template, err)
		return
	}
	plan.ClearSamplers(p)
	before := totalAlloc()
	var res *exec.Result
	dur := r.tr.timed("exec.run", root, func() { res, err = exec.RunParallelContext(ctx, p, r.s.queryWorkers) })
	alloc := totalAlloc() - before
	if err != nil {
		r.fail("%s: exec: %v", q.template, err)
		return
	}
	r.l.execMS = append(r.l.execMS, float64(dur)/1e6)
	r.l.execAllocKB = append(r.l.execAllocKB, float64(alloc)/1024)
	if n := res.Counters.RowsScanned; n > 0 {
		r.l.execNSRow = append(r.l.execNSRow, float64(dur)/float64(n))
	}
	if r.first {
		r.l.rowsScanned = append(r.l.rowsScanned, float64(res.Counters.RowsScanned))
		r.l.groups = append(r.l.groups, float64(len(res.Rows)))
	}

	stmt, err := sqlparse.Parse(q.approxSQL)
	if err != nil {
		r.fail("%s: parse: %v", q.template, err)
		return
	}
	spec := core.ErrorSpec{RelError: stmt.Error.RelError, Confidence: stmt.Error.Confidence}
	var d core.Decision
	r.tr.timed("core.advisor", root, func() { d = r.adv.Choose(stmt, spec) })
	chosen := d.Technique
	switch q.approxMode {
	case "online":
		chosen = core.TechniqueOnline
	case "offline":
		chosen = core.TechniqueOffline
	}
	engines := []struct {
		name string
		tech core.Technique
		e    interface {
			ExecuteContext(context.Context, *sqlparse.SelectStmt, core.ErrorSpec) (*core.Result, error)
		}
	}{
		{"exact", core.TechniqueExact, r.adv.Exact},
		{"online", core.TechniqueOnline, r.adv.Online},
		{"offline", core.TechniqueOffline, r.adv.Offline},
		{"ola", core.TechniqueOLA, r.adv.OLA},
	}
	for _, eng := range engines {
		if eng.tech == core.TechniqueOLA {
			if !r.first || r.olaDone[q.template] {
				continue
			}
			r.olaDone[q.template] = true
		}
		st, err := sqlparse.Parse(q.approxSQL)
		if err != nil {
			r.fail("%s: parse: %v", q.template, err)
			return
		}
		var res *core.Result
		dur := r.tr.timed("core.engine."+eng.name, root, func() { res, err = eng.e.ExecuteContext(ctx, st, spec) })
		if err != nil {
			r.fail("%s: engine %s: %v", q.template, eng.name, err)
			continue
		}
		r.l.engineMS[eng.name] = append(r.l.engineMS[eng.name], float64(dur)/1e6)
		if eng.tech == chosen && r.first && res.Diagnostics.FellBackToExact {
			r.l.fallbacks++
		}
		if eng.tech == core.TechniqueOnline && r.first && !res.Diagnostics.FellBackToExact {
			c := res.Diagnostics.Counters
			if c.RowsScanned > 0 {
				r.l.kept = append(r.l.kept, float64(c.RowsEmitted)/float64(c.RowsScanned))
				r.l.onlineNSRow = append(r.l.onlineNSRow, float64(dur)/float64(c.RowsScanned))
			}
		}
	}
}

// The traced run appends writeBatches batches of batchRows copies of
// lineitem's leading rows.
const (
	writeBatches = 20
	batchRows    = 500
)

// writes times appends and, where the workload has samples, a rebuild.
func (r *replay) writes() error {
	t, err := r.db.Table("lineitem")
	if err != nil {
		return err
	}
	rows := make([][]storage.Value, min(batchRows, t.NumRows()))
	for i := range rows {
		rows[i] = t.Row(i)
	}
	for i := 0; i < writeBatches; i++ {
		d := r.tr.timed("storage.append", 0, func() { err = t.AppendRows(rows) })
		if err != nil {
			return fmt.Errorf("append batch %d: %w", i, err)
		}
		r.l.appendUSRow = append(r.l.appendUSRow, float64(d)/1e3/float64(len(rows)))
	}
	if len(r.s.ladder) == 0 {
		return nil
	}
	off := r.db.OfflineEngine()
	before := off.MaintenanceStats().RowsScanned
	d := r.tr.timed("core.rebuild", 0, func() { err = r.db.RebuildOfflineSamples("lineitem") })
	if err != nil {
		return fmt.Errorf("rebuild samples: %w", err)
	}
	r.l.rebuildRows = float64(off.MaintenanceStats().RowsScanned - before)
	r.l.rebuildMS = append(r.l.rebuildMS, float64(d)/1e6)
	return nil
}

// metrics turns the samples into the per-layer metrics; a layer the
// workload does not exercise reports 0.
func (r *replay) metrics(heapMB, gcRatio float64) {
	l, self := &r.l, r.tr.selfTimes()
	set := func(name, unit string, v float64) { r.out.Metrics[name] = metric{Value: v, Unit: unit} }
	us := func(name string) float64 { return median(self[name]) * 1e3 }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set("server.overhead_ms", "ms", median(l.overheadMS))
	set("server.loopback_ms", "ms", median(l.loopbackMS))
	set("telemetry.overhead_ms", "ms", median(l.telemetryMS))
	set("trace.overhead_ms", "ms", median(l.traceMS))
	set("insight.offer_us", "us", us("insight.offer"))
	set("sqlparse.parse_us", "us", us("sqlparse.parse"))
	set("sqlparse.fingerprint_us", "us", us("sqlparse.fingerprint"))
	set("plan.build_us", "us", us("plan.build"))
	set("core.advisor_us", "us", us("core.advisor"))
	set("core.route_exact_ratio", "ratio", ratio(l.routes[string(core.TechniqueExact)], l.approx))
	set("core.route_online_ratio", "ratio", ratio(l.routes[string(core.TechniqueOnline)], l.approx))
	set("core.route_offline_ratio", "ratio", ratio(l.routes[string(core.TechniqueOffline)], l.approx))
	set("core.fallback_ratio", "ratio", ratio(l.fallbacks, l.approx))
	set("core.online_cache_hit_ratio", "ratio", ratio(l.cacheHits, l.cacheLookups))
	for _, name := range []string{"exact", "online", "offline", "ola"} {
		set("core.engine_ms."+name, "ms", median(l.engineMS[name]))
	}
	set("core.exact_self_ms", "ms", median(l.engineMS["exact"])-us("plan.build")/1e3-median(l.execMS))
	for _, t := range workload.StarTemplates() {
		set("core.approx_speedup."+t.Name, "x", speedup(l.exactBy[t.Name], l.approxBy[t.Name]))
	}
	for _, col := range highcardTemplates {
		set("core.approx_speedup."+col, "x", speedup(l.exactBy[col], l.approxBy[col]))
	}
	set("core.rebuild_ms", "ms", median(l.rebuildMS))
	set("core.rebuild_rows_scanned", "count", l.rebuildRows)
	set("exec.run_ms", "ms", median(l.execMS))
	set("exec.ns_per_row", "ns", median(l.execNSRow))
	set("exec.alloc_kb", "KiB", median(l.execAllocKB))
	set("exec.rows_scanned", "count", median(l.rowsScanned))
	set("exec.groups", "count", median(l.groups))
	set("sample.kept_ratio", "ratio", median(l.kept))
	set("sample.online_ns_per_scanned_row", "ns", median(l.onlineNSRow))
	set("storage.append_us_per_row", "us", median(l.appendUSRow))
	set("storage.heap_mb", "MiB", heapMB)
	set("runtime.gc_cpu_ratio", "ratio", gcRatio)
	r.out.notes = append(r.out.notes, fmt.Sprintf("%d replayed requests, %d spans, routes %v",
		r.out.Attempted, len(r.tr.spans), l.routes))
}

func speedup(exact, approx []float64) float64 {
	if len(exact) == 0 || len(approx) == 0 {
		return 0
	}
	return median(exact) / median(approx)
}

// cpuSample is a reading of the runtime's GC and total CPU time.
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return cpuSample{}
	}
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// ratio is the share of CPU time spent in GC since start.
func (c cpuSample) ratio(start cpuSample) float64 {
	if d := c.total - start.total; d > 0 {
		return (c.gc - start.gc) / d
	}
	return 0
}
