// Package server exposes an aqp.DB as a concurrent HTTP/JSON query
// service: POST /query with an error spec, GET /tables, POST
// /samples/build, GET /metrics, GET /healthz. Concurrency is governed by
// a bounded worker pool with a bounded wait queue (overflow is shed with
// 429), every query runs under a deadline plumbed through the engines
// via context, and online aggregation degrades gracefully — at the
// deadline it returns its best progressive estimate instead of an error.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	aqp "repro"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/insight"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config tunes the service.
type Config struct {
	// Workers is the maximum number of concurrently executing queries
	// (default 4).
	Workers int
	// QueueCap is the maximum number of queries waiting for a worker
	// before new arrivals are shed (default 2*Workers).
	QueueCap int
	// DefaultTimeout bounds queries that specify none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 5m).
	MaxTimeout time.Duration
	// MaxQueryWorkers caps the per-query morsel-parallel worker count so
	// that Workers concurrent queries cannot oversubscribe the machine:
	// the default is max(1, GOMAXPROCS/Workers). Requests asking for more
	// are clamped, not rejected.
	MaxQueryWorkers int
	// Logger receives the structured query log (nil discards it).
	// Completed queries log at Debug, slow queries and failures at Warn.
	Logger *slog.Logger
	// SlowQuery is the latency at or above which a completed query is
	// logged at Warn instead of Debug (default 1s).
	SlowQuery time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler tree. Off by default: profiles expose internals,
	// so production deployments should gate them deliberately.
	EnablePprof bool
	// AuditFraction is the fraction of served approximate queries whose
	// claimed confidence intervals are re-checked against an exact
	// ground-truth execution in an idle-capacity background lane. 0 (the
	// default) disables continuous accuracy auditing.
	AuditFraction float64
	// AuditQueueCap bounds the audit backlog (default 64); overflow sheds
	// the oldest pending audit.
	AuditQueueCap int
	// AuditWindow sizes the rolling coverage/error windows (default 256).
	AuditWindow int
	// AuditSeed drives the deterministic audit-sampling decisions.
	AuditSeed int64
	// DegradeBudget is the per-rung time budget of the graceful-
	// degradation ladder: when the requested engine fails or times out,
	// each fallback technique gets this long to produce a best-effort
	// estimate (default 500ms; negative disables degradation).
	DegradeBudget time.Duration
	// BreakerThreshold is the consecutive engine-fault count that trips
	// an engine's circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// granting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// Telemetry enables the observability layer: the metric time-series
	// store (GET /metrics/history), the SLO engine (GET /slo), the
	// flight recorder (GET /debug/flightrecord), and the OTLP-shaped
	// span export feed (GET /debug/spans). When enabled, every query is
	// traced (observationally — results are bit-identical) so the
	// flight recorder retains span trees.
	Telemetry bool
	// TelemetryStep is the time-series snapshot cadence (default 10s).
	TelemetryStep time.Duration
	// TelemetryWindow is the time-series retention window (default 15m).
	TelemetryWindow time.Duration
	// FlightQueries sizes the flight recorder's query rings (default 64).
	FlightQueries int
	// Objectives overrides the default SLO set (nil = DefaultObjectives).
	Objectives []telemetry.Objective
	// FlightSink, when non-nil, receives automatic flight-recorder
	// dumps (panic containment, SLO fast burn). cmd/aqpd writes them to
	// the -flight-dump path; tests capture them directly.
	FlightSink func(telemetry.Bundle)
	// WorkloadCap bounds the workload-insight fingerprint registry that
	// rides with telemetry: per-shape scorecards and regression
	// sentinels behind GET /workload. 0 takes the registry default
	// (256); negative disables workload insight even with telemetry on.
	WorkloadCap int
	// WorkloadWindow overrides the per-fingerprint sentinel half-window
	// (0 takes the registry default; exposed for tests, which need
	// small windows to trip sentinels deterministically).
	WorkloadWindow int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 2 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxQueryWorkers <= 0 {
		c.MaxQueryWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.MaxQueryWorkers < 1 {
			c.MaxQueryWorkers = 1
		}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SlowQuery <= 0 {
		c.SlowQuery = time.Second
	}
	if c.DegradeBudget == 0 {
		c.DegradeBudget = 500 * time.Millisecond
	}
	return c
}

// Server is the HTTP query service over one shared aqp.DB.
type Server struct {
	db    *aqp.DB
	cfg   Config
	adm   *Admission
	met   *Metrics
	aud   *audit.Auditor
	brk   map[string]*fault.Breaker // per-engine circuit breakers, read-only map
	mux   *http.ServeMux
	start time.Time

	// Observability layer; all nil when Config.Telemetry is off.
	tstore     *telemetry.Store
	slo        *telemetry.SLO
	flight     *telemetry.Recorder
	spans      *telemetry.SpanExporter
	flightSink func(telemetry.Bundle)
	insight    *insight.Registry
}

// New builds a server over db.
func New(db *aqp.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:    db,
		cfg:   cfg,
		adm:   NewAdmission(cfg.Workers, cfg.QueueCap),
		met:   NewMetrics(),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	if cfg.Telemetry {
		s.initTelemetry(cfg)
	}
	s.brk = newBreakers(cfg, s.onBreakerTransition)
	if cfg.AuditFraction > 0 {
		// Ground truth runs through the exact path of the same DB; the
		// admission controller is the idle gate, so audits only borrow
		// worker slots the foreground is not using.
		s.aud = audit.New(db, s.adm, audit.Config{
			Fraction: cfg.AuditFraction,
			QueueCap: cfg.AuditQueueCap,
			Window:   cfg.AuditWindow,
			Seed:     cfg.AuditSeed,
			Logger:   cfg.Logger,
			OnEvent:  s.onAuditEvent,
		})
	}
	// Per-shard outcome telemetry: one counter increment per shard per
	// scatter, labeled by table, shard, and outcome; the flight recorder
	// additionally retains non-ok outcomes as events. Remote envelope
	// events (retries, hedges, probe transitions) get their own counters —
	// they describe the wire, not a scatter outcome — and all but routine
	// hedge fires land in the flight recorder too.
	db.Shards().SetObserver(func(ev shard.Event) {
		switch ev.Type {
		case "retry", "hedge", "hedge_win", "probe_down", "probe_up":
			s.met.Inc(fmt.Sprintf(`shard_remote_total{event="%s",shard="%d",table="%s"}`,
				EscapeLabelValue(ev.Type), ev.Shard, EscapeLabelValue(ev.Table)))
			if s.flight != nil && ev.Type != "hedge" {
				s.flight.AddEvent(telemetry.Event{
					Kind: "shard_remote", Name: ev.Table, Detail: ev.Type, Shard: ev.Shard,
					TraceID: ev.TraceID,
				})
			}
		default:
			s.met.Inc(fmt.Sprintf(`shard_exec_total{outcome="%s",shard="%d",table="%s"}`,
				EscapeLabelValue(ev.Type), ev.Shard, EscapeLabelValue(ev.Table)))
			if s.flight != nil && ev.Type != "ok" {
				s.flight.AddEvent(telemetry.Event{
					Kind: "shard", Name: ev.Table, Detail: ev.Type, Shard: ev.Shard,
					TraceID: ev.TraceID,
				})
			}
		}
	})
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/audit", s.handleAudit)
	s.mux.HandleFunc("/shards", s.handleShards)
	s.mux.HandleFunc("/tables", s.handleTables)
	s.mux.HandleFunc("/samples/build", s.handleBuildSamples)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("/slo", s.handleSLO)
	s.mux.HandleFunc("/workload", s.handleWorkload)
	s.mux.HandleFunc("/debug/flightrecord", s.handleFlightRecord)
	s.mux.HandleFunc("/debug/spans", s.handleSpans)
	s.mux.HandleFunc("/faults", s.handleFaults)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.met }

// Admission returns the admission controller (exposed for tests and for
// gauge reporting).
func (s *Server) Admission() *Admission { return s.adm }

// Auditor returns the accuracy auditor, or nil when auditing is
// disabled (exposed for tests and CLI drains).
func (s *Server) Auditor() *audit.Auditor { return s.aud }

// Shutdown stops admitting queries and waits for in-flight ones to
// drain, or until ctx expires. Pending audits are abandoned — they are
// best-effort telemetry, not client work.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.adm.Drain(ctx)
	if s.aud != nil {
		s.aud.Close()
	}
	if s.tstore != nil {
		s.tstore.Close()
		fault.SetOnFire(nil)
	}
	return err
}

// onAuditEvent folds audit-lane outcomes into the metrics registry.
func (s *Server) onAuditEvent(ev audit.Event) {
	switch ev.Kind {
	case audit.EventAudited:
		s.met.Inc(Key("audits_total", "technique", ev.Technique))
		s.met.Observe(Key("audit_lag_ms", "technique", ev.Technique), ev.LagMS)
	case audit.EventCovered:
		s.met.Inc(Key("audit_covered_total", "technique", ev.Technique))
		s.met.ObserveWith(Key("audit_rel_error", "technique", ev.Technique),
			ev.RelError, errorWidthBuckets)
		if s.insight != nil {
			s.insight.ReportAudit(ev.Fingerprint, ev.Technique, true)
		}
	case audit.EventMissed:
		s.met.Inc(Key("audit_missed_total", "technique", ev.Technique))
		s.met.ObserveWith(Key("audit_rel_error", "technique", ev.Technique),
			ev.RelError, errorWidthBuckets)
		if s.insight != nil {
			s.insight.ReportAudit(ev.Fingerprint, ev.Technique, false)
		}
	case audit.EventViolation:
		s.met.Inc(Key("coverage_violation_total", "technique", ev.Technique))
	case audit.EventContractHeld:
		s.met.Inc(Key("audit_contract_held_total", "technique", ev.Technique))
	case audit.EventContractBroken:
		s.met.Inc(Key("audit_contract_broken_total", "technique", ev.Technique))
	case audit.EventContractViolation:
		s.met.Inc(Key("contract_violation_total", "technique", ev.Technique))
	case audit.EventDropped:
		s.met.Inc("audit_dropped_total")
	case audit.EventDeduped:
		s.met.Inc("audit_deduped_total")
	case audit.EventError:
		s.met.Inc("audit_errors_total")
	case audit.EventUnmatched:
		s.met.Inc(Key("audit_unmatched_total", "technique", ev.Technique))
	case audit.EventStale:
		s.met.Inc(Key("sample_stale_detected_total", "table", ev.Table))
	case audit.EventPanic:
		s.met.Inc("audit_panics_total")
	}
}

// handleAudit serves the rolling accuracy-audit report.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.aud == nil {
		writeJSON(w, http.StatusOK, audit.Report{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, s.aud.Report())
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds every request body the service reads: POST /query
// and POST /samples/build answer 413 beyond it, and the shard server's
// RPC endpoints stop reading there.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v. Bodies over maxBodyBytes get
// 413 and malformed ones 400; it reports whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	default:
		return true
	}
	return false
}

// panicWriter tracks whether a response has started, so the handler's
// containment layer knows if a typed 500 can still be written.
type panicWriter struct {
	http.ResponseWriter
	wrote bool
}

func (p *panicWriter) WriteHeader(status int) {
	p.wrote = true
	p.ResponseWriter.WriteHeader(status)
}

func (p *panicWriter) Write(b []byte) (int, error) {
	p.wrote = true
	return p.ResponseWriter.Write(b)
}

// handleQuery admits, bounds, routes, and executes one query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Last-resort containment: engines recover their own panics, but a
	// bug in the handler itself (or an injected server.query panic) must
	// poison only this request, never the process.
	pw := &panicWriter{ResponseWriter: w}
	w = pw
	defer func() {
		if rec := recover(); rec != nil {
			err := fault.AsError(rec)
			s.met.Inc(Key("query_panics_total", "engine", "server"))
			s.met.Inc("queries_errors_total")
			s.cfg.Logger.Error("query handler panic contained", "err", err)
			if !pw.wrote {
				writeError(w, http.StatusInternalServerError, "%v", core.Classify(err))
			}
			// A contained handler panic is exactly what the flight
			// recorder exists for: dump automatically.
			if s.flight != nil && s.flightSink != nil {
				s.flightSink(s.FlightBundle("panic"))
			}
		}
	}()
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	release, err := s.adm.Acquire(r.Context())
	switch {
	case errors.Is(err, ErrShed):
		s.met.Inc("queries_shed_total")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded: %d running, %d queued", s.adm.InFlight(), s.adm.QueueDepth())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		// The client went away while queued.
		s.met.Inc("queries_abandoned_total")
		writeError(w, http.StatusRequestTimeout, "canceled while queued: %v", err)
		return
	}
	defer release()

	// Chaos seam: an injected panic here exercises the handler
	// containment above; an injected error takes the typed 503 path.
	if err := injectServerQuery.Inject(); err != nil {
		s.met.Inc("queries_errors_total")
		writeError(w, http.StatusServiceUnavailable, "%v", core.Classify(err))
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Per-query parallelism: the admission slot is held for the whole
	// execution, so pool×workers is bounded by Workers*MaxQueryWorkers.
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.MaxQueryWorkers {
		workers = s.cfg.MaxQueryWorkers
	}
	ctx = exec.ContextWithWorkers(ctx, workers)

	// Per-request tracing: install a tracer so engine/operator spans are
	// recorded, and embed the profile tree in the response. Tracing only
	// observes; traced results are bit-identical to untraced ones. With
	// telemetry on, every query is traced so the flight recorder retains
	// span trees; an inbound W3C traceparent header joins its trace, so
	// the query's spans carry the caller's trace ID.
	var tr *trace.Tracer
	if req.Trace || s.flight != nil {
		tid, parentSpan, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		tr = trace.NewWithParent("query", tid, parentSpan)
		ctx = trace.WithTracer(ctx, tr)
	}

	// The request's one parse: the same immutable statement goes to every
	// engine the degradation ladder tries, to the auditor and to the
	// workload registry.
	start := time.Now()
	var res *core.Result
	var degradedFrom string
	stmt, err := aqp.Parse(req.SQL)
	if err == nil {
		res, degradedFrom, err = s.executeResilient(ctx, r.Context(), req, stmt, workers)
	}
	elapsed := time.Since(start)
	var prof *trace.Profile
	if tr != nil {
		prof = tr.Profile()
		w.Header().Set("traceparent", tr.Root().Traceparent())
	}
	if err != nil {
		err = core.Classify(err)
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, core.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
			// Non-OLA engines are all-or-nothing: past the deadline (and
			// past the degradation ladder) there is no estimate to return.
			status = http.StatusGatewayTimeout
			s.met.Inc("queries_deadline_total")
		case errors.Is(err, core.ErrOverloaded):
			status = http.StatusTooManyRequests
		case errors.Is(err, core.ErrEngineUnavailable):
			status = http.StatusServiceUnavailable
		case errors.Is(err, core.ErrQueryPanic):
			status = http.StatusInternalServerError
		case errors.Is(err, context.Canceled):
			status = http.StatusRequestTimeout
		}
		s.met.Inc("queries_errors_total")
		// Failures count against the shape too: a fingerprint whose
		// queries started erroring is exactly what /workload should show.
		var failFP string
		if s.insight != nil {
			failFP = s.insight.ObserveStmt(stmt, insight.Observation{
				LatencyMS: float64(elapsed.Microseconds()) / 1e3,
				Err:       true,
			})
		}
		s.cfg.Logger.Warn("query failed",
			"sql", req.SQL, "mode", req.Mode, "fingerprint", failFP,
			"latency_ms", float64(elapsed.Microseconds())/1e3,
			"status", status, "err", err.Error())
		s.recordQuery(telemetry.QueryRecord{
			Start: start, SQL: req.SQL, Mode: req.Mode,
			Fingerprint: failFP,
			Status:      status, Err: err.Error(),
			LatencyMS: float64(elapsed.Microseconds()) / 1e3,
		}, prof)
		writeError(w, status, "%v", err)
		return
	}

	latencyMS := float64(elapsed.Microseconds()) / 1e3
	tech := string(res.Technique)
	s.met.Inc(Key("queries_total", "technique", tech))
	s.met.Inc(Key("queries_by_guarantee", "guarantee", res.Guarantee.String()))
	s.met.Add("rows_scanned_total", res.Diagnostics.Counters.RowsScanned)
	s.met.Observe(Key("query_latency_ms", "technique", tech), latencyMS)
	s.met.ObserveWith(Key("query_rows_scanned", "technique", tech),
		float64(res.Diagnostics.Counters.RowsScanned), rowsScannedBuckets)
	if res.Diagnostics.Partial {
		s.met.Inc("queries_partial_total")
	}
	if c := res.Diagnostics.Contract; c != nil {
		s.met.Inc(Key("queries_contract_total", "outcome", string(c.Verdict)))
	}
	// Accuracy telemetry for approximate answers: the realized relative
	// CI half-width vs the promised one, and whether the spec was met —
	// the production signal that a sample ladder or synopsis has gone
	// stale relative to the workload.
	if res.Guarantee != core.GuaranteeExact {
		s.met.ObserveWith(Key("query_ci_rel_width", "technique", tech),
			res.MaxRelHalfWidth(), errorWidthBuckets)
		if res.Spec.RelError > 0 {
			s.met.ObserveWith(Key("query_ci_target_width", "technique", tech),
				res.Spec.RelError, errorWidthBuckets)
		}
		if res.Diagnostics.SpecSatisfied {
			s.met.Inc(Key("queries_spec_met_total", "technique", tech))
		} else {
			s.met.Inc(Key("queries_spec_missed_total", "technique", tech))
		}
	}

	logAttrs := []any{
		"sql", req.SQL, "mode", req.Mode, "technique", tech,
		"fingerprint", res.Diagnostics.Fingerprint,
		"guarantee", res.Guarantee.String(), "latency_ms", latencyMS,
		"rows_scanned", res.Diagnostics.Counters.RowsScanned,
		"sample_fraction", res.Diagnostics.SampleFraction,
		"workers", res.Diagnostics.Workers,
		"spec_satisfied", res.Diagnostics.SpecSatisfied,
		"partial", res.Diagnostics.Partial,
		"degraded", res.Diagnostics.Degraded,
	}
	if elapsed >= s.cfg.SlowQuery {
		s.cfg.Logger.Warn("slow query", logAttrs...)
	} else {
		s.cfg.Logger.Debug("query", logAttrs...)
	}

	// Hand the served answer to the accuracy auditor. Offer never blocks
	// and never mutates res; whether this answer gets a ground-truth
	// re-execution was decided by a coin fixed before the estimate
	// existed, so the audit stream is an unbiased sample of production.
	s.aud.Offer(res, stmt)

	contractVerdict := ""
	if c := res.Diagnostics.Contract; c != nil {
		contractVerdict = string(c.Verdict)
	}
	// File the outcome with the workload-insight registry. Like the
	// auditor's Offer, this only observes: it never mutates res and
	// cannot fail the query.
	if s.insight != nil {
		s.insight.ObserveStmt(stmt, insight.Observation{
			Technique:       tech,
			LatencyMS:       latencyMS,
			RowsScanned:     res.Diagnostics.Counters.RowsScanned,
			RelWidth:        res.MaxRelHalfWidth(),
			Approximate:     res.Guarantee != core.GuaranteeExact,
			Degraded:        res.Diagnostics.Degraded,
			Extrapolated:    res.Diagnostics.Shards != nil && res.Diagnostics.Shards.Extrapolated,
			Partial:         res.Diagnostics.Partial,
			ContractVerdict: contractVerdict,
		})
	}
	s.recordQuery(telemetry.QueryRecord{
		Start: start, SQL: req.SQL, Mode: req.Mode,
		Fingerprint: res.Diagnostics.Fingerprint,
		Technique:   tech, Status: http.StatusOK,
		LatencyMS:       latencyMS,
		RowsScanned:     res.Diagnostics.Counters.RowsScanned,
		Degraded:        res.Diagnostics.Degraded,
		DegradedFrom:    degradedFrom,
		Partial:         res.Diagnostics.Partial,
		ContractVerdict: contractVerdict,
	}, prof)

	resp := encodeResult(res)
	resp.DegradedFrom = degradedFrom
	if prof != nil {
		resp.TraceID = prof.TraceID
	}
	if req.Trace && prof != nil {
		resp.Trace = prof
	}
	writeJSON(w, http.StatusOK, resp)
}

// ShardGroupStatus is one sharded table's shape plus live per-shard
// health, for GET /shards.
type ShardGroupStatus struct {
	shard.GroupSummary
	Health []shard.Health `json:"health"`
}

// handleShards reports every sharded table's layout and per-shard health
// (row counts, sample freshness, breaker state and trip counts).
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	m := s.db.Shards()
	out := []ShardGroupStatus{}
	for _, name := range m.Names() {
		g := m.Get(name)
		if g == nil {
			continue
		}
		out = append(out, ShardGroupStatus{GroupSummary: g.Summary(), Health: g.Health()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTables lists catalog tables with schemas and stored samples.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	cat := s.db.Catalog()
	off := s.db.OfflineEngine()
	var out []TableInfo
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			continue // dropped between Names and Table
		}
		info := TableInfo{Name: name, Rows: t.NumRows(), Version: t.Version()}
		for _, def := range t.Schema() {
			info.Columns = append(info.Columns, ColumnInfo{Name: def.Name, Type: def.Type.String()})
		}
		info.Samples = sampleInfos(off, name)
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func sampleInfos(off *core.OfflineEngine, table string) []SampleInfo {
	var out []SampleInfo
	for _, smp := range off.Samples(table) {
		out = append(out, SampleInfo{
			Name:  smp.Name,
			QCS:   smp.QCS,
			Rows:  smp.Rows,
			Rate:  smp.Rate,
			Cap:   smp.Cap,
			Fresh: smp.Fresh(off.Catalog),
		})
	}
	return out
}

// handleBuildSamples builds (and optionally profiles) offline samples.
func (s *Server) handleBuildSamples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BuildSamplesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Table == "" {
		writeError(w, http.StatusBadRequest, "missing table")
		return
	}
	// Sample builds scan the base table — admit them like queries so
	// they cannot starve the worker pool either.
	release, err := s.adm.Acquire(r.Context())
	if err != nil {
		if errors.Is(err, ErrShed) {
			s.met.Inc("queries_shed_total")
			writeError(w, http.StatusTooManyRequests, "overloaded")
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer release()

	if err := s.db.BuildOfflineSamples(req.Table, req.QCS); err != nil {
		s.met.Inc("queries_errors_total")
		writeError(w, http.StatusBadRequest, "build samples: %v", err)
		return
	}
	if len(req.Profile) > 0 {
		if err := s.db.ProfileOffline(req.Profile...); err != nil {
			s.met.Inc("queries_errors_total")
			writeError(w, http.StatusBadRequest, "profile: %v", err)
			return
		}
	}
	s.met.Inc("samples_built_total")
	writeJSON(w, http.StatusOK, BuildSamplesResponse{
		Table:   req.Table,
		Samples: sampleInfos(s.db.OfflineEngine(), req.Table),
	})
}

// handleMetrics serves the metrics snapshot: JSON by default, Prometheus
// text exposition format with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	gauges := map[string]int64{
		"queue_depth":       int64(s.adm.QueueDepth()),
		"in_flight":         int64(s.adm.InFlight()),
		"workers":           int64(s.adm.Workers()),
		"queue_capacity":    int64(s.adm.QueueCap()),
		"max_query_workers": int64(s.cfg.MaxQueryWorkers),
		"uptime_seconds":    int64(time.Since(s.start).Seconds()),
	}
	s.engineTrippedGauges(gauges)
	if s.insight != nil {
		gauges["workload_fingerprints"] = int64(s.insight.Len())
	}
	if s.aud != nil {
		rep := s.aud.Report()
		gauges["audit_backlog"] = int64(rep.Backlog)
		for _, t := range rep.Tables {
			v := int64(0)
			if t.Stale {
				v = 1
			}
			gauges[Key("sample_stale", "table", t.Table)] = v
		}
	}
	gaugesF := s.sloGauges()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.WritePrometheus(w, gauges, gaugesF, BuildInfo())
		return
	}
	snap := s.met.Snapshot(gauges)
	snap.GaugesF = gaugesF
	snap.Info = BuildInfo()
	writeJSON(w, http.StatusOK, snap)
}

// handleHealthz reports liveness, drain state, and build identity.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.adm.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":         state,
		"tables":         len(s.db.Catalog().Names()),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"build":          BuildInfo(),
	})
}
