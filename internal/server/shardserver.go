package server

// ShardServer: the serving side of the remote-shard RPC seam. One process
// holds one partition of one table and exposes the three wire endpoints
// (estimate / rebuild / health). It is deliberately dumb — no admission
// control, no engines, no degradation ladder — because the coordinator
// owns query semantics: the shard server's only job is to run an
// aggregate subtree over its rows with the sampler spec it was handed
// (seeds already shard-derived) and ship the partial state back bit-true.
// Malformed or version-skewed requests are refused loudly with 4xx, which
// the client treats as permanent (no retry); execution failures are 5xx,
// which the client's retry envelope may re-attempt.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// injectShardServe fires inside the estimate handler, so chaos schedules
// can fail the server side of the seam as well as the client side.
var injectShardServe = fault.NewPoint("shardserver.estimate",
	"shard server: estimate execution")

// ShardServerConfig configures one shard-server process.
type ShardServerConfig struct {
	// ShardID is this shard's index within its group.
	ShardID int
	// Table is the logical table name served (requests for other tables
	// are refused).
	Table string
	// Workers caps per-estimate parallelism (default GOMAXPROCS).
	Workers int
}

// ShardServer serves one partition of one table over the wire schema.
type ShardServer struct {
	cfg   ShardServerConfig
	table *storage.Table
	start time.Time

	mu  sync.Mutex
	smp *sample.StratifiedResult
}

// NewShardServer wraps a partition table in a shard server.
func NewShardServer(t *storage.Table, cfg ShardServerConfig) *ShardServer {
	if cfg.Table == "" {
		cfg.Table = t.Name()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &ShardServer{cfg: cfg, table: t, start: time.Now()}
}

// Handler returns the shard server's HTTP handler.
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/estimate", s.handleEstimate)
	mux.HandleFunc("/shard/rebuild", s.handleRebuild)
	mux.HandleFunc("/shard/health", s.handleHealth)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (s *ShardServer) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *ShardServer) checkTable(w http.ResponseWriter, table string) bool {
	if table != s.cfg.Table {
		writeError(w, http.StatusBadRequest, "this shard serves table %q, not %q", s.cfg.Table, table)
		return false
	}
	return true
}

func (s *ShardServer) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req shard.EstimateRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if req.V != shard.WireVersion {
		writeError(w, http.StatusBadRequest,
			"estimate request wire version %d unsupported (this build speaks v%d)", req.V, shard.WireVersion)
		return
	}
	if !s.checkTable(w, req.Table) {
		return
	}
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	// Adopt the caller's trace context: the echoed trace ID proves the
	// scatter leg's traceparent crossed the process boundary.
	traceID := ""
	if tid, _, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		traceID = tid.String()
	}
	if err := injectShardServe.Inject(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	p, err := shard.BuildShardQueryPlan(shard.Query{Stmt: stmt, Sample: req.Sample}, s.table)
	if err != nil {
		writeError(w, http.StatusBadRequest, "plan: %v", err)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	part, err := runShardPartial(r.Context(), p, workers)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "execute: %v", err)
		return
	}
	blob, err := exec.EncodeAggPartialWire(part)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode partial: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, shard.EstimateResponse{
		V:       shard.WireVersion,
		ShardID: s.cfg.ShardID,
		Rows:    s.table.NumRows(),
		TraceID: traceID,
		Partial: blob,
	})
}

// runShardPartial executes the partial with panic containment: an
// injected (or genuine) panic inside the subtree becomes a typed 5xx
// error, and the process keeps serving.
func runShardPartial(ctx context.Context, p plan.Node, workers int) (part *exec.AggPartial, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			part, err = nil, fault.AsError(rec)
		}
	}()
	return exec.RunAggPartialContext(ctx, p, workers)
}

func (s *ShardServer) handleRebuild(w http.ResponseWriter, r *http.Request) {
	var req shard.RebuildRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if req.V != shard.WireVersion {
		writeError(w, http.StatusBadRequest,
			"rebuild request wire version %d unsupported (this build speaks v%d)", req.V, shard.WireVersion)
		return
	}
	if !s.checkTable(w, req.Table) {
		return
	}
	res, err := sample.BuildUniformTable(s.table, req.Rate, req.Seed,
		fmt.Sprintf("%s__sample", s.table.Name()))
	if err != nil {
		writeError(w, http.StatusBadRequest, "rebuild: %v", err)
		return
	}
	s.mu.Lock()
	s.smp = res
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, shard.RebuildResponse{V: shard.WireVersion, SampleRows: res.SampleRows})
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	h := shard.HealthWire{
		V:       shard.WireVersion,
		ShardID: s.cfg.ShardID,
		Table:   s.cfg.Table,
		Rows:    s.table.NumRows(),
	}
	s.mu.Lock()
	if s.smp != nil {
		h.SampleRows = s.smp.SampleRows
		h.SampleFresh = s.smp.BuildVersion == s.table.Version()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}
