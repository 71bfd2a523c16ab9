package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// serverStats is what the serving process reports when the read window
// closes.
type serverStats struct {
	// AllocBytes is the Go heap allocated between start and stop.
	AllocBytes uint64 `json:"alloc_bytes"`
	// PeakRSSKB is the process's VmHWM.
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// Queries is the number of POST /query requests between start and
	// stop.
	Queries int64 `json:"queries"`
}

// serve runs the serving process: set up the workload, listen on a
// loopback port, print "READY <addr> <setup seconds>", and serve until
// standard input closes. With setupOnly it prints "SETUP <seconds>" after
// set-up and exits.
func serve(s spec, scale float64, setupOnly bool) error {
	start := time.Now()
	db, err := setup(s, scale)
	if err != nil {
		return err
	}
	if setupOnly {
		fmt.Printf("SETUP %.6f\n", time.Since(start).Seconds())
		return nil
	}
	srv := server.New(db, serverConfig(s))
	if s.telemetry {
		srv.TelemetryStore().Start()
	}
	ctl := &control{}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/query", ctl.count(srv.Handler()))
	mux.HandleFunc("/bench/start", ctl.start)
	mux.HandleFunc("/bench/stop", ctl.stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("READY %s %.6f\n", ln.Addr(), time.Since(start).Seconds())

	// The driving process closes our standard input when it is done (or
	// when it dies), which ends the serving process.
	eof := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(eof)
	}()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-eof:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain queries: %w", err)
	}
	return hs.Shutdown(ctx)
}

// serverConfig sizes the admission pool to the workload's clients and
// lets each query use the workload's morsel worker count.
func serverConfig(s spec) server.Config {
	return server.Config{
		Workers:         s.clients,
		MaxQueryWorkers: s.queryWorkers,
		Telemetry:       s.telemetry,
	}
}

// control implements /bench/start and /bench/stop: the read window's
// allocation baseline, and the measurements taken when it closes.
type control struct {
	mu         sync.Mutex
	allocStart uint64
	queries    atomic.Int64
}

// count counts the queries h serves.
func (c *control) count(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.queries.Add(1)
		h.ServeHTTP(w, r)
	})
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (c *control) start(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.allocStart = totalAlloc()
	c.queries.Store(0)
	w.WriteHeader(http.StatusNoContent)
}

// stop ends the read window.
func (c *control) stop(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := serverStats{AllocBytes: totalAlloc() - c.allocStart, PeakRSSKB: peakRSSKB(), Queries: c.queries.Load()}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// peakRSSKB reads VmHWM from /proc/self/status (0 where unavailable).
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				n, _ := strconv.ParseInt(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
