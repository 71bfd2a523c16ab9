package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// A run sets the workload up at least minSetups times, and more while
// its set-ups have taken less than setupBudget, up to maxSetups times;
// setup_s is their median. A fast set-up is noisy, and cheap to repeat.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// Before the read window opens, twin pairs are sent for warmup, and at
// least warmupPairs of them, so lazy set-up and the serving process's
// heap growth are not timed.
const (
	warmup      = 3 * time.Second
	warmupPairs = 4
)

// record is one answered (or failed) request.
type record struct {
	template string
	approx   bool
	rtt      time.Duration
	bytes    int
	tech     string
	v        verdict
	err      error
}

// loadRun is the end-to-end measurement: references, set-up, the read
// window through the loopback server, and the checks.
func loadRun(s spec, seed int64, seconds, scale float64) (*output, error) {
	qs := queries(s, seed)
	t0 := time.Now()
	refs, err := buildReferences(s, scale, qs)
	if err != nil {
		return nil, err
	}
	refS := time.Since(t0).Seconds()

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-serve", "-workload", s.name, "-scale", strconv.FormatFloat(scale, 'g', -1, 64)}
	var setups []float64
	// The serving process sets up once more.
	for i, t := 0, time.Now(); i < maxSetups-1 && (i < minSetups-1 || time.Since(t) < setupBudget); i++ {
		out, err := exec.Command(self, append(args, "-setup-only")...).Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		var secs float64
		if _, err := fmt.Sscanf(string(out), "SETUP %g", &secs); err != nil {
			return nil, fmt.Errorf("set-up process printed %q", out)
		}
		setups = append(setups, secs)
	}
	child, err := startServer(self, args)
	if err != nil {
		return nil, err
	}
	defer child.close()
	setups = append(setups, child.setupS)

	cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients, DisableCompression: true}}
	defer cl.CloseIdleConnections()
	base := "http://" + child.addr
	// untimed records are checked but not measured.
	var untimed []record
	for i, t := 0, time.Now(); i < warmupPairs || time.Since(t) < warmup; i++ {
		untimed = append(untimed, pair(cl, base, s, qs[i%len(qs)], i, refs)...)
	}
	if err := post(cl, base+"/bench/start"); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]record, s.clients)
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client walks the whole list once per pass, in a fresh
			// seeded order each time: with a fixed order the clients keep
			// their phase, and which queries overlap would be fixed by
			// the seed for the whole window.
			rng := rand.New(rand.NewSource(seed*7907 + int64(c)))
			var order []int
			for i := 0; time.Now().Before(deadline); i++ {
				if i%len(qs) == 0 {
					order = rng.Perm(len(qs))
				}
				perClient[c] = append(perClient[c], pair(cl, base, s, qs[order[i%len(qs)]], i, refs)...)
			}
		}(c)
	}
	wg.Wait()
	// Only each client's complete passes are measured, so every query of
	// the list weighs the same in every run; a client that completed no
	// pass is measured whole.
	for c, recs := range perClient {
		if keep := len(recs) / (2 * len(qs)) * (2 * len(qs)); keep > 0 {
			untimed = append(untimed, recs[keep:]...)
			perClient[c] = recs[:keep]
		}
	}
	var st serverStats
	if err := postJSON(cl, base+"/bench/stop", &st); err != nil {
		return nil, err
	}
	out := summarize(s, perClient, untimed, st, median(setups))
	out.notes = append(out.notes, fmt.Sprintf("references %.2fs, set-ups %.3gs, whole run %.2fs",
		refS, setups, time.Since(t0).Seconds()))
	return out, nil
}

// child is the serving process.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	addr   string
	setupS float64
}

func startServer(self string, args []string) (*child, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start serving process: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err == nil {
		_, err = fmt.Sscanf(line, "READY %s %g", &c.addr, &c.setupS)
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("serving process did not come up (%q): %v", line, err)
	}
	return c, nil
}

// close ends the serving process and waits for it, killing it if it
// does not exit on its own.
func (c *child) close() {
	_ = c.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}

func post(cl *http.Client, url string) error {
	resp, err := cl.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

func postJSON(cl *http.Client, url string, out any) error {
	resp, err := cl.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// pair sends one twin pair, alternating which twin goes first.
func pair(cl *http.Client, base string, s spec, q query, i int, refs map[string]*reference) []record {
	exact := func() record { return request(cl, base, s, q, false, refs[q.sql]) }
	approx := func() record { return request(cl, base, s, q, true, refs[q.sql]) }
	if i%2 == 0 {
		return []record{exact(), approx()}
	}
	return []record{approx(), exact()}
}

type queryRequest struct {
	SQL     string `json:"sql"`
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
}

// request sends one query and checks its answer. The round trip ends
// when the body has been read; decoding and checking are not timed.
func request(cl *http.Client, base string, s spec, q query, approx bool, ref *reference) record {
	req := queryRequest{SQL: q.sql, Mode: "exact", Workers: s.queryWorkers}
	if approx {
		req.SQL, req.Mode = q.approxSQL, q.approxMode
	}
	body, _ := json.Marshal(req)
	r := record{template: q.template, approx: approx}
	t0 := time.Now()
	resp, err := cl.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.rtt = time.Since(t0)
	r.bytes = len(raw)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
		return r
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		r.err = fmt.Errorf("decode answer: %w", err)
		return r
	}
	r.tech = a.Technique
	r.v = judge(&a, approx, ref)
	r.err = r.v.err
	if s.clients == 1 {
		// Nothing else is in flight while the only client checks an
		// answer, so it collects the decoded answer now: a collection
		// still running at the next request would put its idle mark
		// workers on the cores the server is using.
		runtime.GC()
	}
	return r
}

// buildReferences generates the workload's data in this process and
// answers every distinct exact query of the list from it.
func buildReferences(s spec, scale float64, qs []query) (map[string]*reference, error) {
	db, err := generate(s, scale)
	if err != nil {
		return nil, err
	}
	refs, err := computeReferences(db.Catalog(), qs)
	runtime.GC()
	debug.FreeOSMemory()
	return refs, err
}

// summarize turns the records into the end-to-end metrics.
func summarize(s spec, perClient [][]record, untimed []record, st serverStats, setupS float64) *output {
	out := &output{Correct: true, Metrics: map[string]metric{}}
	var lat []float64
	var qps, bytesSum, exactMS, approxMS float64
	var approxN, cis, meeting, covering, n int
	techs := map[string]int{}
	fail := func(msg string) {
		out.Failed++
		out.Correct = false
		if len(out.errors) < 5 {
			out.errors = append(out.errors, msg)
		}
	}
	for _, r := range untimed {
		out.Attempted++
		if r.err != nil {
			fail(fmt.Sprintf("%s (approx=%v): %v", r.template, r.approx, r.err))
		}
	}
	for _, recs := range perClient {
		var busy time.Duration
		for _, r := range recs {
			out.Attempted++
			busy += r.rtt
			if r.err != nil {
				fail(fmt.Sprintf("%s (approx=%v): %v", r.template, r.approx, r.err))
				continue
			}
			n++
			ms := float64(r.rtt) / float64(time.Millisecond)
			lat = append(lat, ms)
			bytesSum += float64(r.bytes)
			techs[r.tech]++
			if r.approx {
				approxMS += ms
				approxN++
				cis += r.v.cis
				meeting += r.v.meeting
				covering += r.v.covering
			} else {
				exactMS += ms
			}
		}
		// Closed-loop clients: each client's rate while it waited on the
		// server, so decoding and checking answers is not counted.
		if busy > 0 {
			qps += float64(len(recs)) / busy.Seconds()
		}
	}
	for _, route := range s.routes {
		if techs[route] == 0 {
			out.Correct = false
			out.errors = append(out.errors, fmt.Sprintf("route %s was never taken (routes: %v)", route, techs))
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set := func(name, unit string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", setupS)
	set("latency_p50_ms", "ms", hdQuantile(lat, 0.5))
	set("latency_p90_ms", "ms", hdQuantile(lat, 0.9))
	set("throughput_qps", "1/s", qps)
	set("answer_ok_ratio", "ratio", 1-ratio(out.Failed, out.Attempted))
	set("approx_speedup", "x", exactMS/math.Max(approxMS, 1e-9))
	set("spec_met_ratio", "ratio", ratio(meeting, cis))
	set("ci_coverage", "ratio", ratio(covering, cis))
	set("response_kb_per_query", "KiB", bytesSum/1024/math.Max(float64(n), 1))
	set("peak_rss_mb", "MiB", float64(st.PeakRSSKB)/1024)
	set("alloc_mb_per_query", "MiB", float64(st.AllocBytes)/(1<<20)/math.Max(float64(st.Queries), 1))
	out.notes = append(out.notes, fmt.Sprintf("%d queries in the window (%d approximate, %d CIs, %d beyond p90), routes %v",
		n, approxN, cis, n-int(math.Ceil(0.9*float64(n))), techs))
	return out
}
