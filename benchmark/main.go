// Command benchmark measures the aqp service end to end on two seeded
// workloads and checks every answer it gets.
//
//	benchmark -workload dashboard -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it draws the query list from the seed, serves it from a
// separate process through internal/server's POST /query handler on a
// loopback port, drives it with closed-loop clients for -seconds, checks
// every answer against the serial executor, and prints the end-to-end
// metrics. With -trace 1 it replays the same query list single-threaded
// in one process, timing the calls into each layer, and prints the
// per-layer metrics. The last line of standard output is one JSON object;
// the exit status is 1 when an answer was wrong and 2 when the run could
// not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errors    []string
	notes     []string
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: dashboard or highcard")
		seed      = flag.Int64("seed", 1, "seed of the query list and its literals")
		seconds   = flag.Float64("seconds", 10, "length of the measured window")
		traced    = flag.Int("trace", 0, "1 replays single-threaded and reports per-layer metrics")
		scale     = flag.Float64("scale", 1, "multiplier of the workload's row counts")
		serveMode = flag.Bool("serve", false, "run as the serving process (started by the benchmark itself)")
		setupOnly = flag.Bool("setup-only", false, "with -serve: time one set-up and exit")
	)
	flag.Parse()
	s, ok := specs[*name]
	if !ok || *seconds <= 0 || *scale <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: want -workload dashboard|highcard, -seconds > 0, -scale > 0, -trace 0|1\n")
		os.Exit(2)
	}
	if *serveMode {
		if err := serve(s, *scale, *setupOnly); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: serving process: %v\n", err)
			os.Exit(2)
		}
		return
	}
	var out *output
	var err error
	if *traced == 1 {
		out, err = traceRun(s, *seed, *seconds, *scale)
	} else {
		out, err = loadRun(s, *seed, *seconds, *scale)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
		os.Exit(2)
	}
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "%s: %s\n", s.name, n)
	}
	for _, e := range out.errors {
		fmt.Fprintf(os.Stderr, "%s: CHECK FAILED: %s\n", s.name, e)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encode result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
