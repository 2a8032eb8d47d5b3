// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload as closed-loop rounds against an in-process Alpenhorn
// fleet — PKGs, a chain-forward mix chain, entry frontends and CDN nodes,
// each behind its real rpc server on 127.0.0.1 — driven by real
// core.Clients over TCP. It checks every round's output, prints each
// metric by name and unit, and ends with one JSON line:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are per-layer metrics from spans the benchmark records around its calls
// into each layer. Any failed check makes it exit non-zero.
//
//	go run . -workload dialing -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: addfriend, dialing or dialing-sharded")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: friend graph, call schedule, synthetic batches")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dataDir, "data-dir", ".bench_build/data", "directory for disk-backed CDN nodes")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = 3

	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(cfg.dataDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.dataDir = dir
	if cfg.trace {
		cfg.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}

	res, err := run(cfg)
	os.RemoveAll(cfg.dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(report(res))
}

// report prints the result and returns the exit code.
func report(res *result) int {
	for _, line := range res.info {
		fmt.Println(line)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]jsonMetric)}
	for _, m := range res.metrics {
		fmt.Printf("%-34s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Printf("failed_frac %.6f (%d of %d checked operations failed)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
