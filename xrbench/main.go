// Command xrbench is the repository benchmark. It drives the XR
// performance-analysis system end to end through one of three
// closed-loop workloads — a paper-scale grid sweep on a loopback TCP
// fleet (grid_net), a population simulation on worker subprocesses
// (population_proc) and a shared job server under mixed read/write
// traffic (server_mixed) — checks every job's output against a one-shot
// single-worker render, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
// Run it from the root of a checkout through its build script:
//
//	bash xrbench/run.sh --workload grid_net --seed 1 --seconds 36 --trace 0
//
// See README.md beside this file for the metric definitions.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/testbed"
)

// workloadFunc runs one workload and returns its measured result.
type workloadFunc func(ctx context.Context, cfg config) (*result, error)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]workloadFunc{
	"grid_net":        runGridNet,
	"population_proc": runPopulationProc,
	"server_mixed":    runServerMixed,
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// outDir receives span dumps, result records and the disk-replay
	// store; it lies inside the checkout.
	outDir string
}

func main() {
	// The population workload re-executes this binary as its proc
	// workers; in that role it serves the worker protocol and exits.
	testbed.MaybeServeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input-generation seed")
	fs.IntVar(&cfg.seconds, "seconds", 36, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/xrbench", "directory for span dumps, result records and the disk-replay store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "xrbench: unknown -workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "xrbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "xrbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "xrbench:", err)
		return 1
	}
	if err := res.write(stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "xrbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
