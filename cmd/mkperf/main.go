// Command mkperf is the repository's benchmark (see internal/perf/README.md
// and BENCHMARK.json).
//
// With -workload it makes one run of one workload and prints one JSON object
// as the last line of standard output — the contract the benchmark driver
// uses:
//
//	go run ./cmd/mkperf -workload serve_open -seed 1 -seconds 24 -trace 0
//
// Without -workload it runs the whole suite — every workload timed, then
// traced — and prints every end-to-end and per-layer metric by name with
// its unit, one row per workload. -agree runs the suite twice and compares
// the end-to-end metrics against their bounds; -check-determinism generates
// everything twice and compares what must repeat exactly.
//
// It exits non-zero when any operation failed or any output differed from
// its independent reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"

	"musketeer/internal/perf"
)

func main() {
	workload := flag.String("workload", "", "run only this workload and print the driver's JSON line (one of "+strings.Join(perf.Workloads, ", ")+")")
	seed := flag.Int64("seed", 1, "seed for generated data, variant draws and the arrival schedule")
	seconds := flag.Float64("seconds", 24, "length of each timed window in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as Chrome trace JSON (suite mode appends .<workload>.json)")
	quick := flag.Bool("quick", false, "reduced input sizes, for the harness's own smoke test; numbers are not comparable")
	agree := flag.Bool("agree", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	determinism := flag.Bool("check-determinism", false, "generate everything twice and fail unless digests, schedule and counts repeat")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mkperf: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	// The benchmark is defined at GOMAXPROCS = the machine's processors; an
	// inherited GOMAXPROCS=1 would silently measure a different system.
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := perf.Options{Seed: *seed, Seconds: *seconds, Quick: *quick, TraceOut: *traceOut, Log: os.Stderr}

	var err error
	switch {
	case *workload != "":
		opts.Workload, opts.Trace = *workload, *trace != 0
		err = single(ctx, opts)
	case *determinism:
		err = perf.CheckDeterminism(ctx, opts, os.Stdout)
	case *agree:
		err = perf.Agree(ctx, opts, os.Stdout)
	default:
		_, err = perf.Suite(ctx, opts, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkperf:", err)
		stop()
		os.Exit(1)
	}
}

// single makes one run and prints the driver's result line.
func single(ctx context.Context, o perf.Options) error {
	rep, err := perf.Run(ctx, o)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := perf.EndToEnd
	if o.Trace {
		defs = perf.PerLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.Workload, d.Name, v)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Correct(),
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.MemberMS))
	for name := range rep.MemberMS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "mkperf: %s: %s %.3f ms as timed\n", o.Workload, name, rep.MemberMS[name])
	}
	fmt.Fprintf(os.Stderr, "mkperf: %s seed %d: %d latency samples, %d of %d operations failed\n", o.Workload, o.Seed, rep.Samples, rep.Failed, rep.Attempted)
	fmt.Println(string(line))
	if !rep.Correct() {
		return fmt.Errorf("%s: %d of %d operations failed or differed from their reference", o.Workload, rep.Failed, rep.Attempted)
	}
	return nil
}
