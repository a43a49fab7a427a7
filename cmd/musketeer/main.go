// Command musketeer compiles and executes a workflow file against staged
// relation files, on an explicitly chosen back-end or via automatic mapping.
//
// Relations are staged from files in the TSV-with-header format produced by
// Relation.Encode (see internal/relation). Example:
//
//	musketeer -frontend hive -workflow q17.hive \
//	    -table lineitem=lineitem.tsv -table part=part.tsv \
//	    -cluster ec2:100 -engine auto -show-code
//
// GAS workflows additionally need -gas-vertices / -gas-edges naming the
// vertex and edge tables.
//
// -trace writes the execution's flight recorder as Chrome trace_event JSON
// (load it at ui.perfetto.dev or chrome://tracing): one lane per concurrent
// job attempt with engine phases nested beneath, plus the compile, optimize,
// partition-search, analyze, and schedule pipeline spans.
//
// -history names the one file that carries what the planner learns across
// runs: per-operator observations, recorded runtimes and the feedback
// calibration of engine rates and selectivities. It is loaded before
// planning and saved after the run.
//
// The check subcommand runs the static analyzer only — no execution — and
// pretty-prints every diagnostic (exit status 1 when any is an error):
//
//	musketeer check -frontend hive -workflow q17.hive \
//	    -schema lineitem=l_partkey:int,l_quantity:float
//
// The stats subcommand accepts the same flags as an execution, runs the
// workflow, and reports observability output instead of result rows: the
// deployment metrics registry (counters, gauges, histograms with
// bucket-derived p50/p90/p99; -json for the flat JSON dump), the
// estimator's predicted-vs-measured accuracy and the learned calibration.
// Given -history and no -workflow it runs nothing and prints what the
// history file has learned — every calibrated rate and selectivity against
// its Table-1 seed:
//
//	musketeer stats -history h.json
//
// -debug-addr serves the live telemetry plane over HTTP for the life of
// the process: /metrics (Prometheus text exposition), /debug/runs (recent
// execution digests), /debug/runs/<id>/trace (Chrome trace JSON), /healthz,
// and /debug/pprof. Combine with -debug-hold to keep serving after the run
// finishes, and point `musketeer top -addr <addr>` at it for a one-shot
// view.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"musketeer"
	"musketeer/internal/obs"
	"musketeer/internal/relation"
)

type tableFlags map[string]string

func (t tableFlags) String() string { return fmt.Sprint(map[string]string(t)) }

func (t tableFlags) Set(v string) error {
	name, file, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("expected name=file, got %q", v)
	}
	t[name] = file
	return nil
}

// workflowFlags are the flags an execution and check share: which
// front-end compiles which source file over which relation files.
type workflowFlags struct {
	frontend, workflow string
	gas                musketeer.GASConfig
	tables             tableFlags
}

func addWorkflowFlags(fs *flag.FlagSet) *workflowFlags {
	w := &workflowFlags{tables: tableFlags{}}
	fs.StringVar(&w.frontend, "frontend", "hive", "front-end framework: hive, beer, pig or gas")
	fs.StringVar(&w.workflow, "workflow", "", "workflow source file")
	fs.StringVar(&w.gas.Vertices, "gas-vertices", "vertices", "GAS front-end: vertex table name")
	fs.StringVar(&w.gas.Edges, "gas-edges", "edges", "GAS front-end: edge table name")
	fs.StringVar(&w.gas.Output, "gas-output", "result", "GAS front-end: output relation name")
	fs.Var(w.tables, "table", "a relation from a TSV file: name=file (repeatable; check reads only its schema)")
	return w
}

// source reads the -workflow file.
func (w *workflowFlags) source() (string, error) {
	if w.workflow == "" {
		return "", errors.New("missing -workflow")
	}
	src, err := os.ReadFile(w.workflow)
	return string(src), err
}

// catalog decodes every -table file into the front-ends' catalog. A
// non-nil m also stages each relation in its DFS; check passes nil.
func (w *workflowFlags) catalog(m *musketeer.Musketeer) (musketeer.Catalog, error) {
	cat := musketeer.Catalog{}
	for name, file := range w.tables {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", name, err)
		}
		rel, err := relation.DecodeBytes(name, data)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", name, err)
		}
		path := "in/" + name
		if m != nil {
			if err := m.WriteInput(path, rel); err != nil {
				return nil, fmt.Errorf("table %s: %w", name, err)
			}
		}
		cat[name] = musketeer.Table{Path: path, Schema: rel.Schema}
	}
	return cat, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "check":
			os.Exit(runCheck(os.Args[2:]))
		case "stats":
			os.Exit(run("stats", os.Args[2:], true))
		case "top":
			os.Exit(runTop(os.Args[2:]))
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		}
	}
	os.Exit(run("musketeer", os.Args[1:], false))
}

// run is the shared execution path of the bare command and the stats
// subcommand; statsMode switches the post-run report from result rows to
// metrics and accuracy, and with -history but no -workflow prints the
// file's calibration without running anything.
func run(name string, args []string, statsMode bool) int {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	wfl := addWorkflowFlags(fs)
	engine := fs.String("engine", "auto", `back-end engine, or "auto" for automatic mapping`)
	clusterSpec := fs.String("cluster", "local:7", "deployment: local:<n> or ec2:<n>")
	showCode := fs.Bool("show-code", false, "print the generated back-end code")
	showPlan := fs.Bool("show-plan", false, "print the IR DAG and partitioning")
	explain := fs.Bool("explain", false, "print the cost model's reasoning for the chosen partitioning")
	dot := fs.Bool("dot", false, "print the IR DAG in Graphviz dot syntax and exit")
	historyPath := fs.String("history", "", "workflow-history file holding everything the planner learns (observations, runtimes, calibration): loaded before planning, saved after the run (stats -history FILE alone prints it)")
	mtbf := fs.Float64("faults-mtbf", 0, "inject worker failures with this cluster-wide MTBF (simulated seconds)")
	faultRate := fs.Float64("fault-rate", 0, "inject the full chaos plan (job crashes, worker faults, stragglers, DFS read failures) at this many expected faults per simulated hour")
	chaosSeed := fs.Int64("chaos-seed", 7, "seed for the -fault-rate chaos plan (same seed = same faults)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the execution, e.g. 30s (0 = none)")
	maxConcurrent := fs.Int("max-concurrent", 0, "bound on concurrently running back-end jobs (0 = scheduler default)")
	retries := fs.Int("retries", 0, "per-job retry budget for transiently failed jobs")
	tracePath := fs.String("trace", "", "write the execution's spans as Chrome trace_event JSON to this file")
	statsJSON := fs.Bool("json", false, "stats: dump the metrics registry as JSON instead of text")
	debugAddr := fs.String("debug-addr", "", "serve the debug plane (/metrics, /debug/runs, /healthz, /debug/pprof) on this address, e.g. :6060")
	debugHold := fs.Bool("debug-hold", false, "keep the -debug-addr server running after the run completes (Ctrl-C to exit)")
	fs.Parse(args)

	opts := []musketeer.Option{clusterOption(*clusterSpec)}
	if *historyPath != "" {
		h, err := musketeer.LoadHistory(*historyPath)
		if err != nil {
			fail("history: %v", err)
		}
		if statsMode && wfl.workflow == "" {
			printCalibration(h.Calibration().Snapshot())
			return 0
		}
		opts = append(opts, musketeer.WithHistory(h))
	}
	src, err := wfl.source()
	if err != nil {
		fail("%v", err)
	}
	if *faultRate > 0 {
		opts = append(opts, musketeer.WithChaos(musketeer.DefaultChaos(*chaosSeed, *faultRate)))
	} else if *mtbf > 0 {
		opts = append(opts, musketeer.WithChaos(&musketeer.ChaosPlan{MTBFSeconds: *mtbf, Seed: 1}))
	}
	if *maxConcurrent > 0 {
		opts = append(opts, musketeer.WithConcurrency(*maxConcurrent))
	}
	if *retries > 0 {
		opts = append(opts, musketeer.WithRetries(*retries))
	}
	if *tracePath != "" {
		opts = append(opts, musketeer.WithTracing())
	}
	m := musketeer.New(opts...)
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail("debug-addr: %v", err)
		}
		srv := &http.Server{Handler: m.DebugHandler()}
		// The debug listener lives for the process lifetime; serving scrapes
		// is stdlib-managed I/O, not execution-stack work.
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics /debug/runs /healthz /debug/pprof)\n", ln.Addr())
	}
	cat, err := wfl.catalog(m)
	if err != nil {
		fail("%v", err)
	}
	wf, err := m.Compile(wfl.frontend, src, cat, &wfl.gas)
	if err != nil {
		fail("compile: %v", err)
	}

	if *dot {
		wf.Optimize()
		fmt.Println(wf.DAG().DOT(wfl.workflow))
		return 0
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// ExecuteCtx / ExecuteOnCtx run the whole pipeline (optimize, partition
	// search, session run) so a -trace recorder sees every phase.
	var res *musketeer.Result
	if *engine == "auto" {
		res, err = wf.ExecuteCtx(ctx)
	} else {
		res, err = wf.ExecuteOnCtx(ctx, *engine)
	}
	if err != nil {
		fail("run: %v", err)
	}
	part := res.Partitioning

	if *showPlan {
		fmt.Println("IR DAG:")
		fmt.Println(wf.DAG())
		fmt.Println("partitioning:")
		fmt.Println(part)
	}
	if *explain {
		text, err := wf.Explain(part)
		if err != nil {
			fail("explain: %v", err)
		}
		fmt.Println(text)
	}
	if *showCode {
		code, err := wf.GeneratedCode(part)
		if err != nil {
			fail("codegen: %v", err)
		}
		fmt.Println(code)
	}

	fmt.Printf("executed %d job(s) on %v, simulated makespan %v\n",
		len(res.Jobs), part.Engines(), res.Makespan)
	if *historyPath != "" {
		if err := m.History().Save(*historyPath); err != nil {
			fail("history: %v", err)
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("trace: %v", err)
		}
		if err := res.Flight.WriteChromeTrace(f, musketeer.TraceOptions{}); err != nil {
			fail("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("trace: %v", err)
		}
		fmt.Printf("trace: %d span(s) written to %s\n", res.Flight.Len(), *tracePath)
	}

	defer func() {
		if *debugAddr != "" && *debugHold {
			fmt.Fprintf(os.Stderr, "holding debug server on %s; Ctrl-C to exit\n", *debugAddr)
			select {}
		}
	}()

	if statsMode {
		fmt.Println("metrics:")
		if *statsJSON {
			if err := m.Metrics().WriteJSON(os.Stdout); err != nil {
				fail("metrics: %v", err)
			}
		} else {
			if err := m.Metrics().WriteText(os.Stdout); err != nil {
				fail("metrics: %v", err)
			}
		}
		fmt.Println("estimator accuracy:")
		fmt.Printf("  %s\n", res.Accuracy)
		for _, j := range res.Accuracy.Jobs {
			fmt.Printf("  %-10s %-30s predicted %8.1fs actual %8.1fs error %+6.0f%%\n",
				j.Engine, j.Job, j.PredictedS, j.ActualS, 100*j.Error)
		}
		printCalibration(m.Calibration().Snapshot())
		if rates := obs.PhaseRates(res.Flight); len(rates) > 0 {
			fmt.Println("observed phase rates (this run):")
			for _, pr := range rates {
				line := fmt.Sprintf("  %-10s %-8s %2d span(s) %8.1fs simulated", pr.Engine, pr.Phase, pr.Samples, pr.SimSeconds)
				if pr.MBps > 0 {
					line += fmt.Sprintf("  %8.1f MB/s/node-eq", pr.MBps)
				}
				fmt.Println(line)
			}
		}
		return 0
	}

	for _, job := range res.Jobs {
		fmt.Printf("  %-10s %-30s %v\n", job.Engine, job.Job, job.Makespan)
	}
	// Print workflow outputs (sinks).
	for _, sink := range wf.DAG().Sinks() {
		out, err := m.ReadOutput(sink.Out)
		if err != nil {
			continue
		}
		fmt.Printf("output %q: %d rows", sink.Out, out.NumRows())
		limit := out.NumRows()
		if limit > 5 {
			limit = 5
		}
		for _, row := range out.Rows[:limit] {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Printf("\n  %s", strings.Join(cells, "\t"))
		}
		fmt.Println()
	}
	return 0
}

// printCalibration renders the learned-rate summary of the stats
// subcommand: every engine rate and operator-class selectivity that has
// accumulated feedback evidence, against its Table-1 / first-run seed, or
// one line saying there is no evidence yet.
func printCalibration(snap musketeer.CalibrationSnapshot) {
	if snap.Version == 0 {
		fmt.Println("calibration: no feedback evidence (all rates at Table-1 seed)")
		return
	}
	fmt.Printf("calibration (version %d):\n", snap.Version)
	for _, ec := range snap.Engines {
		if ec.Samples == 0 {
			continue
		}
		fmt.Printf("  %-10s %d run(s):", ec.Engine, ec.Samples)
		for _, f := range [...]struct {
			name         string
			seed, learnt float64
		}{
			{"overhead_s", ec.Seed.OverheadS, ec.Learned.OverheadS},
			{"pull", ec.Seed.PullMBps, ec.Learned.PullMBps},
			{"load", ec.Seed.LoadMBps, ec.Learned.LoadMBps},
			{"proc", ec.Seed.ProcMBps, ec.Learned.ProcMBps},
			{"graph_proc", ec.Seed.GraphProcMBps, ec.Learned.GraphProcMBps},
			{"push", ec.Seed.PushMBps, ec.Learned.PushMBps},
			{"shuffle", ec.Seed.ShuffleMBps, ec.Learned.ShuffleMBps},
		} {
			if f.seed == 0 && f.learnt == 0 {
				continue
			}
			fmt.Printf(" %s=%.1f->%.1f", f.name, f.seed, f.learnt)
		}
		fmt.Println()
	}
	for _, sc := range snap.Selectivities {
		if sc.Samples == 0 {
			continue
		}
		fmt.Printf("  selectivity %-10s %d obs: %.3f->%.3f\n", sc.Class, sc.Samples, sc.Seed, sc.Learned)
	}
}

// parseCluster parses a -cluster spec: local:<n> or ec2:<n> with n >= 1.
func parseCluster(spec string) (kind string, n int, err error) {
	kind, nStr, _ := strings.Cut(spec, ":")
	n, err = strconv.Atoi(nStr)
	if (kind != "local" && kind != "ec2") || err != nil || n < 1 {
		return "", 0, fmt.Errorf("bad -cluster %q (want local:<n> or ec2:<n>, n >= 1)", spec)
	}
	return kind, n, nil
}

func clusterOption(spec string) musketeer.Option {
	kind, n, err := parseCluster(spec)
	if err != nil {
		fail("%v", err)
	}
	if kind == "ec2" {
		return musketeer.EC2(n)
	}
	return musketeer.LocalCluster(n)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
