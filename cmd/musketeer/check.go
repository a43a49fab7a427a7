package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"musketeer"
	"musketeer/internal/analysis"
	"musketeer/internal/engines"
)

// runCheck implements `musketeer check`: compile the workflow, run the
// multi-pass analyzer, pretty-print every diagnostic, and exit non-zero
// when any is an error. Nothing is executed and no data is staged; tables
// may be declared schema-only with -schema name=col:kind,col:kind.
func runCheck(args []string) int {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	wfl := addWorkflowFlags(fs)
	engine := fs.String("engine", "", "check engine feasibility against this engine only (default: all standard engines)")
	matrix := fs.Bool("matrix", false, "print the engine capability matrix and exit")
	schemas := tableFlags{}
	fs.Var(schemas, "schema", "declare a relation schema inline: name=col:kind,col:kind (repeatable)")
	fs.Parse(args)

	if *matrix {
		fmt.Print(engines.CapabilityMatrix(engines.StandardEngines()))
		return 0
	}
	src, err := wfl.source()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cat, err := wfl.catalog(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for name, spec := range schemas {
		cat[name] = musketeer.Table{
			Path:   "in/" + name,
			Schema: musketeer.NewSchema(strings.Split(spec, ",")...),
		}
	}

	wf, err := musketeer.New().Compile(wfl.frontend, src, cat, &wfl.gas)
	if errors.Is(err, musketeer.ErrUnknownFrontend) {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err != nil {
		// Compilation failed. When the failure is the analyzer's, its full
		// report (warnings included) survives the front-end wrapping.
		var aerr *analysis.Error
		if errors.As(err, &aerr) {
			return printReport(wfl.workflow, aerr.Report)
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", wfl.workflow, err)
		return 1
	}

	var rep *musketeer.Report
	if *engine != "" {
		eng, ok := engines.Registry()[*engine]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
			return 2
		}
		rep = analysis.AnalyzeWithEngines(wf.DAG(), []*engines.Engine{eng})
	} else {
		rep = wf.Check()
	}
	return printReport(wfl.workflow, rep)
}

func printReport(path string, rep *musketeer.Report) int {
	for _, d := range rep.Diags {
		fmt.Printf("%s: %s\n", path, d)
	}
	fmt.Printf("%s: %d error(s), %d warning(s)\n", path, len(rep.Errors()), len(rep.Warnings()))
	if rep.HasErrors() {
		return 1
	}
	return 0
}
